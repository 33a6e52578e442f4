"""Every scalar path of the free constructions keeps its documented contract.

Each function in ``hsdual.free`` is called with hostile numbers in each of
its number-taking places: a weight, a point, a component, a scalar or a
dimension.  Every call returns a value or raises a LinalgError subclass (or
the ValueError the weighted-point functions document), with all warnings
raised as errors; never a TypeError, AttributeError or OverflowError.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import from_dtype

from hsdual.free import (
    ComplexPair,
    Difference,
    WeightedPoint,
    c_add,
    c_iso_b_sa,
    c_iso_sa_b,
    c_smul,
    r_add,
    r_equiv,
    r_iso_pos_sa,
    r_iso_sa_pos,
    r_neg,
    r_smul,
    s_add,
    s_iso_dm_pos,
    s_iso_pos_dm,
    s_point,
    s_smul,
)
from hsdual.linalg import LinalgError

_BIG = 10**400

_NUMBERS = st.one_of(
    st.integers(-_BIG, _BIG),
    st.sampled_from([_BIG, -_BIG, 2**1024, 2**1023, 0, 1, True]),
    st.fractions(),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    *(from_dtype(np.dtype(t)) for t in ("float64", "float32", "int64", "uint8", "complex128", "complex64")),
    st.sampled_from(["3", None]),
)

RHO = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=np.complex128)

# (call, the exceptions its documentation allows); x and y are drawn numbers
_CALLS = {
    "WeightedPoint-weight": (lambda x, y: WeightedPoint(x, y), ValueError),
    "WeightedPoint-point": (lambda x, y: WeightedPoint(1.0, x), ValueError),
    "s_point": (lambda x, y: s_point(x, y), ValueError),
    "s_smul": (lambda x, y: s_smul(x, s_point(1.0, 0.5)), ValueError),
    "s_smul-matrix": (lambda x, y: s_smul(x, s_point(2.0, RHO)), ValueError),
    "s_add": (lambda x, y: s_add(s_point(1.0, x), s_point(3.0, y)), ValueError),
    "s_add-matrix": (lambda x, y: s_add(s_point(1.0, x), s_point(3.0, RHO)), ValueError),
    "s_iso_dm_pos-dim": (lambda x, y: s_iso_dm_pos(s_point(1.0, RHO), x), ValueError),
    "s_iso_dm_pos-point": (lambda x, y: s_iso_dm_pos(s_point(1.0, x), 1), ValueError),
    "s_iso_pos_dm": (lambda x, y: s_iso_pos_dm(x), ValueError),
    "r_equiv": (lambda x, y: r_equiv(Difference(x, 0), Difference(y, 0.5)), LinalgError),
    "r_add": (lambda x, y: r_add(Difference(x, 0), Difference(y, 0.5)), LinalgError),
    "r_neg": (lambda x, y: r_neg(Difference(x, y)), LinalgError),
    "r_smul": (lambda x, y: r_smul(x, Difference(y, 0.5)), LinalgError),
    "r_smul-matrix": (lambda x, y: r_smul(x, Difference(RHO, RHO)), LinalgError),
    "r_iso_pos_sa": (lambda x, y: r_iso_pos_sa(Difference(x, y)), LinalgError),
    "r_iso_sa_pos": (lambda x, y: r_iso_sa_pos(x), LinalgError),
    "c_add": (lambda x, y: c_add(ComplexPair(x, 0), ComplexPair(y, 0.5)), LinalgError),
    "c_smul": (lambda x, y: c_smul(x, ComplexPair(y, 0.5)), LinalgError),
    "c_smul-matrix": (lambda x, y: c_smul(x, ComplexPair(RHO, RHO)), LinalgError),
    "c_iso_sa_b": (lambda x, y: c_iso_sa_b(ComplexPair(x, y)), LinalgError),
    "c_iso_b_sa": (lambda x, y: c_iso_b_sa(x), LinalgError),
}


@pytest.mark.parametrize("name", list(_CALLS))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(x=_NUMBERS, y=_NUMBERS)
def test_free_scalar_paths_return_or_raise_their_documented_errors(name, x, y):
    call, documented = _CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(x, y)
        except (LinalgError, documented):
            pass
