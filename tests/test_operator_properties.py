"""Every matrix entry point of ``hsdual.operators`` keeps its contract.

``classify``, ``in_kind``, ``loewner_leq``, ``pos_neg_split`` and
``sa_components`` are called on hostile arguments: entries at every binary
magnitude 2**k, +-1e308, subnormals, NaN and infinities, in Hermitian and
general matrices; empty, non-square, non-matrix and mismatched shapes; and
values that are no matrix of numbers at all.  With all warnings raised as
errors, each call returns a value or raises a LinalgError subclass or
ValueError; never a RuntimeWarning, TypeError, IndexError or
ZeroDivisionError.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsdual.linalg import LinalgError
from hsdual.operators import OperatorKind, classify, in_kind, loewner_leq, pos_neg_split, sa_components

_REALS = st.one_of(
    st.builds(lambda sign, k: sign * 2.0**k, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_ENTRIES = st.one_of(_REALS, st.builds(complex, _REALS, _REALS))
_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (0, 0), (0, 3), (2, 3), (3, 2), (2,), (0,), (), (1, 2, 2)]
_NOT_NUMBERS = [object(), {}, {"dim": 2}, "abc", "1", "", None, [[1, "a"], [0, 1]], [[object()]], [[1, 2], [3]]]


@st.composite
def _matrices(draw):
    shape = draw(st.sampled_from(_SHAPES))
    size = math.prod(shape)
    A = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size)), dtype=np.complex128).reshape(shape)
    if len(shape) == 2 and shape[0] == shape[1] and draw(st.booleans()):
        # Hermitian: the upper triangle mirrored, on a real diagonal
        A = np.triu(A, 1) + np.triu(A, 1).conj().T + np.diag(A.diagonal().real)
    return A


_ARGUMENTS = st.one_of(_matrices(), st.sampled_from(_NOT_NUMBERS))
_KINDS = st.sampled_from([*OperatorKind, "Positive", None])
_TOLS = st.sampled_from([1e-9, 1e-300, 0.5, 1e300])

_CALLS = {
    "classify": lambda A, B, kind, tol: classify(A, tol),
    "in_kind": lambda A, B, kind, tol: in_kind(A, kind, tol),
    "loewner_leq": lambda A, B, kind, tol: loewner_leq(A, B, tol),
    "pos_neg_split": lambda A, B, kind, tol: pos_neg_split(A, tol),
    "sa_components": lambda A, B, kind, tol: sa_components(A),
}


@pytest.mark.parametrize("name", list(_CALLS))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(A=_ARGUMENTS, B=_ARGUMENTS, kind=_KINDS, tol=_TOLS)
def test_operator_entry_points_return_or_raise_their_documented_errors(name, A, B, kind, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _CALLS[name](A, B, kind, tol)
        except (LinalgError, ValueError):
            pass
