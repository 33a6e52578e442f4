"""Huge, tiny and infinite entries and overflowing residuals, held to a verdict.

Every case here runs with all warnings raised as errors: a matrix whose
entries are finite but near the top of the float range must get a correct
answer or a documented exception, never a RuntimeWarning or a NaN that
slips through a ``> tol`` test.  The last cases pin that a kind check forms
the Hermiticity residual once, inside hermitian_eig.
"""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hsdual import linalg
from hsdual.cli import main
from hsdual.duality import ContractViolation, Functional, hs_forward, hs_inverse, naturality_check
from hsdual.free import (
    ComplexPair,
    Difference,
    c_iso_sa_b,
    r_equiv,
    r_iso_pos_sa,
    s_add,
    s_iso_pos_dm,
    s_point,
    s_smul,
)
from hsdual.free import WeightedPoint, c_iso_b_sa, r_add, r_iso_sa_pos, r_smul, s_iso_dm_pos
from hsdual.free import c_add, c_smul
from hsdual.linalg import DimensionMismatch
from hsdual.linalg import LinalgError, NotHermitian, approx_eq, identity, is_hermitian
from hsdual.operators import (
    NotPositive,
    OperatorKind,
    classify,
    in_kind,
    loewner_leq,
    projector_onto,
)
from hsdual.effect import law_suite, make_effects, make_powerset, make_projections, make_unit_interval
from hsdual.operators import sample, sample_unitary
from hsdual.wp import InvalidChannel, apply_channel, super_channel, to_super, unitary_channel, wp

from conftest import mat

HUGE = mat([[1e308, 0], [0, 1e308]])
HUGE_UNITARY = [[1e308 + 1e308j, 1e308], [1e308, -1e308j]]


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_unitary_channel_refuses_a_matrix_whose_residual_is_nan():
    with pytest.raises(InvalidChannel, match="not unitary"):
        unitary_channel(HUGE_UNITARY)


def test_classify_a_huge_diagonal_without_overflowing_its_trace():
    report = classify(HUGE)
    assert report.kinds == (OperatorKind.BOUNDED, OperatorKind.SELF_ADJOINT, OperatorKind.POSITIVE)
    assert report.eigenvalues == (1e308, 1e308)


def test_a_trace_beyond_the_float_range_is_not_a_density():
    assert not in_kind(HUGE, OperatorKind.DENSITY)


def test_loewner_order_across_the_whole_float_range():
    low, high = mat([[-1e308, 0], [0, 0]]), mat([[1e308, 0], [0, 0]])
    assert loewner_leq(low, high)
    assert not loewner_leq(high, low)


def test_s_iso_pos_dm_refuses_a_trace_beyond_the_float_range():
    with pytest.raises(LinalgError, match="float range"):
        s_iso_pos_dm(HUGE)


def test_approx_eq_reads_an_overflowing_difference_as_unequal():
    assert not approx_eq(mat([[-1e308, 0], [0, 0]]), mat([[1e308, 0], [0, 0]]))


@pytest.mark.parametrize(
    "kind", [OperatorKind.BOUNDED, OperatorKind.SELF_ADJOINT, OperatorKind.POSITIVE]
)
def test_hs_inverse_names_a_spot_value_beyond_the_float_range(kind):
    # tr(A B) is beyond the float range on the spot probes
    with pytest.raises(ContractViolation, match="non-finite value"):
        hs_inverse(kind, hs_forward(kind, HUGE))


def test_hs_inverse_refuses_a_reconstruction_that_overflows():
    # finite values, but f(e_0) + f(e_1) overflows where the off-diagonal entry is read off
    def f(B):
        return 1e308 if np.count_nonzero(B) == 1 else complex(np.trace(B))

    with pytest.raises(ContractViolation, match="disagrees"):
        hs_inverse(OperatorKind.SELF_ADJOINT, Functional(OperatorKind.SELF_ADJOINT, 2, f))


@pytest.mark.parametrize(
    "column, expected",
    [
        ([1e308, 1e308], [[0.5, 0.5], [0.5, 0.5]]),
        ([1e-200, 0], [[1, 0], [0, 0]]),
        ([5e-324, 0], [[1, 0], [0, 0]]),
    ],
    ids=["huge", "tiny", "subnormal"],
)
def test_projector_onto_a_vector_at_the_ends_of_the_float_range(column, expected):
    assert approx_eq(projector_onto(column), mat(expected), 1e-15)


def test_an_infinite_entry_is_neither_hermitian_nor_equal():
    inf = mat([[np.inf]])
    assert not is_hermitian(inf)
    assert not approx_eq(inf, inf)
    with pytest.raises(NotHermitian):
        c_iso_sa_b(ComplexPair(inf, mat([[0]])))


def test_naturality_check_reports_an_overflow_as_a_failing_residual():
    residual = naturality_check(1e200 * identity(2), identity(2), identity(2))
    assert not residual <= 1e-9


@pytest.mark.parametrize("wrap", [float, lambda x: x * identity(2)], ids=["scalar", "matrix"])
def test_r_equiv_of_huge_components_does_not_overflow_its_cross_sums(wrap):
    p = Difference(wrap(1e308), wrap(1e308))
    assert r_equiv(p, p)
    assert not r_equiv(p, Difference(wrap(1e308), wrap(0.0)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: s_add(s_point(1e308, 1.0), s_point(1e308, 2.0)),
        lambda: s_smul(1e308, s_point(10.0, 1.0)),
        lambda: s_point(float("inf"), 1.0),
    ],
    ids=["s_add", "s_smul", "s_point"],
)
def test_a_weight_beyond_the_float_range_is_refused(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("column", [[np.inf, 0], [np.nan, 1], [1, complex(0, -np.inf)]])
def test_projector_onto_refuses_a_non_finite_vector(column):
    with pytest.raises(ValueError, match="infinite or NaN"):
        projector_onto(column)


@pytest.mark.parametrize("part", [np.inf, np.nan, -np.inf])
def test_a_difference_of_non_finite_scalars_is_not_positive(part):
    with pytest.raises(NotPositive, match="finite"):
        r_iso_pos_sa(Difference(part, part))


@pytest.mark.parametrize(
    "pair",
    [ComplexPair("a", 0.0), ComplexPair(0.0, None), ComplexPair(np.inf, 0.0), ComplexPair(1.0, np.nan)],
    ids=["string", "none", "inf", "nan"],
)
def test_a_complex_pair_of_non_finite_or_non_numeric_scalars_is_not_hermitian(pair):
    with pytest.raises(NotHermitian, match="finite real"):
        c_iso_sa_b(pair)


def test_cli_classifies_a_huge_diagonal_quietly(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 2, "data": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}))
    assert main(["classify", "--matrix", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["kinds"] == ["Bounded", "SelfAdjoint", "Positive"]
    assert captured.err == ""


def test_cli_wp_refuses_a_huge_non_unitary_channel(capsys, tmp_path):
    data = [[z.real, z.imag] for z in map(complex, sum(HUGE_UNITARY, []))]
    channel = tmp_path / "huge-unitary.json"
    channel.write_text(json.dumps({"type": "unitary", "matrix": {"dim": 2, "data": data}}))
    effect = tmp_path / "p0.json"
    effect.write_text(json.dumps({"dim": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    assert main(["wp", "--channel", str(channel), "--effect", str(effect)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid channel:")


@pytest.fixture
def residuals(monkeypatch):
    """A list that grows by one per Hermiticity residual formed."""
    seen = []
    residual = linalg._hermiticity_residual

    def counted(A):
        seen.append(A.shape)
        return residual(A)

    monkeypatch.setattr(linalg, "_hermiticity_residual", counted)
    return seen


def test_classify_forms_the_hermiticity_residual_once(residuals):
    classify(mat([[0.5, 0.1], [0.1, 0.5]]))
    assert len(residuals) == 1


@pytest.mark.parametrize("kind", [OperatorKind.POSITIVE, OperatorKind.EFFECT, OperatorKind.DENSITY])
def test_spectral_kind_checks_form_the_hermiticity_residual_once(residuals, kind):
    assert in_kind(mat([[0.5, 0.1], [0.1, 0.5]]), kind)
    assert len(residuals) == 1


def test_s_iso_dm_pos_refuses_a_product_beyond_the_float_range():
    with pytest.raises(LinalgError, match="float range"):
        s_iso_dm_pos(s_point(1e308, mat([[2, 0], [0, 0]])), 2)


def test_s_add_of_numpy_weights_refuses_their_overflowing_sum_quietly():
    u = WeightedPoint(np.float64(1e308), 1.0)
    with pytest.raises(ValueError, match="finite"):
        s_add(u, u)


def test_s_smul_of_a_numpy_weight_refuses_its_overflowing_product_quietly():
    with pytest.raises(ValueError, match="finite"):
        s_smul(10.0, WeightedPoint(np.float64(1e308), 1.0))


@pytest.mark.parametrize("wrap", [float, lambda x: x * identity(2)], ids=["scalar", "matrix"])
@pytest.mark.parametrize("r", [1e308, -1e308])
def test_r_smul_refuses_a_component_beyond_the_float_range(wrap, r):
    with pytest.raises(LinalgError, match="float range"):
        r_smul(r, Difference(wrap(10.0), wrap(0.0)))


@pytest.mark.parametrize("wrap", [float, lambda x: x * identity(2)], ids=["scalar", "matrix"])
def test_r_add_refuses_a_component_beyond_the_float_range(wrap):
    huge = Difference(wrap(1e308), wrap(0.0))
    with pytest.raises(LinalgError, match="float range"):
        r_add(huge, huge)


_NOT_FINITE_SCALARS = ["3", np.nan, np.inf, -np.inf, [[1]]]


@pytest.mark.parametrize("a", _NOT_FINITE_SCALARS, ids=["string", "nan", "inf", "-inf", "nested"])
def test_r_iso_sa_pos_refuses_what_r_iso_pos_sa_refuses(a):
    with pytest.raises(NotPositive, match="finite real"):
        r_iso_sa_pos(a)
    with pytest.raises(NotPositive, match="finite"):
        r_iso_pos_sa(Difference(a, 0.0))


@pytest.mark.parametrize(
    "z",
    [*_NOT_FINITE_SCALARS, complex(0, np.inf), complex(1, np.nan)],
    ids=["string", "nan", "inf", "-inf", "nested", "inf-imag", "nan-imag"],
)
def test_c_iso_b_sa_refuses_a_scalar_that_is_not_a_finite_number(z):
    with pytest.raises(NotHermitian, match="finite number"):
        c_iso_b_sa(z)


# --- exact scalars beyond the float range -------------------------------------
#
# An int or Fraction compares below math.inf however large it is, but float()
# of it overflows; each iso names it with its documented error instead.

BEYOND_FLOATS = 10**400


@pytest.mark.parametrize("a", [BEYOND_FLOATS, Fraction(BEYOND_FLOATS, 3)], ids=["int", "Fraction"])
def test_r_iso_sa_pos_refuses_an_exact_scalar_beyond_the_float_range(a):
    with pytest.raises(NotPositive, match="finite real"):
        r_iso_sa_pos(a)


@pytest.mark.parametrize(
    "p", [Difference(BEYOND_FLOATS, 0.0), Difference(0.0, BEYOND_FLOATS)], ids=["pos", "neg"]
)
def test_r_iso_pos_sa_refuses_a_component_beyond_the_float_range(p):
    with pytest.raises(NotPositive, match="finite nonnegative"):
        r_iso_pos_sa(p)


def test_c_iso_b_sa_refuses_an_exact_scalar_beyond_the_float_range():
    with pytest.raises(NotHermitian, match="finite number"):
        c_iso_b_sa(BEYOND_FLOATS)


@pytest.mark.parametrize(
    "pair", [ComplexPair(BEYOND_FLOATS, 0), ComplexPair(0, BEYOND_FLOATS)], ids=["re", "im"]
)
def test_c_iso_sa_b_refuses_a_component_beyond_the_float_range(pair):
    with pytest.raises(NotHermitian, match="finite real"):
        c_iso_sa_b(pair)


def test_an_int_too_long_to_print_is_named_by_its_type():
    # repr refuses an int of more than 4,300 digits with a ValueError
    with pytest.raises(NotPositive, match="^scalar <int, too long to show> is not a finite real"):
        r_iso_sa_pos(10**5000)


# --- operands of mismatched shape ---------------------------------------------
#
# NumPy would broadcast a (1, 1) matrix or a scalar against an n x n one; each
# entry point refuses the pair as approx_eq does.

ONE, THREE = identity(1), identity(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: loewner_leq(np.zeros((1, 1)), np.eye(3)),
        lambda: r_iso_pos_sa(Difference(np.eye(1), np.zeros((3, 3)))),
        lambda: r_iso_pos_sa(Difference(np.eye(2), 1.0)),
        lambda: c_iso_sa_b(ComplexPair(THREE, ONE)),
        lambda: c_iso_sa_b(ComplexPair(0.5, identity(2))),
        lambda: r_equiv(Difference(THREE, 0 * THREE), Difference(THREE, 0 * ONE)),
        lambda: r_add(Difference(THREE, THREE), Difference(ONE, ONE)),
        lambda: c_add(ComplexPair(THREE, THREE), ComplexPair(ONE, ONE)),
        lambda: s_add(s_point(1.0, THREE / 3), s_point(1.0, ONE)),
    ],
    ids=[
        "loewner_leq", "r_iso_pos_sa-1x1", "r_iso_pos_sa-scalar", "c_iso_sa_b-1x1",
        "c_iso_sa_b-scalar", "r_equiv", "r_add", "c_add", "s_add",
    ],
)
def test_operands_of_mismatched_shape_are_refused(call):
    with pytest.raises(DimensionMismatch, match="shape mismatch"):
        call()


def test_a_component_check_comes_before_the_shape_check():
    # a non-positive 1 x 1 part is named as such, whatever the other part's shape
    with pytest.raises(NotPositive):
        r_iso_pos_sa(Difference(-ONE, THREE))
    with pytest.raises(NotHermitian):
        c_iso_sa_b(ComplexPair(THREE, mat([[0, 1], [0, 0]])))
    with pytest.raises(DimensionMismatch):  # as_matrix's own refusal of a non-square A
        loewner_leq(np.zeros((1, 2)), THREE)


# --- ints beyond the float range in the free arithmetic -------------------------


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: r_smul(0.5, Difference(BEYOND_FLOATS, 0)), LinalgError),
        (lambda: r_add(Difference(BEYOND_FLOATS, 0), Difference(0.5, 0.0)), LinalgError),
        (lambda: c_smul(1j, ComplexPair(BEYOND_FLOATS, 0)), LinalgError),
        (lambda: c_add(ComplexPair(BEYOND_FLOATS, 0), ComplexPair(0.5, 0)), LinalgError),
        (lambda: s_point(BEYOND_FLOATS, 1.0), ValueError),
        (lambda: s_smul(BEYOND_FLOATS, s_point(1.0, 1.0)), ValueError),
        (lambda: WeightedPoint(BEYOND_FLOATS, 1.0), ValueError),
    ],
    ids=["r_smul", "r_add", "c_smul", "c_add", "s_point", "s_smul", "WeightedPoint"],
)
def test_free_arithmetic_names_an_int_beyond_the_float_range(call, error):
    with pytest.raises(error, match="float range|finite"):
        call()


def test_c_smul_refuses_a_matrix_product_beyond_the_float_range():
    with pytest.raises(LinalgError, match="float range"):
        c_smul(1e308 + 1e308j, ComplexPair(HUGE, HUGE))


def test_r_equiv_judges_an_int_beyond_the_float_range_exactly():
    assert not r_equiv(Difference(BEYOND_FLOATS, 0), Difference(0.5, 0))
    assert not r_equiv(Difference(BEYOND_FLOATS, 0.0), Difference(0.5, 0.0))
    assert r_equiv(Difference(BEYOND_FLOATS, 0.5), Difference(BEYOND_FLOATS + Fraction(1, 2), 1.0))
    assert not r_equiv(Difference(BEYOND_FLOATS, 0), Difference(np.inf, 0))
    assert not r_equiv(Difference(BEYOND_FLOATS, 0), Difference(np.nan, 0))


# --- arithmetic on components that are not numbers ------------------------------


@pytest.mark.parametrize("x", ["a", None, [[1]], np.array(["a"])], ids=["str", "None", "nested", "str-array"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: r_add(Difference(x, 0.0), Difference(0.5, 0.0)),
        lambda x: r_smul(0.5, Difference(0.5, x)),
        lambda x: c_add(ComplexPair(0.5, 0.0), ComplexPair(0.5, x)),
        lambda x: c_smul(1j, ComplexPair(x, 0.5)),
    ],
    ids=["r_add", "r_smul", "c_add", "c_smul"],
)
def test_free_arithmetic_names_a_component_that_is_no_number(call, x):
    with pytest.raises(LinalgError, match="is neither an array of numbers nor a finite number") as exc:
        call(x)
    assert str(exc.value).startswith(repr(x))


# --- matrix arguments that are no finite numbers, and seeds ---------------------

_IDENTITY_CHANNEL = unitary_channel(identity(2))


@pytest.mark.parametrize("bad", [object(), {}, [[float("nan")]]], ids=["object", "dict", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        unitary_channel,
        lambda A: apply_channel(_IDENTITY_CHANNEL, A),
        lambda A: wp(_IDENTITY_CHANNEL, A),
        lambda A: hs_forward(OperatorKind.EFFECT, A),
    ],
    ids=["unitary_channel", "apply_channel", "wp", "hs_forward"],
)
def test_a_matrix_argument_that_is_no_finite_numbers_is_a_value_error(call, bad):
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        call(bad)


@pytest.mark.parametrize(
    "bad", [object(), {}, [[1, 2], [3]], [[10**400]]], ids=["object", "dict", "ragged", "huge-int"]
)
def test_a_superoperator_that_is_no_finite_numbers_is_an_invalid_channel(bad):
    with pytest.raises(InvalidChannel, match="finite numbers"):
        super_channel(1, 1, bad)


_SEEDED = {
    "sample": lambda seed: sample(OperatorKind.DENSITY, 2, seed),
    "sample_unitary": lambda seed: sample_unitary(2, seed),
    "super_channel": lambda seed: super_channel(2, 2, to_super(_IDENTITY_CHANNEL), seed=seed),
    "law_suite": lambda seed: law_suite(make_unit_interval(3), seed=seed),
}


@pytest.mark.parametrize("seed", [None, True, 1.5, "3", -1, np.int64(-2)], ids=repr)
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_a_seed_that_is_no_nonnegative_integer_is_a_value_error(name, seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("seed", [0, np.int64(7), np.uint64(2**64 - 1), 2**64 + 5], ids=repr)
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_numpy_and_large_integer_seeds_replay(name, seed):
    first, again = _SEEDED[name](seed), _SEEDED[name](int(seed))
    if name == "super_channel":
        first, again = to_super(first), to_super(again)
    assert np.array_equal(first, again) if isinstance(first, np.ndarray) else first == again


def test_a_law_report_of_a_numpy_seed_is_json():
    report = law_suite(make_unit_interval(3), seed=np.int64(3))
    assert json.loads(json.dumps(report.to_json())) == law_suite(make_unit_interval(3), seed=3).to_json()


@pytest.mark.parametrize("seed", [None, True, 1.5, -1], ids=repr)
@pytest.mark.parametrize("make", [make_unit_interval, make_powerset, make_effects, make_projections])
def test_a_stock_sampler_refuses_a_seed_that_is_no_nonnegative_integer(make, seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        make(2).sampler(seed)
