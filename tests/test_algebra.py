"""Formal sums: exact semiring arithmetic, monad structure, carriers."""

import os
import pickle
import subprocess
import sys
import time
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hsdual
from hsdual import algebra
from hsdual.algebra import (
    QC,
    CoefficientOverflow,
    FormalSum,
    NotDistribution,
    Semiring,
    SemiringMismatch,
    convex_state_carrier,
    flatten,
    fmap,
    formal_sum,
    interpret,
    matrix_module_carrier,
    monad_law_suite,
    scale,
    unit,
    unit_interval_carrier,
)
from hsdual.linalg import approx_eq, identity
from hsdual.operators import OperatorKind, classify, sample

from conftest import mat

R = Semiring.RATIONAL
NN = Semiring.NONNEG_RATIONAL
CX = Semiring.COMPLEX_RATIONAL
UI = Semiring.UNIT_INTERVAL


# --- construction and normal form ------------------------------------------------


def test_formal_sum_merges_and_drops_zeros():
    s = formal_sum(R, [("x", 2), ("y", 0), ("x", 3)])
    assert s.terms == (("x", Fraction(5)),)
    assert s.coeff("y") == 0


def test_formal_sum_is_canonically_ordered():
    a = formal_sum(R, [("x", 1), ("y", 2)])
    b = formal_sum(R, [("y", 2), ("x", 1)])
    assert a == b


def test_unit_is_singleton_with_coefficient_one():
    s = unit("x", R)
    assert s.terms == (("x", Fraction(1)),)
    assert unit("x", UI, distribution=True).distribution


def test_distribution_flag_requires_exact_sum_one():
    d = formal_sum(UI, [("x", Fraction(1, 3)), ("y", Fraction(2, 3))], distribution=True)
    assert d.total() == 1
    with pytest.raises(NotDistribution):
        formal_sum(UI, [("x", Fraction(1, 3))], distribution=True)
    with pytest.raises(NotDistribution):
        formal_sum(R, [("x", 1)], distribution=True)


def test_unit_interval_coefficients_are_range_checked():
    with pytest.raises(CoefficientOverflow):
        formal_sum(UI, [("x", Fraction(3, 2))])
    with pytest.raises(CoefficientOverflow):
        formal_sum(UI, [("x", Fraction(2, 3)), ("x", Fraction(2, 3))])


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: formal_sum(UI, [("x", Fraction(9, 8))]), CoefficientOverflow),
        (lambda: formal_sum(UI, [("x", 2)]), CoefficientOverflow),
        (lambda: formal_sum(UI, [("x", Fraction(-1, 8))]), CoefficientOverflow),
        (lambda: formal_sum(NN, [("x", Fraction(-1, 3))]), ValueError),
        (lambda: formal_sum(UI, [("x", _HALF), ("x", Fraction(4, 7))]), CoefficientOverflow),
        (lambda: formal_sum(UI, [("x", _THIRD), ("y", _THIRD)], distribution=True), NotDistribution),
        (lambda: formal_sum(UI, [("x", _HALF)], distribution=True), NotDistribution),
        (lambda: formal_sum(UI, [("x", _HALF), ("y", Fraction(4, 7))], distribution=True), NotDistribution),
        (lambda: formal_sum(UI, [], distribution=True), NotDistribution),
        (lambda: formal_sum(R, [("x", QC(Fraction(1), Fraction(1, 2)))]), ValueError),
        (lambda: formal_sum(UI, [("x", QC(Fraction(1, 2), Fraction(-1)))]), ValueError),
        (lambda: flatten(FormalSum(UI, ((unit("x", UI), 3),))), CoefficientOverflow),
    ],
    ids=[
        "unit-interval-above-1",
        "unit-interval-int-above-1",
        "unit-interval-below-0",
        "nonneg-negative",
        "unit-interval-merged-sum-above-1",
        "distribution-two-thirds",
        "distribution-one-half",
        "distribution-above-1",
        "empty-distribution",
        "imaginary-in-rational",
        "imaginary-in-unit-interval",
        "direct-sum-coefficient-3-flattened",
    ],
)
def test_coefficient_validation_rejects(build, error):
    with pytest.raises(error):
        build()


def test_coefficient_validation_accepts_the_bounds():
    assert formal_sum(UI, [("x", 0), ("y", 1)]).terms == (("y", Fraction(1)),)
    assert formal_sum(UI, [("x", _HALF), ("x", _HALF)]).coeff("x") == 1
    assert formal_sum(UI, [("x", _THIRD), ("y", Fraction(2, 3))], distribution=True).total() == 1
    assert formal_sum(NN, [("x", 0), ("y", Fraction(7, 3))]).coeff("y") == Fraction(7, 3)
    assert formal_sum(R, [("x", QC(Fraction(-2), Fraction(0)))]).coeff("x") == -2
    assert flatten(FormalSum(UI, ((unit("x", UI), Fraction(1)),))) == unit("x", UI)


@pytest.mark.parametrize("semiring", [R, NN, CX, UI], ids=lambda s: s.value)
@pytest.mark.parametrize(
    "coeff", [None, [1], float("inf"), complex(1, float("inf"))], ids=["None", "list", "inf", "inf-imag"]
)
def test_a_coefficient_fraction_refuses_raises_value_error(semiring, coeff):
    with pytest.raises(ValueError, match="not a rational number"):
        formal_sum(semiring, [("x", coeff)])


def test_nonneg_semiring_rejects_negative():
    with pytest.raises(ValueError):
        formal_sum(NN, [("x", -1)])


def test_complex_coefficients_via_qc():
    s = formal_sum(CX, [("x", QC(Fraction(1), Fraction(2))), ("x", 1j)])
    assert s.coeff("x") == QC(Fraction(1), Fraction(3))
    assert complex(s.coeff("x")) == 1 + 3j


def test_qc_arithmetic():
    a = QC(Fraction(1), Fraction(1))
    b = QC(Fraction(0), Fraction(1))
    assert a * b == QC(Fraction(-1), Fraction(1))  # (1+i)*i = -1+i
    assert a + b == QC(Fraction(1), Fraction(2))
    assert not QC(Fraction(0), Fraction(0))


# parts that are zero half the time, so the real fast paths and the general
# formulas both run
_QC_PART = st.just(Fraction(0)) | st.fractions(min_value=-8, max_value=8, max_denominator=12)
_QCS = st.builds(QC, _QC_PART, _QC_PART)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(a=_QCS, b=_QCS)
def test_qc_sum_and_product_follow_the_general_formulas(a, b):
    assert a + b == QC(a.re + b.re, a.im + b.im)
    assert a * b == QC(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    for z in (a + b, a * b):
        assert type(z.re) is Fraction and type(z.im) is Fraction


# --- fmap / flatten / scale -------------------------------------------------------


def test_fmap_collapses_colliding_images():
    s = formal_sum(R, [("x", 2), ("y", 3)])
    assert fmap(lambda _: "z", s) == formal_sum(R, [("z", 5)])


def test_fmap_identity_and_unit_naturality():
    s = formal_sum(R, [("x", 2), ("y", 3)])
    assert fmap(lambda k: k, s) == s
    assert fmap(str.upper, unit("x", R)) == unit("X", R)


def test_fmap_preserves_distribution():
    d = formal_sum(UI, [("x", Fraction(1, 2)), ("y", Fraction(1, 2))], distribution=True)
    assert fmap(lambda _: "z", d) == formal_sum(UI, [("z", 1)], distribution=True)


def test_flatten_multiplies_through():
    inner = formal_sum(R, [("x", 1), ("y", 3)])
    outer = formal_sum(R, [(inner, 2)])
    assert flatten(outer) == formal_sum(R, [("x", 2), ("y", 6)])


def test_flatten_unit_law():
    s = formal_sum(R, [("x", 2), ("y", -1)])
    assert flatten(unit(s, R)) == s


def test_flatten_convex_point_masses():
    px, py = unit("x", UI, True), unit("y", UI, True)
    outer = formal_sum(UI, [(px, Fraction(1, 2)), (py, Fraction(1, 2))], distribution=True)
    out = flatten(outer)
    assert out == formal_sum(
        UI, [("x", Fraction(1, 2)), ("y", Fraction(1, 2))], distribution=True
    )
    assert out.distribution and out.total() == 1


def test_flatten_rejects_non_sum_keys_and_mixed_semirings():
    with pytest.raises(SemiringMismatch):
        flatten(formal_sum(R, [("not-a-sum", 1)]))
    inner = formal_sum(NN, [("x", 1)])
    with pytest.raises(SemiringMismatch):
        flatten(formal_sum(R, [(inner, 1)]))


def test_scale_drops_distribution_unless_unit_factor():
    d = formal_sum(UI, [("x", Fraction(1, 2)), ("y", Fraction(1, 2))], distribution=True)
    assert scale(Fraction(1), d).distribution
    assert not scale(Fraction(1, 2), d).distribution


# --- interpret --------------------------------------------------------------------


def test_interpret_matrix_module():
    env = {"a": mat([[1, 0], [0, 0]]), "b": mat([[0, 0], [0, 1]])}
    carrier = matrix_module_carrier(2, env)
    out = interpret(carrier, formal_sum(R, [("a", 2), ("b", 1)]))
    assert approx_eq(out, mat([[2, 0], [0, 1]]), 1e-12)


def test_interpret_empty_sum_is_module_zero():
    carrier = matrix_module_carrier(2, {})
    assert approx_eq(interpret(carrier, formal_sum(R, [])), np.zeros((2, 2)), 0.0)


def test_interpret_convex_densities(p0, p1):
    carrier = convex_state_carrier({"p0": p0, "p1": p1})
    d = formal_sum(UI, [("p0", Fraction(1, 2)), ("p1", Fraction(1, 2))], distribution=True)
    assert approx_eq(interpret(carrier, d), identity(2) / 2, 1e-12)


def test_interpret_unit_recovers_element(p0):
    carrier = convex_state_carrier({"p0": p0})
    assert approx_eq(interpret(carrier, unit("p0", UI, True)), p0, 0.0)


def test_interpret_convex_requires_distribution(p0):
    carrier = convex_state_carrier({"p0": p0})
    with pytest.raises(NotDistribution):
        interpret(carrier, formal_sum(UI, [("p0", Fraction(1, 2))]))


def test_interpret_module_requires_matching_semiring():
    carrier = matrix_module_carrier(2, {"a": identity(2)})
    with pytest.raises(SemiringMismatch):
        interpret(carrier, formal_sum(NN, [("a", 1)]))


def test_interpret_algebra_law_against_flatten():
    # interpret(flatten(t)) must equal interpreting layer by layer
    env = {"a": mat([[1, 2], [0, 1]]), "b": mat([[0, 1], [1, 0]]), "c": identity(2)}
    carrier = matrix_module_carrier(2, env)
    inner1 = formal_sum(R, [("a", 1), ("b", 2)])
    inner2 = formal_sum(R, [("c", -1)])
    nested = formal_sum(R, [(inner1, 2), (inner2, 3)])
    via_flatten = interpret(carrier, flatten(nested))
    layered = sum(float(c) * interpret(carrier, inner) for inner, c in nested.terms)
    assert approx_eq(via_flatten, layered, 1e-12)


def test_sampled_convex_combinations_of_densities_are_densities():
    rng = np.random.default_rng(41)
    for trial in range(10):
        rhos = {f"r{i}": sample(OperatorKind.DENSITY, 3, int(rng.integers(0, 2**62))) for i in range(3)}
        weights = [Fraction(int(rng.integers(1, 5)), 1) for _ in range(3)]
        total = sum(weights)
        d = formal_sum(
            UI, [(k, w / total) for k, w in zip(rhos, weights)], distribution=True
        )
        out = interpret(convex_state_carrier(rhos), d)
        assert classify(out).has(OperatorKind.DENSITY), trial


def test_unit_interval_carrier_evaluates_to_floats():
    carrier = unit_interval_carrier()
    d = formal_sum(
        UI,
        [(Fraction(0), Fraction(1, 4)), (Fraction(1), Fraction(3, 4))],
        distribution=True,
    )
    assert abs(interpret(carrier, d) - 0.75) < 1e-15


# --- law suite --------------------------------------------------------------------


def test_monad_law_suite_is_clean():
    result = monad_law_suite()
    assert result["violations"] == []
    assert result["checked"] > 1000
    # unit-interval partiality: some nested sums overflow [0,1] and are skipped
    assert result["skipped"] > 0



# --- the monad suite against a reference under planted bugs -----------------------
#
# A plain re-statement of monad_law_suite: the grid sums and capped pools are
# enumerated in full, and every law is evaluated afresh for every sum, with
# no value shared between sums, through the module-level unit, fmap and
# flatten so that a monkeypatched bug reaches both sides.
# monad_law_suite may share work within a configuration, but for every pure
# unit and flatten its result (counts, and violations in order and
# multiplicity) must equal this one.


def _reference_grid_sums(semiring, supports, distribution):
    grid = algebra._grid_for(semiring)
    return [
        formal_sum(semiring, zip(support, coeffs), distribution)
        for support in supports
        for coeffs in product(grid, repeat=len(support))
        if not distribution or sum(coeffs, Fraction(0)) == 1
    ]


def _reference_pool(semiring, base, distribution, cap):
    """The first ``cap`` distinct sums over one or two distinct base elements."""
    base = list(dict.fromkeys(base))
    supports = [(x,) for x in base] + list(combinations(base, 2))
    return list(dict.fromkeys(_reference_grid_sums(semiring, supports, distribution)))[:cap]


def _reference_monad_law_suite(max_carrier=3):
    checked = skipped = 0
    violations = []
    configs = [(s, False) for s in Semiring] + [(UI, True)]
    for semiring, distribution in configs:

        def record(law, culprit):
            violations.append({"semiring": semiring.value, "law": law, "sum": repr(culprit)})

        for size in range(1, max_carrier + 1):
            level1 = _reference_grid_sums(semiring, [tuple("abc"[:size])], distribution)
            for s in level1:
                checked += 1
                if algebra.flatten(algebra.unit(s, semiring, distribution)) != s:
                    record("flatten-unit-outer", s)
                inner_units = algebra.fmap(lambda x: algebra.unit(x, semiring, distribution), s)
                if algebra.flatten(inner_units) != s:
                    record("flatten-unit-inner", s)
            pool2 = _reference_pool(semiring, level1[:6], distribution, cap=8)
            for t in _reference_pool(semiring, pool2, distribution, cap=64):
                try:
                    lhs = algebra.flatten(algebra.flatten(t))
                    rhs = algebra.flatten(algebra.fmap(algebra.flatten, t))
                except CoefficientOverflow:
                    skipped += 1
                    continue
                checked += 1
                if lhs != rhs:
                    record("flatten-associativity", t)
    return {"checked": checked, "skipped": skipped, "violations": violations}


_FLATTEN, _UNIT = algebra.flatten, algebra.unit


def _flatten_dropping_a_term(ss):
    # the last term of every inner sum with two or more terms goes missing
    trimmed = [(inner, c) for inner, c in ss.terms]
    for i, (inner, c) in enumerate(trimmed):
        if isinstance(inner, FormalSum) and len(inner) >= 2:
            trimmed[i] = (FormalSum(inner.semiring, inner.terms[:-1]), c)
    return _FLATTEN(FormalSum(ss.semiring, tuple(trimmed), ss.distribution))


def _flatten_keeping_the_first_of_a_collision(ss):
    # colliding keys keep their first product instead of adding up; the
    # result keeps the distribution flag while its coefficients sum to 1.
    # Only the distribution configuration's double sums collide two
    # multi-term sums, so that is where the suite sees this bug.
    out = {}
    for inner, c in ss.terms:
        for key, d in inner.terms:
            out.setdefault(key, c * d)
    merged = formal_sum(ss.semiring, out.items())
    flag = _FLATTEN(ss).distribution and merged.total() == 1
    return FormalSum(merged.semiring, merged.terms, flag)


def _flatten_overflowing_on_doubled_singletons(ss):
    # a spurious overflow on 2|s> for a one-term s whose coefficient is not
    # 1: the inner flatten of a double sum meets it where its outer flatten
    # need not, and the unit laws never do
    if len(ss) == 1:
        ((inner, c),) = ss.terms
        if c == 2 and len(inner) == 1 and inner.terms[0][1] != 1:
            raise CoefficientOverflow("planted")
    return _FLATTEN(ss)


def _flatten_losing_the_flag(ss):
    out = _FLATTEN(ss)
    return FormalSum(out.semiring, out.terms, False) if len(out) == 1 else out


def _unit_dropping_the_flag_on_b(key, semiring=R, distribution=False):
    return _UNIT(key, semiring, distribution and key != "b")


def _unit_doubling_single_term_sums(key, semiring=R, distribution=False):
    if isinstance(key, FormalSum) and len(key) == 1 and semiring is R:
        return FormalSum(semiring, ((key, Fraction(2)),), distribution)
    return _UNIT(key, semiring, distribution)


_PLANTED = {
    "none": {},
    "flatten-drops-an-inner-term": {"flatten": _flatten_dropping_a_term},
    "flatten-mis-merges-collisions": {"flatten": _flatten_keeping_the_first_of_a_collision},
    "flatten-spurious-overflow": {"flatten": _flatten_overflowing_on_doubled_singletons},
    "flatten-loses-distribution-flag": {"flatten": _flatten_losing_the_flag},
    "unit-drops-flag-on-b": {"unit": _unit_dropping_the_flag_on_b},
    "unit-doubles-single-term-sums": {"unit": _unit_doubling_single_term_sums},
}


@pytest.mark.parametrize("bug", sorted(_PLANTED))
def test_monad_law_suite_matches_reference_under_planted_bugs(monkeypatch, bug):
    for name, planted in _PLANTED[bug].items():
        monkeypatch.setattr(algebra, name, planted)
    got = monad_law_suite()
    assert got == _reference_monad_law_suite()
    if bug == "none":
        assert (got["checked"], got["skipped"], got["violations"]) == (1171, 27, [])
    else:
        # every planted bug is visible: a violation, or a shifted skip count
        assert got["violations"] or got["skipped"] != 27


# --- the pool table -----------------------------------------------------------------


def test_a_clean_run_does_not_hide_a_later_planted_bug(monkeypatch):
    assert monad_law_suite()["violations"] == []  # fills the pool table
    monkeypatch.setattr(algebra, "flatten", _flatten_dropping_a_term)
    got = monad_law_suite()
    assert got["violations"]
    assert got == _reference_monad_law_suite()


def test_repeated_runs_keep_one_pool_entry_per_configuration_and_size():
    for _ in range(3):
        monad_law_suite()
    configs = [(s, False) for s in Semiring] + [(UI, True)]
    sizes = range(1, algebra.MONAD_MAX_CARRIER + 1)
    assert set(algebra._MONAD_POOLS) == {(s, d, n) for s, d in configs for n in sizes}
    assert len(algebra._MONAD_POOLS) == 15


_IMPORT_BUILDS_NO_POOL = """
import sys
sys.path.insert(0, {src!r})
import hsdual, hsdual.cli
from hsdual import algebra
assert algebra._MONAD_POOLS == {{}}, algebra._MONAD_POOLS
"""


def test_a_fresh_import_builds_no_pool():
    src = str(Path(hsdual.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUILDS_NO_POOL.format(src=src)], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()


# --- cached hash and repr -------------------------------------------------------


def _nested_sum():
    """A sum of sums of str keys, so every hash below depends on the str salt."""
    inner = [formal_sum(R, [("a", 1), ("b", Fraction(1, 2))]), unit("c")]
    return formal_sum(R, [(inner[0], 2), (inner[1], Fraction(-1, 3))])


def test_equal_formal_sums_hash_equal():
    a = formal_sum(R, [("a", 1), ("b", Fraction(1, 2))])
    hash(a), repr(a)  # fill a's caches before b exists
    b = formal_sum(R, [("b", Fraction(2, 4)), ("a", 1), ("c", 0)])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    outer = _nested_sum()
    hash(outer)
    assert outer == _nested_sum() and hash(outer) == hash(_nested_sum())
    assert {outer: 1}[_nested_sum()] == 1


_LOOKUP_IN_CHILD = """
import pickle, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_algebra import _nested_sum
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = _nested_sum()
assert loaded == fresh
assert hash(loaded) == hash(fresh)
assert {{fresh: "found"}}[loaded] == "found"
print(hash("a"))
"""


def test_pickled_formal_sum_keys_a_dict_in_another_process():
    outer = _nested_sum()
    hash(outer), repr(outer)  # cached before pickling
    payload = pickle.dumps(outer)
    src = str(Path(hsdual.__file__).resolve().parents[1])
    script = _LOOKUP_IN_CHILD.format(src=src, tests=str(Path(__file__).resolve().parent))
    salts = set()
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=payload,
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        salts.add(proc.stdout.strip())
    # the two children salt str hashes differently, so at least one differs
    # from this process too
    assert len(salts) == 2


# --- the carrier as (semiring, resolve, zero) -------------------------------------


def test_a_carrier_is_a_semiring_a_resolve_map_and_a_zero():
    assert [f.name for f in fields(algebra.AlgebraCarrier)] == ["semiring", "resolve", "zero"]


@pytest.mark.parametrize("semiring", [R, NN, CX])
def test_interpret_in_the_matrix_module_gives_complex_matrices(semiring):
    # a Fraction times an array is an object array; interpret multiplies by float(c)
    env = {"a": identity(2), "b": mat([[0, 1], [1, 0]])}
    s = formal_sum(semiring, [("a", Fraction(1, 3)), ("b", 2)])
    out = interpret(matrix_module_carrier(2, env, semiring), s)
    assert out.dtype == np.complex128
    assert approx_eq(out, mat([[1 / 3, 2], [2, 1 / 3]]), 1e-15)


def test_a_carrier_with_a_zero_is_a_module_and_one_without_is_convex():
    module = algebra.AlgebraCarrier(R, float, 0.0)
    assert interpret(module, formal_sum(R, [])) == 0.0
    assert interpret(module, formal_sum(R, [(Fraction(1, 2), 2), (Fraction(1, 4), -4)])) == 0.0
    convex = algebra.AlgebraCarrier(UI, float)
    with pytest.raises(NotDistribution):
        interpret(convex, formal_sum(UI, [(Fraction(1, 2), Fraction(1, 2))]))
    half = formal_sum(UI, [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))], distribution=True)
    assert interpret(convex, half) == 0.5


# --- the one rule for the exact value of a number ------------------------------


@pytest.mark.parametrize(
    "value, want",
    [
        (0.1, Fraction(1, 10)),
        (np.float32(0.1), Fraction(1, 10)),
        (np.float64(0.1), Fraction(1, 10)),
        (Decimal("0.25"), Fraction(1, 4)),
        ("1/3", Fraction(1, 3)),
        ("2.5e-1", Fraction(1, 4)),
        (np.int64(1), Fraction(1)),
    ],
    ids=repr,
)
def test_a_coefficient_is_read_through_its_decimal_literal(value, want):
    for semiring in (R, NN, UI):
        assert formal_sum(semiring, [("x", value)]).coeff("x") == want
    assert formal_sum(CX, [("x", value)]).coeff("x") == QC(want, Fraction(0))


def test_complex_parts_are_read_through_their_decimal_literals():
    for z in (complex(0.1, 0.2), np.complex64(0.1 + 0.2j), np.complex128(0.1 + 0.2j)):
        assert formal_sum(CX, [("x", z)]).coeff("x") == QC(Fraction(1, 10), Fraction(1, 5))


def test_float_weights_form_an_exact_distribution():
    s = formal_sum(UI, [("a", 0.1), ("b", 0.9)], distribution=True)
    assert s.coeff("a") == Fraction(1, 10) and s.total() == 1
    assert scale(0.5, unit("a", UI)).coeff("a") == Fraction(1, 2)


@pytest.mark.parametrize("semiring", [R, NN, CX, UI], ids=lambda s: s.value)
@pytest.mark.parametrize(
    "value, match",
    [
        (True, "not a rational number"),
        (False, "not a rational number"),
        ("1/0", "not a rational number"),
        ("1ex", "not a rational number"),
        ("1e1001", "too long"),
        ("1e-1000000", "too long"),
        (Decimal("1e-999999999"), "too long"),
        ("0." + "0" * 1000 + "1", "too long"),
    ],
    ids=["True", "False", "1/0", "1ex", "1e1001", "1e-1000000", "huge Decimal", "long string"],
)
def test_a_value_the_rule_refuses_is_a_value_error_at_once(semiring, value, match):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        formal_sum(semiring, [("x", value)])
    with pytest.raises(ValueError, match=match):
        scale(value, unit("x", semiring))
    assert time.perf_counter() - start < 1.0


def test_a_literal_up_to_the_limit_is_parsed():
    assert formal_sum(R, [("x", "1e1000")]).coeff("x") == 10**1000
    assert formal_sum(R, [("x", "1" + "0" * 999)]).coeff("x") == 10**999


@pytest.mark.parametrize(
    "call",
    [
        lambda: formal_sum("rational", [("a", 1)]),
        lambda: formal_sum(None, []),
        lambda: unit("a", "x"),
        lambda: fmap(len, 3),
        lambda: flatten(3),
        lambda: flatten([unit("a")]),
        lambda: scale(1, 3),
    ],
    ids=["formal_sum", "formal_sum None", "unit", "fmap", "flatten", "flatten list", "scale"],
)
def test_an_entry_point_refuses_an_argument_of_another_type_with_value_error(call):
    with pytest.raises(ValueError, match="^(unknown semiring|not a formal sum): "):
        call()


def test_not_distribution_words_a_total_too_long_to_print():
    pairs = [(k, Fraction(1, 10**900 + k)) for k in range(6)]
    with pytest.raises(NotDistribution, match="sum to <Fraction, too long to show>, not 1"):
        formal_sum(UI, pairs, distribution=True)
    with pytest.raises(CoefficientOverflow, match="<Fraction, too long to show> outside"):
        formal_sum(UI, [("x", Fraction(10**5000 + 1, 10**5000))])
