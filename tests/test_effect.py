"""Effect-algebra instances and the axiom hunter.

Each stock instance gets its hand-checked examples plus a full law_suite
pass; a deliberately broken instance (wrong orthosupplement) checks that the
suite actually finds counterexamples instead of rubber-stamping.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import count
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsdual import effect, operators
from hsdual.effect import (
    EffectInstance,
    StackedOps,
    checks_exhaustively,
    law_suite,
    make_effects,
    make_powerset,
    make_projections,
    make_unit_interval,
)
from hsdual.duality import Functional, hs_forward, hs_inverse
from hsdual.linalg import approx_eq, identity, zeros
from hsdual.operators import OperatorKind, sample

from conftest import mat


# --- unit interval -----------------------------------------------------------


def test_interval_partial_sum():
    inst = make_unit_interval()
    assert inst.ovee(Fraction(3, 10), Fraction(2, 5)) == Fraction(7, 10)
    assert inst.ovee(Fraction(3, 5), Fraction(3, 5)) is None
    assert inst.orth(Fraction(3, 10)) == Fraction(7, 10)


def test_interval_universe_enumerates_low_denominators():
    inst = make_unit_interval(max_denominator=8)
    assert Fraction(0) in inst.universe and Fraction(1) in inst.universe
    assert Fraction(3, 7) in inst.universe
    assert all(0 <= x <= 1 for x in inst.universe)


def test_interval_scalar_action():
    inst = make_unit_interval()
    assert inst.scalar_mul(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)


@pytest.mark.parametrize("max_denominator", [0, -1])
def test_interval_rejects_an_empty_carrier(max_denominator):
    # without a denominator the universe would be empty and every law would
    # pass vacuously with checked 0
    with pytest.raises(ValueError):
        make_unit_interval(max_denominator)


def test_interval_sum_is_defined_up_to_exactly_one():
    inst = make_unit_interval()
    assert inst.ovee(Fraction(1, 2), Fraction(1, 2)) == 1
    assert inst.ovee(Fraction(1), Fraction(0)) == 1
    assert inst.ovee(Fraction(1, 2), Fraction(4, 7)) is None
    assert inst.ovee(Fraction(1), Fraction(1, 8)) is None


def test_interval_law_suite_exhaustive():
    report = law_suite(make_unit_interval())
    assert report.all_pass
    # exhaustive over the 23-element universe: 23^2 pairs, 23^3 triples
    assert report.entry("commutativity").checked == 23**2
    assert report.entry("associativity").checked == 23**3


# --- powerset ------------------------------------------------------------------


def test_powerset_disjoint_union():
    inst = make_powerset(3)
    assert inst.ovee(frozenset({0}), frozenset({1})) == frozenset({0, 1})
    assert inst.ovee(frozenset({0}), frozenset({0})) is None
    assert inst.orth(frozenset()) == frozenset({0, 1, 2})


def test_powerset_law_suite():
    report = law_suite(make_powerset(3))
    assert report.all_pass


@pytest.mark.parametrize(
    "make, exhaustive",
    [
        (make_unit_interval, True),
        (lambda: make_powerset(5), True),
        (lambda: make_powerset(6), False),
        (lambda: make_effects(2), False),
        (lambda: make_projections(2), False),
    ],
    ids=["interval", "powerset-5", "powerset-6", "effects-2", "projections-2"],
)
def test_checks_exhaustively_says_whether_samples_matter(make, exhaustive):
    inst = make()
    assert checks_exhaustively(inst) is exhaustive
    checked = {law_suite(inst, samples=k).entries[0].checked for k in (3, 4)}
    assert (len(checked) == 1) is exhaustive

def test_powerset_rejects_silly_sizes():
    with pytest.raises(ValueError):
        make_powerset(0)
    with pytest.raises(ValueError):
        make_powerset(17)


# --- operator effects ------------------------------------------------------------


def test_effects_sum_when_below_identity():
    inst = make_effects(2)
    a = mat([[0.3, 0], [0, 0.2]])
    b = mat([[0.5, 0], [0, 0.5]])
    assert approx_eq(inst.ovee(a, b), mat([[0.8, 0], [0, 0.7]]), 1e-12)


def test_effects_identity_is_maximal():
    inst = make_effects(2)
    assert inst.ovee(identity(2), mat([[0.1, 0], [0, 0]])) is None
    assert inst.ovee(identity(2), zeros(2)) is not None


def test_effects_orthosupplement_of_scaled_identity():
    inst = make_effects(2)
    half = inst.scalar_mul(Fraction(1, 2), identity(2))
    assert approx_eq(inst.orth(half), 0.5 * identity(2), 1e-12)


def test_effects_law_suite_dim2():
    report = law_suite(make_effects(2), samples=200, seed=0)
    assert report.all_pass, report.to_json()


def test_projections_orthogonal_rank_ones(p0, p1):
    inst = make_projections(2)
    assert approx_eq(inst.ovee(p0, p1), identity(2), 1e-12)
    assert inst.ovee(p0, p0) is None
    assert approx_eq(inst.ovee(inst.orth(p0), p0), identity(2), 1e-12)


def test_projections_have_no_scalar_action():
    assert make_projections(2).scalar_mul is None


def test_projections_law_suite_dim3():
    report = law_suite(make_projections(3), samples=200, seed=1)
    assert report.all_pass, report.to_json()


@pytest.mark.parametrize("make", [make_effects, make_projections])
@pytest.mark.parametrize("dim", [0, -1])
def test_operator_instances_refuse_dimensions_below_one(make, dim):
    with pytest.raises(ValueError, match="dim >= 1"):
        make(dim)


@pytest.mark.parametrize("make, samples", [(make_effects, 0), (make_projections, -3)])
def test_sampled_law_suite_refuses_fewer_than_one_sample(make, samples):
    # an empty sample would pass every law having checked nothing
    with pytest.raises(ValueError):
        law_suite(make(2), samples=samples)


# --- the suite catches planted bugs ----------------------------------------------


def _broken_interval() -> EffectInstance:
    # wrong orthosupplement: 1 - x/2 instead of 1 - x
    good = make_unit_interval()
    return EffectInstance(
        name="broken-interval",
        zero=good.zero,
        one=good.one,
        ovee=good.ovee,
        orth=lambda x: 1 - x / 2,
        eq=good.eq,
        scalar_mul=good.scalar_mul,
        sampler=good.sampler,
        universe=good.universe,
        describe=str,
    )


def test_law_suite_catches_wrong_orthosupplement():
    report = law_suite(_broken_interval())
    assert not report.all_pass
    unique = report.entry("orthosupplement-unique")
    assert not unique.passed
    assert unique.counterexample is not None
    # the bogus complement only works at x = 0, so existence breaks too
    assert not report.entry("orthosupplement-exists").passed


# --- the report contract under planted bugs ---------------------------------------
#
# A plain re-statement of what law_suite reports: every law runs over
# materialised pairs and triples in x-major order, each triple is summed
# afresh with four ovee calls, and ``checked`` is the number of cases seen
# up to and including the first failure.  law_suite may share work between
# laws, but on every pure instance its report must equal this one.


def _first_failure(cases, check):
    checked = 0
    for case in cases:
        checked += 1
        msg = check(*case)
        if msg is not None:
            return False, checked, msg
    return True, checked, None


def _reference_entries(inst, samples, seed):
    rng = np.random.default_rng(seed)
    if inst.universe is not None and len(inst.universe) <= 40:
        pool = list(inst.universe)
        pairs = [(x, y) for x in pool for y in pool]
        triples = [(x, y, z) for x in pool for y in pool for z in pool]
    else:
        pool = [inst.sampler(seed + i) for i in range(samples)] + [inst.zero, inst.one]

        def pick():
            return pool[int(rng.integers(0, len(pool)))]

        pairs = [(pick(), pick()) for _ in range(samples)]
        triples = [(pick(), pick(), pick()) for _ in range(samples)]
    ovee, eq, orth, d = inst.ovee, inst.eq, inst.orth, inst.describe
    zero, one = inst.zero, inst.one

    def zero_unit(x):
        s = ovee(zero, x)
        if s is None:
            return f"0 (+) x undefined for x = {d(x)}"
        return None if eq(s, x) else f"0 (+) x != x for x = {d(x)}"

    def comm(x, y):
        s1, s2 = ovee(x, y), ovee(y, x)
        if (s1 is None) != (s2 is None):
            return f"definedness of x (+) y differs from y (+) x for x = {d(x)}, y = {d(y)}"
        if s1 is not None and not eq(s1, s2):
            return f"x (+) y != y (+) x for x = {d(x)}, y = {d(y)}"
        return None

    def assoc(x, y, z):
        yz = ovee(y, z)
        x_yz = None if yz is None else ovee(x, yz)
        if x_yz is None:
            return None
        where = f"x = {d(x)}, y = {d(y)}, z = {d(z)}"
        xy = ovee(x, y)
        if xy is None:
            return f"x (+) y undefined although x (+) (y (+) z) is defined: {where}"
        xy_z = ovee(xy, z)
        if xy_z is None:
            return f"(x (+) y) (+) z undefined although x (+) (y (+) z) is defined: {where}"
        return None if eq(x_yz, xy_z) else f"associativity fails for {where}"

    def orth_exists(x):
        s = ovee(x, orth(x))
        if s is None:
            return f"x (+) orth(x) undefined for x = {d(x)}"
        return None if eq(s, one) else f"x (+) orth(x) != 1 for x = {d(x)}"

    def orth_unique(x, y):
        s = ovee(x, y)
        if s is None or not eq(s, one) or eq(y, orth(x)):
            return None
        return f"x (+) y = 1 but y != orth(x) for x = {d(x)}, y = {d(y)}"

    def one_maximal(x):
        if ovee(x, one) is not None and not eq(x, zero):
            return f"x (+) 1 defined for x != 0: x = {d(x)}"
        return None

    singles = [(x,) for x in pool]
    entries = [
        ("zero-unit", *_first_failure(singles, zero_unit)),
        ("commutativity", *_first_failure(pairs, comm)),
        ("associativity", *_first_failure(triples, assoc)),
        ("orthosupplement-exists", *_first_failure(singles, orth_exists)),
        ("orthosupplement-unique", *_first_failure(pairs + [(x, orth(x)) for x in pool], orth_unique)),
        ("one-maximal", *_first_failure(singles, one_maximal)),
    ]
    if inst.scalar_mul is None:
        return entries
    smul = inst.scalar_mul
    grid = [Fraction(k, 8) for k in range(9)]
    scalars = [grid[int(rng.integers(0, len(grid)))] for _ in range(max(len(pairs), 1))]

    def scalar_at(i):
        return scalars[i % len(scalars)]

    def scalar_unit(x):
        return None if eq(smul(Fraction(1), x), x) else f"1 . x != x for x = {d(x)}"

    def scalar_assoc(i, x):
        r, s = scalar_at(i), scalar_at(i * 7 + 3)
        if eq(smul(r * s, x), smul(r, smul(s, x))):
            return None
        return f"(r s) . x != r . (s . x) for r = {r}, s = {s}, x = {d(x)}"

    def distrib_elem(i, x, y):
        r, s = scalar_at(i), ovee(x, y)
        if s is None:
            return None
        lhs = ovee(smul(r, x), smul(r, y))
        if lhs is None:
            return f"r.x (+) r.y undefined although x (+) y defined: r = {r}, x = {d(x)}, y = {d(y)}"
        if not eq(lhs, smul(r, s)):
            return f"r.(x (+) y) != r.x (+) r.y for r = {r}, x = {d(x)}, y = {d(y)}"
        return None

    def distrib_scalar(i, x):
        r, s = scalar_at(i), scalar_at(i * 5 + 1)
        if r + s > 1:
            return None
        lhs = ovee(smul(r, x), smul(s, x))
        if lhs is None:
            return f"r.x (+) s.x undefined although r + s <= 1: r = {r}, s = {s}, x = {d(x)}"
        if not eq(lhs, smul(r + s, x)):
            return f"(r + s).x != r.x (+) s.x for r = {r}, s = {s}, x = {d(x)}"
        return None

    indexed = list(enumerate(pool))
    return entries + [
        ("scalar-unit", *_first_failure(singles, scalar_unit)),
        ("scalar-associativity", *_first_failure(indexed, scalar_assoc)),
        (
            "scalar-distributes-over-sum",
            *_first_failure([(i, x, y) for i, (x, y) in enumerate(pairs)], distrib_elem),
        ),
        ("scalar-sum-distributes", *_first_failure(indexed, distrib_scalar)),
    ]


def _assert_matches_reference(inst, samples=500, seed=0):
    report = law_suite(inst, samples=samples, seed=seed)
    got = [(e.law, e.passed, e.checked, e.counterexample) for e in report.entries]
    assert got == _reference_entries(inst, samples, seed)
    return report


_SMALL_EXHAUSTIVE = {
    "powerset-3": lambda: make_powerset(3),
    "powerset-4": lambda: make_powerset(4),
    "interval-5": lambda: make_unit_interval(5),
}


@st.composite
def _planted_exhaustive(draw):
    """A small exhaustive instance whose ovee is wrong on a few index pairs.

    A planted pair yields either None or some other universe element; the
    broken ovee stays a pure function of its arguments.
    """
    good = _SMALL_EXHAUSTIVE[draw(st.sampled_from(sorted(_SMALL_EXHAUSTIVE)))]()
    universe = good.universe
    index = {x: i for i, x in enumerate(universe)}
    n = len(universe)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    planted = draw(
        st.dictionaries(cells, st.one_of(st.none(), st.integers(0, n - 1)), max_size=6)
    )

    def ovee(x, y):
        cell = (index.get(x), index.get(y))
        if cell in planted:
            wrong = planted[cell]
            return None if wrong is None else universe[wrong]
        return good.ovee(x, y)

    return replace(good, name=f"planted-{good.name}", ovee=ovee)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(inst=_planted_exhaustive(), seed=st.integers(0, 2**31 - 1))
def test_law_suite_matches_reference_under_planted_bugs(inst, seed):
    _assert_matches_reference(inst, seed=seed)


@pytest.mark.parametrize("seed", [2, 11])
@pytest.mark.parametrize("bug", ["none", "asymmetric-definedness", "skewed-sum"])
def test_sampled_law_suite_matches_reference(bug, seed):
    good = make_effects(2)

    def ovee(A, B):
        if bug == "asymmetric-definedness" and A[0, 0].real > B[1, 1].real + 0.2:
            return None
        S = good.ovee(A, B)
        if bug == "skewed-sum" and S is not None and B[0, 0].real > 0.5:
            return S + 1e-3 * identity(2)
        return S

    report = _assert_matches_reference(replace(good, ovee=ovee), samples=40, seed=seed)
    assert report.all_pass == (bug == "none")


def test_law_report_json_shape():
    obj = law_suite(make_powerset(2)).to_json()
    assert obj["instance"] == "powerset-2"
    assert obj["pass"] is True
    assert {e["law"] for e in obj["laws"]} >= {
        "zero-unit",
        "commutativity",
        "associativity",
        "orthosupplement-exists",
        "orthosupplement-unique",
        "one-maximal",
    }


# --- pointwise structure on affine maps -------------------------------------------
#
# Affine maps from densities to [0, 1] themselves form an effect module:
# pointwise (+) and scalar action preserve affinity.  Exercised through the
# duality layer, which rejects non-affine functionals.


def test_pointwise_sum_of_affine_maps_stays_affine():
    dim = 2
    E1 = 0.4 * sample(OperatorKind.EFFECT, dim, 5)
    E2 = 0.4 * sample(OperatorKind.EFFECT, dim, 6)
    f1 = hs_forward(OperatorKind.EFFECT, E1)
    f2 = hs_forward(OperatorKind.EFFECT, E2)

    pointwise = Functional(
        OperatorKind.EFFECT, dim, lambda rho: f1(rho) + f2(rho), note="pointwise sum"
    )
    recovered = hs_inverse(OperatorKind.EFFECT, pointwise)
    assert approx_eq(recovered, E1 + E2, 1e-8)


def test_pointwise_scalar_action_on_affine_maps():
    dim = 2
    E = sample(OperatorKind.EFFECT, dim, 7)
    f = hs_forward(OperatorKind.EFFECT, E)
    scaled = Functional(OperatorKind.EFFECT, dim, lambda rho: 0.25 * f(rho))
    assert approx_eq(hs_inverse(OperatorKind.EFFECT, scaled), 0.25 * E, 1e-8)


# --- the stacked path ----------------------------------------------------------------
#
# A sampled law_suite on an instance with ``stacked`` checks the effect-algebra
# laws a stack of cases at a time.  Its report must equal the per-element one
# that the same instance gives without ``stacked``: same draws, counts,
# positions and counterexample text.

_TOLS = [1e-9, 1e-15, 1e-300, 1e300]


def _assert_stacked_matches_per_element(inst, samples, seed, tol=1e-9):
    assert inst.stacked is not None
    report = law_suite(inst, samples=samples, seed=seed, tol=tol)
    per_element = law_suite(replace(inst, stacked=None), samples=samples, seed=seed, tol=tol)
    assert report.to_json() == per_element.to_json()
    return report


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    dim=st.integers(1, 4),
    tol=st.sampled_from(_TOLS),
    samples=st.sampled_from([1, 3, 50]),
    seed=st.integers(0, 2**31 - 1),
)
def test_stacked_projection_laws_match_per_element(dim, tol, samples, seed):
    _assert_stacked_matches_per_element(make_projections(dim, tol), samples, seed, tol)


@pytest.mark.parametrize("tol", _TOLS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stacked_projection_laws_match_per_element_across_chunks(monkeypatch, dim, tol):
    # three cases per chunk, so that every law spans many chunks
    monkeypatch.setattr(effect, "_STACK_ENTRIES", 3 * dim * dim)
    _assert_stacked_matches_per_element(make_projections(dim, tol), 50, seed=dim, tol=tol)


def test_stacked_projection_laws_match_per_element_at_full_chunks():
    # 4,096 cases of a 4 x 4 carrier fill one chunk; 4,100 pairs span two
    assert effect._STACK_ENTRIES // 16 < 4100
    report = _assert_stacked_matches_per_element(make_projections(4), 4100, seed=7)
    assert report.all_pass and report.entry("commutativity").checked == 4100


def _per_element(ops: StackedOps) -> dict:
    """ovee, eq and orth that apply ``ops`` to one-element stacks."""

    def ovee(x, y):
        S, defined = ops.ovee(x[None], y[None])
        return S[0] if defined[0] else None

    return {
        "ovee": ovee,
        "eq": lambda x, y: bool(ops.eq(x[None], y[None])[0]),
        "orth": lambda x: ops.orth(x[None])[0],
    }


def _planted_projections(bug: str) -> EffectInstance:
    """make_projections(2) with a bug written once, on stacks."""
    good = make_projections(2)
    base = good.stacked

    def ovee(X, Y):
        S, defined = base.ovee(X, Y)
        if bug == "asymmetric-definedness":
            defined = defined & ~(X[:, 0, 0].real > Y[:, 1, 1].real + 0.2)
        if bug == "skewed-sum":
            S = S + 1e-3 * (Y[:, 0, 0].real > 0.5)[:, None, None] * identity(2)
        return S, defined

    def eq(X, Y):
        same = base.eq(X, Y)
        if bug == "irreflexive-eq":
            # unequal whenever both have a large off-diagonal entry, so that
            # the uniqueness law also fails on a complement case
            same = same & ~((np.abs(X[:, 0, 1]) > 0.3) & (np.abs(Y[:, 0, 1]) > 0.3))
        return same

    def orth(X):
        return base.orth(X) / 2 if bug == "wrong-orth" else base.orth(X)

    ops = StackedOps(ovee=ovee, eq=eq, orth=orth)
    return replace(good, name=f"planted-{bug}", stacked=ops, **_per_element(ops))


@pytest.mark.parametrize("chunk_cases", [None, 7])
@pytest.mark.parametrize("seed", [2, 11])
@pytest.mark.parametrize(
    "bug", ["none", "asymmetric-definedness", "skewed-sum", "wrong-orth", "irreflexive-eq"]
)
def test_stacked_laws_report_planted_bugs_like_per_element(monkeypatch, bug, seed, chunk_cases):
    if chunk_cases is not None:
        monkeypatch.setattr(effect, "_STACK_ENTRIES", chunk_cases * 4)
    inst = _planted_projections(bug)
    report = _assert_stacked_matches_per_element(inst, samples=40, seed=seed)
    assert [(e.law, e.passed, e.checked, e.counterexample) for e in report.entries] == (
        _reference_entries(inst, 40, seed)
    )
    assert report.all_pass == (bug == "none")


def test_replacing_ovee_needs_stacked_replaced_too():
    def never(P, Q):
        return None

    # without stacked, the sampled laws call the planted ovee and catch it
    caught = law_suite(replace(make_projections(2), ovee=never, stacked=None), samples=20)
    assert not caught.entry("zero-unit").passed
    # with stale stacked operations they never call it: the documented rule
    assert law_suite(replace(make_projections(2), ovee=never), samples=20).all_pass


def test_stacked_operations_that_disagree_are_refused():
    good = make_projections(2)
    never_equal = replace(good.stacked, eq=lambda X, Y: np.zeros(len(X), dtype=bool))
    with pytest.raises(ValueError, match="zero-unit case"):
        law_suite(replace(good, stacked=never_equal), samples=5)


# --- drawing a sampled pool as one stack ------------------------------------------


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    dim=st.integers(1, 6),
    b=st.sampled_from([1, 2, 50]),
    start=st.integers(0, 2**16) | st.integers(2**64 - 60, 2**64 + 60),
)
def test_a_projection_pool_drawn_as_one_stack_is_the_per_seed_samples(dim, b, start):
    inst = make_projections(dim)
    pool = inst.stacked.sample(range(start, start + b))
    assert pool.shape == (b, dim, dim)
    for i, P in enumerate(pool):
        seed = start + i
        assert np.array_equal(P.view(np.uint64), inst.sampler(seed).view(np.uint64))
        if seed % 2:
            single = sample(OperatorKind.PROJECTION, dim, seed)
            assert np.array_equal(P.view(np.uint64), single.view(np.uint64))


def _plant_dependent_column(monkeypatch, call: int) -> None:
    """Give the call-th complex Gaussian drawn from now on (0-based) a second
    column that is twice its first."""
    gaussian = operators._standard_gaussian
    calls = count()

    def planted(rng, dim):
        G = gaussian(rng, dim)
        if next(calls) == call:
            G[:, 1] = 2 * G[:, 0]
        return G

    monkeypatch.setattr(operators, "_standard_gaussian", planted)


@pytest.mark.parametrize("call", [0, 13, 24])
def test_a_dependent_qr_column_anywhere_in_a_pool_is_refused_like_one_sample(monkeypatch, call):
    inst = make_projections(3)
    with monkeypatch.context() as m:
        _plant_dependent_column(m, 0)
        with pytest.raises(ValueError) as single:
            sample(OperatorKind.PROJECTION, 3, 1)
    # range(1, 51) draws 25 Gaussians, one per odd seed
    _plant_dependent_column(monkeypatch, call)
    with pytest.raises(ValueError) as pooled:
        inst.stacked.sample(range(1, 51))
    assert "dependent column" in str(single.value)
    assert str(pooled.value) == str(single.value)


def test_law_suite_draws_a_sampled_pool_with_one_stacked_call():
    good = make_projections(2)
    calls = []

    def sample_pool(seeds):
        calls.append(seeds)
        return good.stacked.sample(seeds)

    inst = replace(good, stacked=replace(good.stacked, sample=sample_pool))
    assert law_suite(inst, samples=30, seed=5) == law_suite(good, samples=30, seed=5)
    assert calls == [range(5, 35)]


def test_a_sampled_unit_interval_draws_its_pool_from_the_sampler():
    # denominators up to 12 give more than 40 elements, so the pool is sampled
    good = make_unit_interval(12)
    assert not checks_exhaustively(good)
    drawn = []

    def sampler(seed):
        drawn.append(seed)
        return good.sampler(seed)

    report = law_suite(replace(good, sampler=sampler), samples=50)
    assert report.all_pass
    assert drawn == list(range(50))
    assert report.entry("zero-unit").checked == 52  # the 50 draws, zero and one
    assert report == law_suite(good, samples=50)


def test_a_sampled_law_check_refuses_an_instance_without_a_sampler():
    # a universe too large to check exhaustively is not a sampler
    with pytest.raises(ValueError, match="no sampler"):
        law_suite(replace(make_unit_interval(12), sampler=None), samples=5)


# --- the exact carriers as integer stacks ------------------------------------------
#
# The unit interval and the powersets carry ``stacked`` operations on integer
# encodings, used on exhaustive and sampled pools alike.  Their reports must
# equal the per-element ones, and a replaced ovee must still be called.


@pytest.mark.parametrize("seed", [0, 3, 2**31 - 1])
@pytest.mark.parametrize(
    "make, k",
    [(make_powerset, k) for k in range(1, 6)] + [(make_unit_interval, k) for k in range(1, 11)],
)
def test_stacked_exhaustive_exact_laws_match_per_element(make, k, seed):
    inst = make(k)
    assert checks_exhaustively(inst)
    report = _assert_stacked_matches_per_element(inst, samples=500, seed=seed)
    assert report.all_pass


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
@pytest.mark.parametrize(
    "make, k",
    [(make_powerset, 6), (make_powerset, 12), (make_powerset, 16), (make_unit_interval, 12)],
)
def test_stacked_sampled_exact_laws_match_per_element(make, k, seed):
    inst = make(k)
    assert not checks_exhaustively(inst)
    report = _assert_stacked_matches_per_element(inst, samples=200, seed=seed)
    assert report.all_pass and report.entry("zero-unit").checked == 202


@pytest.mark.parametrize("k", [22, 23, 42])
def test_stacked_interval_laws_match_per_element_at_the_dtype_edges(k):
    # the codes of k = 22 are the last in int32, of 23 the first in int64, of 42 the last
    _assert_stacked_matches_per_element(make_unit_interval(k), samples=300, seed=k)


@pytest.mark.parametrize(
    "k, dtype", [(1, np.int32), (22, np.int32), (23, np.int64), (42, np.int64), (43, None)]
)
def test_unit_interval_codes_in_the_narrowest_dtype_that_holds_three_elements(k, dtype):
    inst = make_unit_interval(k)
    if dtype is None:
        assert inst.stacked is None
        return
    codes = inst.stacked.encode([inst.zero, Fraction(1, k), inst.one])
    L = math.lcm(*range(1, k + 1))
    assert codes.dtype == dtype and codes.tolist() == [0, L // k, L]


def test_powerset_codes_are_int32_bitmasks():
    inst = make_powerset(16)
    codes = inst.stacked.encode([inst.zero, frozenset({0, 3}), inst.one])
    assert codes.dtype == np.int32 and codes.tolist() == [0, 9, 2**16 - 1]


@pytest.mark.parametrize(
    "inst, outsider",
    [
        (make_unit_interval(12), Fraction(1, 13)),
        (make_unit_interval(12), Fraction(3, 2)),
        (make_powerset(6), frozenset({6})),
    ],
    ids=["denominator", "above-one", "outside-ground"],
)
def test_a_replaced_sampler_drawing_outside_the_carrier_is_refused(inst, outsider):
    with pytest.raises(ValueError, match="not"):
        law_suite(replace(inst, sampler=lambda seed: outsider), samples=5)


@pytest.mark.parametrize("size", [5, 12])
def test_stacked_powerset_laws_never_call_the_per_element_ovee_on_a_passing_carrier(size):
    good = make_powerset(size)
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return good.ovee(x, y)

    inst = replace(good, ovee=counted, stacked=replace(good.stacked, agrees_with=counted))
    assert law_suite(inst, samples=100).all_pass
    assert calls == []


def _decoding(ops: StackedOps, decode) -> dict:
    """ovee, eq and orth that apply ``ops`` to one-element encoded stacks."""
    enc = ops.encode

    def ovee(x, y):
        S, defined = ops.ovee(enc([x]), enc([y]))
        return decode(S[0]) if defined[0] else None

    return {
        "ovee": ovee,
        "eq": lambda x, y: bool(ops.eq(enc([x]), enc([y]))[0]),
        "orth": lambda x: decode(ops.orth(enc([x]))[0]),
    }


def _planted_exact(good: EffectInstance, bug: str) -> EffectInstance:
    """An exact instance with a bug written once, on its integer codes.

    The scalar laws are dropped: they sum scaled elements, such as 1/8 of
    an element of the interval up to 5, that have no code.
    """
    base = good.stacked
    if isinstance(good.zero, Fraction):
        scale = int(base.encode([good.one])[0])

        def decode(code):
            return Fraction(int(code), scale)
    else:
        size = len(good.one)

        def decode(code):
            return frozenset(i for i in range(size) if int(code) >> i & 1)

    def ovee(X, Y):
        S, defined = base.ovee(X, Y)
        if bug == "asymmetric-definedness":
            defined = defined & ~(X > 2 * Y + 1)
        if bug == "skewed-sum":
            S = S - ((S > 0) & (Y % 3 == 1))
        return S, defined

    def eq(X, Y):
        same = base.eq(X, Y)
        if bug == "irreflexive-eq":
            same = same & ~((X % 4 == 1) & (Y % 4 == 1))
        return same

    def orth(X):
        return base.orth(X) // 2 if bug == "wrong-orth" else base.orth(X)

    ops = replace(base, ovee=ovee, eq=eq, orth=orth)
    per_element = _decoding(ops, decode)
    ops = replace(ops, agrees_with=per_element["ovee"])
    return replace(
        good, name=f"planted-{bug}-{good.name}", scalar_mul=None, stacked=ops, **per_element
    )


@pytest.mark.parametrize("chunk_cases", [None, 7])
@pytest.mark.parametrize("seed", [2, 11])
@pytest.mark.parametrize(
    "make, k",
    [(make_powerset, 3), (make_powerset, 12), (make_unit_interval, 5), (make_unit_interval, 12)],
)
@pytest.mark.parametrize(
    "bug", ["none", "asymmetric-definedness", "skewed-sum", "wrong-orth", "irreflexive-eq"]
)
def test_stacked_exact_laws_report_planted_bugs_like_per_element(
    monkeypatch, bug, make, k, seed, chunk_cases
):
    if chunk_cases is not None:
        monkeypatch.setattr(effect, "_STACK_ENTRIES", chunk_cases)
    inst = _planted_exact(make(k), bug)
    report = _assert_stacked_matches_per_element(inst, samples=40, seed=seed)
    assert [(e.law, e.passed, e.checked, e.counterexample) for e in report.entries] == (
        _reference_entries(inst, 40, seed)
    )
    assert report.all_pass == (bug == "none")


@pytest.mark.parametrize(
    "make, k", [(make_powerset, 3), (make_powerset, 12), (make_unit_interval, 5)]
)
def test_a_replaced_ovee_on_an_exact_instance_is_checked_per_element(make, k):
    def never(x, y):
        return None

    planted = replace(make(k), ovee=never)
    report = law_suite(planted, samples=20)
    assert not report.entry("zero-unit").passed
    assert report == law_suite(replace(planted, stacked=None), samples=20)


# --- report lookup, a planted scalar bug, per-call memos ----------------------


def test_law_report_entry_of_an_unknown_law_is_a_key_error():
    with pytest.raises(KeyError, match="no-such-law"):
        law_suite(make_powerset(2)).entry("no-such-law")


def test_a_planted_scalar_unit_bug_is_worded():
    # 1 . x = orth(x), which differs from x at x = 0 first
    bad = replace(make_unit_interval(2), scalar_mul=lambda r, x: 1 - x if r == 1 else r * x)
    entry = law_suite(bad).entry("scalar-unit")
    assert (entry.passed, entry.checked) == (False, 1)
    assert entry.counterexample == "1 . x != x for x = 0"


def test_law_suite_memos_live_for_one_call():
    # each ordered pair is summed, and each orth(x) taken, once per call:
    # a second call pays the same again, and nothing more
    good = make_effects(2)
    calls = {"ovee": 0, "orth": 0}

    def ovee(x, y):
        calls["ovee"] += 1
        return good.ovee(x, y)

    def orth(x):
        calls["orth"] += 1
        return good.orth(x)

    counted = replace(good, ovee=ovee, orth=orth, stacked=None)
    for _ in range(2):
        calls.update(ovee=0, orth=0)
        assert law_suite(counted, samples=200, seed=3).all_pass
        assert calls == {"ovee": 1692, "orth": 202}


# --- the unit interval's scalar laws as integer stacks --------------------------
#
# ``stacked.scalars`` codes x as x * 64L and a scalar r as r * 64, so that the
# four scalar laws run a stack of integer cases at a time.  Their entries must
# equal the per-element and the reference ones, a bug planted on the codes
# included.


@pytest.mark.parametrize("chunk_cases", [None, 7])
@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
@pytest.mark.parametrize("k", list(range(1, 11)) + [12, 22, 23, 42])
def test_stacked_interval_scalar_laws_match_the_reference(monkeypatch, k, seed, chunk_cases):
    if chunk_cases is not None:
        monkeypatch.setattr(effect, "_STACK_ENTRIES", chunk_cases)
    inst = make_unit_interval(k)
    assert checks_exhaustively(inst) == (k <= 10)
    report = _assert_stacked_matches_per_element(inst, samples=60, seed=seed)
    assert report.all_pass and len(report.entries) == 10
    assert [(e.law, e.passed, e.checked, e.counterexample) for e in report.entries] == (
        _reference_entries(inst, 60, seed)
    )


_SCALAR_BUGS = {
    # 1 . x is 0 at x = 1: the unit law fails at the last pool element
    "unit-drops-one": lambda K, X, M: np.where((K == 64) & (X == M), 0, K * X // 64),
    # r . x rounds to a multiple of r's own 64ths, which loses r . (s . x)
    "truncates": lambda K, X, M: (X // 64) * K,
    # r . x is capped at 1/2, which breaks every law above 1/2
    "saturates": lambda K, X, M: np.minimum(K * X // 64, M // 2),
    # 1/2 . x is one code too large, so 1/2.x (+) 1/2.x != x
    "half-overshoots": lambda K, X, M: K * X // 64 + ((K == 32) & (X > 0)),
    # r . x is 2 r x below r = 1, so r.x (+) r.y can be undefined
    "doubles": lambda K, X, M: np.where(K < 64, K * X // 32, X),
}


def _planted_scalar(k: int, bug: str) -> EffectInstance:
    """make_unit_interval(k) with a scalar_mul bug written once, on the codes
    of ``stacked.scalars``; the per-element scalar_mul decodes it."""
    good = make_unit_interval(k)
    base = good.stacked.scalars
    M = int(base.encode([good.one])[0])

    def mul(K, X):
        return _SCALAR_BUGS[bug](K, X, M)

    def scalar_mul(r, x):
        code = mul(np.array([int(r * 64)]), np.array([int(x * M)]))[0]
        return Fraction(int(code), M)

    scalars = replace(base, scalar_mul=mul, agrees_with=scalar_mul)
    return replace(
        good,
        name=f"planted-{bug}-{good.name}",
        scalar_mul=scalar_mul,
        stacked=replace(good.stacked, scalars=scalars),
    )


@pytest.mark.parametrize("chunk_cases", [None, 7])
@pytest.mark.parametrize("seed", [2, 11])
@pytest.mark.parametrize("k", [5, 8, 12])
@pytest.mark.parametrize("bug", sorted(_SCALAR_BUGS))
def test_stacked_scalar_laws_report_planted_bugs_like_per_element(
    monkeypatch, bug, k, seed, chunk_cases
):
    if chunk_cases is not None:
        monkeypatch.setattr(effect, "_STACK_ENTRIES", chunk_cases)
    inst = _planted_scalar(k, bug)
    report = _assert_stacked_matches_per_element(inst, samples=40, seed=seed)
    assert [(e.law, e.passed, e.checked, e.counterexample) for e in report.entries] == (
        _reference_entries(inst, 40, seed)
    )
    assert not report.all_pass
    assert all(e.passed for e in report.entries[:6])


def test_a_passing_interval_run_never_calls_the_per_element_scalar_mul():
    good = make_unit_interval(8)
    calls = []

    def counted(r, x):
        calls.append((r, x))
        return good.scalar_mul(r, x)

    scalars = replace(good.stacked.scalars, agrees_with=counted)
    inst = replace(good, scalar_mul=counted, stacked=replace(good.stacked, scalars=scalars))
    assert law_suite(inst) == law_suite(good)
    assert law_suite(inst).all_pass and calls == []
    # without stacked scalars every scalar law calls it
    assert law_suite(replace(inst, stacked=replace(inst.stacked, scalars=None))).all_pass
    assert len(calls) > 23


@pytest.mark.parametrize("k, stacked_scalars", [(36, True), (37, False), (42, False)])
def test_scalar_stacks_fall_back_per_element_beyond_int64(k, stacked_scalars):
    # the largest intermediate, 64 * 128L, fits in int64 up to k = 36
    inst = make_unit_interval(k)
    L = math.lcm(*range(1, k + 1))
    assert inst.stacked is not None
    assert (inst.stacked.scalars is not None) == stacked_scalars
    assert (2**13 * L <= np.iinfo(np.int64).max) == stacked_scalars
    if stacked_scalars:
        codes = inst.stacked.scalars.encode([inst.zero, Fraction(1, k), inst.one])
        assert codes.dtype == np.int64 and codes.tolist() == [0, 64 * L // k, 64 * L]
    _assert_stacked_matches_per_element(inst, samples=300, seed=k)
