"""Release gate: one test per headline guarantee, at its contractual tolerance.

Each test prints as a single pass/fail line under ``pytest -v``.  Thresholds
here are the library's published numbers; do not loosen them to make a
regression disappear -- fix the regression.
"""

import time
from fractions import Fraction

import numpy as np

from hsdual.algebra import monad_law_suite
from hsdual.duality import DUAL_KINDS, hs_forward, hs_inverse, naturality_check
from hsdual.effect import (
    EffectInstance,
    law_suite,
    make_effects,
    make_projections,
    make_unit_interval,
)
from hsdual.free import (
    ComplexPair,
    Difference,
    c_iso_b_sa,
    c_iso_sa_b,
    r_iso_pos_sa,
    r_iso_sa_pos,
    s_iso_dm_pos,
    s_iso_pos_dm,
    s_point,
)
from hsdual.linalg import identity, max_norm, trace, zeros
from hsdual.operators import OperatorKind, classify, loewner_leq, sample, sample_unitary
from hsdual.wp import (
    apply_channel,
    mixture_channel,
    super_channel,
    to_super,
    unitary_channel,
    wp,
)

from conftest import mat

# probe domain of the trace-pairing functional for each operator kind
_PROBE_KIND = {
    OperatorKind.BOUNDED: OperatorKind.BOUNDED,
    OperatorKind.SELF_ADJOINT: OperatorKind.SELF_ADJOINT,
    OperatorKind.POSITIVE: OperatorKind.POSITIVE,
    OperatorKind.EFFECT: OperatorKind.DENSITY,
    OperatorKind.DENSITY: OperatorKind.EFFECT,
}


def _seeds(master: int, count: int) -> list[int]:
    rng = np.random.default_rng(master)
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def test_duality_round_trips_all_kinds_dims_2_to_6():
    """Operator and functional round trips stay within 1e-8; under 30 s."""
    t0 = time.monotonic()

    worst_op = 0.0
    for ki, kind in enumerate(DUAL_KINDS):
        for dim in range(2, 7):
            for s in _seeds(1000 * ki + dim, 200):
                A = sample(kind, dim, s)
                A2 = hs_inverse(kind, hs_forward(kind, A))
                worst_op = max(worst_op, max_norm(A2 - A))
    assert worst_op <= 1e-8, f"operator round-trip residual {worst_op:.3e}"

    # functional side: two probes per (kind, dim) cell -> 50 probe operators
    worst_fn = 0.0
    for kind in DUAL_KINDS:
        for dim in range(2, 7):
            A = sample(kind, dim, 12000 + dim)
            f = hs_forward(kind, A)
            g = hs_forward(kind, hs_inverse(kind, f))
            for s in _seeds(17000 + dim, 2):
                P = sample(_PROBE_KIND[kind], dim, s)
                worst_fn = max(worst_fn, abs(f(P) - g(P)))
    assert worst_fn <= 1e-8, f"functional round-trip residual {worst_fn:.3e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.1f} s"


def test_pairing_naturality_on_500_triples():
    """Conjugation slides across the pairing with residual <= 1e-9."""
    worst = 0.0
    seeds = _seeds(42, 1500)
    for i in range(500):
        dim = 2 + i % 4
        C = sample(OperatorKind.BOUNDED, dim, seeds[3 * i])
        A = sample(OperatorKind.BOUNDED, dim, seeds[3 * i + 1])
        B = sample(OperatorKind.BOUNDED, dim, seeds[3 * i + 2])
        worst = max(worst, naturality_check(C, A, B))
    assert worst <= 1e-9, f"naturality residual {worst:.3e}"


def test_effect_test_agrees_with_double_loewner_on_1000_matrices():
    """Spectrum-in-[0,1] and (0 <= A, A <= I) never disagree at 1e-9."""
    tol = 1e-9
    disagreements = 0
    seeds = _seeds(7, 1000)
    for i, s in enumerate(seeds):
        dim = 2 + i % 4
        variant = i % 4
        if variant == 0:
            A = sample(OperatorKind.SELF_ADJOINT, dim, s)
        elif variant == 1:
            A = sample(OperatorKind.EFFECT, dim, s)
        elif variant == 2:
            A = 1.2 * sample(OperatorKind.EFFECT, dim, s) - 0.1 * identity(dim)
        else:
            A = 0.5 * sample(OperatorKind.EFFECT, dim, s)
        by_spectrum = classify(A, tol).has(OperatorKind.EFFECT)
        by_order = loewner_leq(zeros(dim), A, tol) and loewner_leq(A, identity(dim), tol)
        disagreements += by_spectrum != by_order
    assert disagreements == 0, f"{disagreements} disagreement(s) out of 1000"


def test_free_construction_isomorphisms_and_scalar_carriers():
    """s/r/c round trips and the composed chain within 1e-8; scalars exact."""
    worst = 0.0
    for dim in (2, 3, 4):
        for s in _seeds(900 + dim, 100):
            B = sample(OperatorKind.POSITIVE, dim, s)
            worst = max(worst, max_norm(s_iso_dm_pos(s_iso_pos_dm(B), dim) - B))

            A = sample(OperatorKind.SELF_ADJOINT, dim, s)
            worst = max(worst, max_norm(r_iso_pos_sa(r_iso_sa_pos(A)) - A))

            G = sample(OperatorKind.BOUNDED, dim, s)
            worst = max(worst, max_norm(c_iso_sa_b(c_iso_b_sa(G)) - G))

            # densities -> positives -> self-adjoints -> bounded, reassembled
            rng = np.random.default_rng(s)
            rhos = [
                sample(OperatorKind.DENSITY, dim, int(x))
                for x in rng.integers(0, 2**62, size=4)
            ]
            w = [float(x) for x in rng.uniform(0.1, 2.0, size=4)]
            target = (w[0] * rhos[0] - w[1] * rhos[1]) + 1j * (
                w[2] * rhos[2] - w[3] * rhos[3]
            )
            re = r_iso_pos_sa(
                Difference(
                    s_iso_dm_pos(s_point(w[0], rhos[0]), dim),
                    s_iso_dm_pos(s_point(w[1], rhos[1]), dim),
                )
            )
            im = r_iso_pos_sa(
                Difference(
                    s_iso_dm_pos(s_point(w[2], rhos[2]), dim),
                    s_iso_dm_pos(s_point(w[3], rhos[3]), dim),
                )
            )
            worst = max(worst, max_norm(c_iso_sa_b(ComplexPair(re, im)) - target))
    assert worst <= 1e-8, f"isomorphism residual {worst:.3e}"

    # scalar carriers compute exactly -- no tolerance
    assert r_iso_pos_sa(Difference(3.0, 1.0)) == 2.0
    assert r_iso_sa_pos(-2.0) == Difference(0.0, 2.0)
    assert r_iso_sa_pos(2.5) == Difference(2.5, 0.0)
    assert c_iso_sa_b(ComplexPair(1.5, -2.0)) == 1.5 - 2.0j
    assert c_iso_b_sa(1.5 - 2.0j) == ComplexPair(1.5, -2.0)


def test_monad_laws_exhaustive_zero_violations():
    """Unit and flatten laws hold exactly on all small carriers."""
    result = monad_law_suite()
    assert result["violations"] == [], result["violations"]
    assert result["checked"] > 0


def test_effect_algebra_law_suites():
    """Interval exhaustive; operator instances sampled; planted bug caught."""
    interval = law_suite(make_unit_interval(max_denominator=8))
    assert interval.all_pass, [e.law for e in interval.entries if not e.passed]
    # exhaustiveness: every pair of the 23-element universe was visited
    assert interval.entry("commutativity").checked == 23 * 23

    for dim in (2, 3, 4):
        for inst in (make_effects(dim, 1e-9), make_projections(dim, 1e-9)):
            report = law_suite(inst, samples=500, seed=dim, tol=1e-9)
            failures = [e.law for e in report.entries if not e.passed]
            assert report.all_pass, f"{inst.name}: {failures}"

    # a deliberately wrong orthosupplement must be flagged, not absorbed
    good = make_unit_interval(max_denominator=8)
    broken = EffectInstance(
        name="interval-broken-orth",
        zero=good.zero,
        one=good.one,
        ovee=good.ovee,
        orth=lambda x: 1 - x / 2,
        eq=good.eq,
        universe=good.universe,
        sampler=good.sampler,
        scalar_mul=good.scalar_mul,
        describe=good.describe,
    )
    report = law_suite(broken)
    assert not report.all_pass
    assert not report.entry("orthosupplement-exists").passed


def test_wp_adjointness_closed_form_and_unit():
    """tr(wp(f,A) rho) = tr(A f(rho)) per channel shape; unitary closed form."""
    variants = {}
    variants["unitary"] = [unitary_channel(sample_unitary(2 + i % 2, i)) for i in range(5)]
    variants["mixture"] = [
        mixture_channel(
            [Fraction(1, 4), Fraction(3, 4)],
            [
                unitary_channel(sample_unitary(2 + i % 2, 10 + i)),
                unitary_channel(sample_unitary(2 + i % 2, 20 + i)),
            ],
        )
        for i in range(5)
    ]
    variants["super"] = [
        super_channel(ch.dim_in, ch.dim_out, to_super(ch)) for ch in variants["mixture"]
    ]

    for name, channels in variants.items():
        worst = 0.0
        count = 0
        for ch in channels:
            for j in range(4):
                A = sample(OperatorKind.EFFECT, ch.dim_out, 100 + j)
                W = wp(ch, A)
                for k in range(5):
                    rho = sample(OperatorKind.DENSITY, ch.dim_in, 200 + k)
                    lhs = trace(W @ rho)
                    rhs = trace(A @ apply_channel(ch, rho))
                    worst = max(worst, abs(lhs - rhs))
                    count += 1
        assert count == 100
        assert worst <= 1e-8, f"{name} adjointness residual {worst:.3e}"

    worst_closed = 0.0
    for dim in (2, 3, 4):
        for s in _seeds(300 + dim, 7):
            U = sample_unitary(dim, s)
            A = sample(OperatorKind.EFFECT, dim, s)
            worst_closed = max(
                worst_closed, max_norm(wp(unitary_channel(U), A) - U.conj().T @ A @ U)
            )
    assert worst_closed <= 1e-8, f"closed-form residual {worst_closed:.3e}"

    for channels in variants.values():
        ch = channels[0]
        top = identity(ch.dim_out)
        assert max_norm(wp(ch, top) - identity(ch.dim_in)) <= 1e-10


def test_dim_one_scalar_collapse():
    """At dim 1 the kinds trim down to the familiar scalar families."""
    B, SA, POS, EF, PR, DM = (
        OperatorKind.BOUNDED,
        OperatorKind.SELF_ADJOINT,
        OperatorKind.POSITIVE,
        OperatorKind.EFFECT,
        OperatorKind.PROJECTION,
        OperatorKind.DENSITY,
    )
    grid = {
        2 + 1j: {B},
        -3.5j: {B},
        -0.5: {B, SA},
        -2.0: {B, SA},
        2.0: {B, SA, POS},
        1.25: {B, SA, POS},
        0.7: {B, SA, POS, EF},
        0.25: {B, SA, POS, EF},
        0.0: {B, SA, POS, EF, PR},
        1.0: {B, SA, POS, EF, PR, DM},
    }
    for z, expected in grid.items():
        got = set(classify(mat([[z]])).kinds)
        assert got == expected, f"scalar {z}: kinds {got} != {expected}"
