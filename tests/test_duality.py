"""Trace-pairing functionals and their black-box inversion.

The reconstruction is exercised end to end: operator -> functional ->
operator, with the functional treated as an opaque callable throughout.
Planted misbehaving functionals check that the contract guard actually
fires.
"""

import numpy as np
import pytest

from hsdual.duality import (
    DUAL_KINDS,
    ContractViolation,
    Functional,
    KindMismatch,
    NotInKind,
    _spot_check,
    hs_forward,
    hs_inverse,
    naturality_check,
)
from hsdual.linalg import DEFAULT_TOL, approx_eq, identity, max_norm, outer_unit, trace
from hsdual.operators import OperatorKind, classify, sample, sample_unitary

from conftest import mat

B = OperatorKind.BOUNDED
SA = OperatorKind.SELF_ADJOINT
POS = OperatorKind.POSITIVE
EF = OperatorKind.EFFECT
DM = OperatorKind.DENSITY


# --- forward -----------------------------------------------------------------


def test_forward_identity_pairs_to_dimension():
    f = hs_forward(B, identity(3))
    assert f(identity(3)) == 3.0


def test_forward_z_against_x_vanishes(pauli):
    f = hs_forward(SA, pauli["Z"])
    assert abs(f(pauli["X"])) < 1e-12


def test_forward_maximally_mixed_halves_projections(p0):
    f = hs_forward(DM, identity(2) / 2)
    assert abs(f(p0) - 0.5) < 1e-12


def test_forward_bounded_entry_probe():
    # pairing tr(A B^dagger) at B = |j><k| reads off the (j,k) entry
    A = mat([[1, 2 + 1j], [3j, -4]])
    f = hs_forward(B, A)
    for j in range(2):
        for k in range(2):
            assert abs(f(outer_unit(j, k, 2)) - A[j, k]) < 1e-12


def test_forward_is_conjugate_linear_in_probe():
    A = sample(B, 3, 1)
    f = hs_forward(B, A)
    B1, B2 = sample(B, 3, 2), sample(B, 3, 3)
    z = 0.8 - 0.6j
    assert abs(f(z * B1 + B2) - (z.conjugate() * f(B1) + f(B2))) < 1e-12


def test_forward_real_on_self_adjoint_pairs():
    for seed in range(10):
        A = sample(SA, 3, seed)
        Bp = sample(SA, 3, seed + 20)
        assert abs(hs_forward(SA, A)(Bp).imag) <= 1e-10


def test_forward_nonnegative_on_positive_pairs():
    for seed in range(10):
        A = sample(POS, 3, seed)
        Bp = sample(POS, 3, seed + 20)
        assert hs_forward(POS, A)(Bp).real >= -1e-10


def test_forward_effect_density_pairing_lands_in_unit_interval():
    for seed in range(10):
        A = sample(EF, 3, seed)
        rho = sample(DM, 3, seed + 20)
        v = hs_forward(EF, A)(rho)
        assert -1e-10 <= v.real <= 1 + 1e-10 and abs(v.imag) <= 1e-10


def test_forward_rejects_wrong_kind():
    with pytest.raises(KindMismatch):
        hs_forward(DM, identity(2))  # trace 2
    with pytest.raises(KindMismatch):
        hs_forward(OperatorKind.PROJECTION, identity(2))  # no pairing for projections


# --- inverse -----------------------------------------------------------------


def test_inverse_bounded_recovers_unit():
    target = outer_unit(0, 1, 2)
    f = hs_forward(B, target)
    assert approx_eq(hs_inverse(B, f), target, 1e-10)


def test_inverse_constant_half_on_densities_is_half_identity():
    h = Functional(EF, 2, lambda rho: 0.5, note="constant 1/2")
    assert approx_eq(hs_inverse(EF, h), identity(2) / 2, 1e-9)


def test_inverse_density_from_effect_evaluation(p0):
    g = Functional(DM, 2, lambda E: trace(p0 @ E), note="effects against |0><0|")
    assert approx_eq(hs_inverse(DM, g), p0, 1e-9)


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.value)
def test_round_trip_small(kind):
    for dim in (1, 2, 3):
        for seed in range(5):
            A = sample(kind, dim, seed)
            A2 = hs_inverse(kind, hs_forward(kind, A))
            assert max_norm(A2 - A) <= 1e-9, (kind, dim, seed)


def test_functional_side_round_trip():
    for kind, probe_kind in [(B, B), (SA, SA), (POS, POS), (EF, DM), (DM, EF)]:
        A = sample(kind, 3, 11)
        f = hs_forward(kind, A)
        g = hs_forward(kind, hs_inverse(kind, f))
        for seed in range(5):
            probe = sample(probe_kind, 3, 300 + seed)
            assert abs(f(probe) - g(probe)) <= 1e-9


def test_triangle_density_through_effect_pairing():
    # pairing a fixed density against all effects, then inverting on the
    # density side, must give back the density
    for seed in range(5):
        rho = sample(DM, 3, seed)
        g = Functional(DM, 3, lambda E, r=rho: trace(r @ E))
        assert approx_eq(hs_inverse(DM, g), rho, 1e-8)


def test_inverse_rejects_kind_confusion():
    f = hs_forward(SA, sample(SA, 2, 0))
    with pytest.raises(KindMismatch):
        hs_inverse(POS, f)
    with pytest.raises(KindMismatch):
        hs_inverse(OperatorKind.PROJECTION, f)


def test_inverse_flags_nonlinear_functional():
    bad = Functional(SA, 2, lambda Bm: trace(Bm @ Bm), note="quadratic")
    with pytest.raises(ContractViolation):
        hs_inverse(SA, bad)


def test_inverse_flags_effect_functional_leaving_unit_interval():
    bad = Functional(EF, 2, lambda rho: 2.0 * trace(rho), note="doubled trace")
    with pytest.raises(ContractViolation):
        hs_inverse(EF, bad)


def test_inverse_flags_functional_outside_kind():
    # linear and well-behaved, but induced by 2I which is not a density
    h = Functional(DM, 2, lambda E: trace(2 * identity(2) @ E))
    with pytest.raises((NotInKind, ContractViolation)):
        hs_inverse(DM, h)


def test_inverse_scaling_consistency_guard():
    # effect-side functional that silently renormalizes breaks the
    # scale-independence check of the density reconstruction
    def sneaky(E):
        t = max_norm(E)
        return trace(E) / (1.0 + t)

    with pytest.raises((ContractViolation, NotInKind)):
        hs_inverse(DM, Functional(DM, 2, sneaky))


@pytest.mark.parametrize("kind", [SA, POS, EF, DM], ids=lambda k: k.value)
def test_inverse_probes_dim_squared_pure_states(kind):
    # beyond the spot check, a self-adjoint kind costs exactly dim^2 evaluations
    for dim in (1, 2, 3, 4):
        f = hs_forward(kind, sample(kind, dim, dim))
        calls = []

        def counting(Bm, f=f):
            calls.append(Bm)
            return f(Bm)

        counted = Functional(kind, dim, counting)
        _spot_check(counted, DEFAULT_TOL)
        spot = len(calls)
        calls.clear()
        hs_inverse(kind, counted)
        assert len(calls) - spot == dim * dim, (kind, dim)


# --- naturality ----------------------------------------------------------------


def test_naturality_identity_conjugation_is_exact():
    A = sample(B, 3, 1)
    Bp = sample(B, 3, 2)
    assert naturality_check(identity(3), A, Bp) == 0.0


def test_naturality_pauli_x_projector(pauli, p0):
    assert naturality_check(pauli["X"], p0, p0) <= 1e-12


def test_naturality_random_triples():
    rng = np.random.default_rng(31)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        C = sample_unitary(dim, int(rng.integers(0, 2**62)))
        A = sample(B, dim, int(rng.integers(0, 2**62)))
        Bp = sample(B, dim, int(rng.integers(0, 2**62)))
        assert naturality_check(C, A, Bp) <= 1e-9


# --- spot check against the reconstruction --------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_inverse_flags_affine_density_functional(dim):
    # 0.5 + 0.5 tr(rho E) is 1 at E = I and in [0, 1] on effects, and it
    # agrees with 0.5 I + 0.5 rho on every trace-one effect; only probes of
    # other traces tell the offset from a linear functional
    rho = sample(DM, dim, 5)
    g = Functional(DM, dim, lambda E: 0.5 + 0.5 * trace(rho @ E), note="affine")
    with pytest.raises(ContractViolation):
        hs_inverse(DM, g)


def test_inverse_flags_offset_bounded_functional():
    A = sample(B, 3, 4)
    f = Functional(B, 3, lambda Bm: 0.3 + trace(A @ Bm.conj().T), note="offset pairing")
    with pytest.raises(ContractViolation):
        hs_inverse(B, f)


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.value)
def test_inverse_total_evaluations(kind):
    # 16 spot probes (plus f(I) for density) and dim^2 reconstruction probes
    for dim in (1, 2, 3, 4):
        f = hs_forward(kind, sample(kind, dim, dim))
        calls = []

        def counting(Bm, f=f):
            calls.append(Bm)
            return f(Bm)

        hs_inverse(kind, Functional(kind, dim, counting))
        extra = 17 if kind == DM else 16
        assert len(calls) == extra + dim * dim, (kind, dim)


@pytest.mark.parametrize("kind", [SA, POS, EF, DM], ids=lambda k: k.value)
def test_round_trip_of_operator_hermitian_only_within_tol(kind):
    # classify accepts A + 0.49 tol S for anti-Hermitian S of unit max-norm
    # (Hermitian residual 0.98 tol); the round trip returns the Hermitian part.
    tol = DEFAULT_TOL
    checked = 0
    for dim in range(2, 7):
        for seed in range(40):
            G = sample(B, dim, 1000 + seed)
            S = (G - G.conj().T) / max_norm(G - G.conj().T)
            A = sample(kind, dim, seed) + 0.49 * tol * S
            if not classify(A, tol).has(kind):
                continue
            A2 = hs_inverse(kind, hs_forward(kind, A, tol), tol)
            assert max_norm(A2 - (A + A.conj().T) / 2) <= tol, (dim, seed)
            checked += 1
    assert checked >= 100
