"""Weighted points, formal differences, complex pairs, and their realizations."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

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
    s_zero,
)
from hsdual.linalg import NotHermitian, approx_eq, identity, max_norm, trace
from hsdual.operators import NotPositive, OperatorKind, classify, sample

from conftest import mat


# --- weighted points ---------------------------------------------------------


def test_s_add_combines_weights_and_mixes_points():
    u = s_add(s_point(1, 0.2), s_point(1, 0.6))
    assert u.weight == 2
    assert abs(u.point - 0.4) < 1e-15


def test_s_zero_is_the_unit():
    u = s_point(3, 0.5)
    assert s_add(u, s_zero()) == u
    assert s_add(s_zero(), u) == u


def test_s_scalar_action():
    u = s_point(3, "x")
    assert s_smul(2, u) == s_point(6, "x")
    assert s_smul(0, u).is_zero
    with pytest.raises(ValueError):
        s_smul(-1, u)


def test_s_point_validation():
    with pytest.raises(ValueError):
        s_point(0, "x")
    with pytest.raises(ValueError):
        WeightedPoint(0.0, "x")
    with pytest.raises(ValueError):
        WeightedPoint(1.0, None)


def test_s_add_matrix_points_are_convex_mixtures():
    rho1 = sample(OperatorKind.DENSITY, 2, 1)
    rho2 = sample(OperatorKind.DENSITY, 2, 2)
    u = s_add(s_point(1, rho1), s_point(3, rho2))
    assert u.weight == 4
    assert approx_eq(u.point, 0.25 * rho1 + 0.75 * rho2, 1e-12)
    assert classify(u.point).has(OperatorKind.DENSITY)


def test_s_add_is_commutative_and_associative_on_densities():
    rhos = [sample(OperatorKind.DENSITY, 3, s) for s in range(3)]
    ws = [1.0, 2.5, 0.5]
    u, v, w = (s_point(w_, r_) for w_, r_ in zip(ws, rhos))
    ab = s_add(u, v)
    ba = s_add(v, u)
    assert ab.weight == ba.weight and approx_eq(ab.point, ba.point, 1e-12)
    lhs = s_add(s_add(u, v), w)
    rhs = s_add(u, s_add(v, w))
    assert abs(lhs.weight - rhs.weight) < 1e-12
    assert approx_eq(lhs.point, rhs.point, 1e-12)


def test_s_iso_weighted_density_to_positive():
    assert approx_eq(s_iso_dm_pos(s_point(2, identity(2) / 2), 2), identity(2), 1e-12)
    assert max_norm(s_iso_dm_pos(s_zero(), 2)) == 0.0


def test_s_iso_positive_to_weighted_density(p0):
    u = s_iso_pos_dm(p0)
    assert abs(u.weight - 1.0) < 1e-12
    assert approx_eq(u.point, p0, 1e-12)

    v = s_iso_pos_dm(1.5 * identity(2))
    assert abs(v.weight - 3.0) < 1e-12
    assert approx_eq(v.point, identity(2) / 2, 1e-12)

    assert s_iso_pos_dm(np.zeros((2, 2))).is_zero


def test_s_iso_rejects_non_positive():
    with pytest.raises(NotPositive):
        s_iso_pos_dm(mat([[1, 0], [0, -1]]))


def test_s_iso_round_trips():
    for seed in range(10):
        Bp = sample(OperatorKind.POSITIVE, 3, seed)
        assert max_norm(s_iso_dm_pos(s_iso_pos_dm(Bp), 3) - Bp) <= 1e-10


def test_s_iso_forward_is_additive():
    u = s_point(0.7, sample(OperatorKind.DENSITY, 2, 3))
    v = s_point(1.1, sample(OperatorKind.DENSITY, 2, 4))
    lhs = s_iso_dm_pos(s_add(u, v), 2)
    rhs = s_iso_dm_pos(u, 2) + s_iso_dm_pos(v, 2)
    assert approx_eq(lhs, rhs, 1e-12)


def test_s_iso_scaling_representation_is_unique():
    # r*rho = s*sigma with rho, sigma densities forces r = s: the trace reads
    # off the weight, so the inverse map is well defined
    rho = sample(OperatorKind.DENSITY, 3, 11)
    B = 2.25 * rho
    u = s_iso_pos_dm(B)
    assert abs(u.weight - 2.25) < 1e-12
    assert abs(trace(B).real - u.weight) < 1e-12


# --- formal differences -------------------------------------------------------


def test_r_equiv_matches_cross_sums():
    a = Difference(3.0, 1.0)
    b = Difference(2.5, 0.5)
    assert r_equiv(a, b)
    assert not r_equiv(a, Difference(3.0, 0.0))


def test_r_cancellativity_on_operators():
    # A + C = B + C forces A = B in the positive cone, so the cross-sum
    # equivalence needs no existential slack term
    A = sample(OperatorKind.POSITIVE, 2, 1)
    Bp = sample(OperatorKind.POSITIVE, 2, 2)
    C = sample(OperatorKind.POSITIVE, 2, 3)
    if approx_eq(A + C, Bp + C, 1e-9):
        assert approx_eq(A, Bp, 1e-8)
    assert approx_eq((A + C) - C, A, 1e-12)


def test_r_group_operations():
    a = Difference(3.0, 1.0)
    assert r_iso_pos_sa(r_add(a, r_neg(a))) == 0.0
    assert r_iso_pos_sa(r_smul(2.0, a)) == 4.0
    assert r_iso_pos_sa(r_smul(-1.0, a)) == -2.0


def test_r_iso_scalar_carrier():
    assert r_iso_pos_sa(Difference(3.0, 1.0)) == 2.0
    assert r_iso_sa_pos(-2.0) == Difference(0.0, 2.0)
    assert r_iso_sa_pos(2.5) == Difference(2.5, 0.0)


def test_r_iso_pauli_x_splits(pauli):
    d = r_iso_sa_pos(pauli["X"])
    assert approx_eq(d.pos, mat([[0.5, 0.5], [0.5, 0.5]]), 1e-10)
    assert approx_eq(d.neg, mat([[0.5, -0.5], [-0.5, 0.5]]), 1e-10)
    assert approx_eq(r_iso_pos_sa(d), pauli["X"], 1e-10)


def test_r_iso_positive_passes_through():
    A = sample(OperatorKind.POSITIVE, 3, 5)
    assert approx_eq(r_iso_pos_sa(Difference(A, np.zeros((3, 3)))), A, 1e-12)


def test_r_iso_round_trips_up_to_equivalence():
    for seed in range(10):
        A = sample(OperatorKind.SELF_ADJOINT, 3, seed)
        d = r_iso_sa_pos(A)
        assert max_norm(r_iso_pos_sa(d) - A) <= 1e-9
        # a different representative of the same class maps to the same operator
        shift = sample(OperatorKind.POSITIVE, 3, seed + 40)
        d2 = Difference(d.pos + shift, d.neg + shift)
        assert r_equiv(d, d2, 1e-9)
        assert max_norm(r_iso_pos_sa(d2) - A) <= 1e-8


@pytest.mark.parametrize(
    "pos, neg, expected",
    [
        (np.int64(2), np.int64(1), 1),
        (np.float32(2), 0.0, 2.0),
        (Fraction(1, 2), 0, Fraction(1, 2)),
    ],
    ids=["int64", "float32", "Fraction"],
)
def test_r_iso_accepts_every_real_scalar_component(pos, neg, expected):
    assert r_iso_pos_sa(Difference(pos, neg)) == expected


def test_r_equiv_stays_exact_on_integers_beyond_float_precision():
    assert not r_equiv(Difference(2**60 + 1, 0), Difference(2**60, 0))
    assert r_equiv(Difference(10**400, 1), Difference(10**400 + 1, 2))


def test_r_iso_rejects_negative_components():
    with pytest.raises(NotPositive):
        r_iso_pos_sa(Difference(mat([[1, 0], [0, -1]]), np.zeros((2, 2))))
    with pytest.raises(NotPositive):
        r_iso_pos_sa(Difference(-1.0, 0.0))


# --- complex pairs --------------------------------------------------------------


def test_c_action_is_complex_multiplication():
    p = ComplexPair(1.5, -2.0)
    assert c_iso_sa_b(p) == 1.5 - 2j
    q = c_smul(1j, p)  # i*(1.5 - 2i) = 2 + 1.5i
    assert q == ComplexPair(2.0, 1.5)


def test_c_action_laws_on_random_scalars():
    rng = np.random.default_rng(51)
    X = sample(OperatorKind.SELF_ADJOINT, 2, 1)
    Y = sample(OperatorKind.SELF_ADJOINT, 2, 2)
    p = ComplexPair(X, Y)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        w = complex(rng.standard_normal(), rng.standard_normal())
        zw = c_smul(z, c_smul(w, p))
        both = c_smul(z * w, p)
        assert approx_eq(zw.re, both.re, 1e-12) and approx_eq(zw.im, both.im, 1e-12)
        add = c_smul(z + w, p)
        split = c_add(c_smul(z, p), c_smul(w, p))
        assert approx_eq(add.re, split.re, 1e-12) and approx_eq(add.im, split.im, 1e-12)


def test_c_iso_examples(pauli):
    assert approx_eq(c_iso_sa_b(ComplexPair(np.zeros((2, 2)), identity(2))), 1j * identity(2), 0.0)
    A = sample(OperatorKind.SELF_ADJOINT, 2, 3)
    assert approx_eq(c_iso_sa_b(ComplexPair(A, np.zeros((2, 2)))), A, 0.0)
    p = c_iso_b_sa(mat([[0, 1], [0, 0]]))
    assert approx_eq(p.re, pauli["X"] / 2, 1e-12)
    assert approx_eq(p.im, pauli["Y"] / 2, 1e-12)


def test_c_iso_round_trips():
    for seed in range(10):
        A = sample(OperatorKind.BOUNDED, 3, seed)
        p = c_iso_b_sa(A)
        assert max_norm(c_iso_sa_b(p) - A) <= 1e-12
    z = 0.75 - 0.25j
    assert c_iso_sa_b(c_iso_b_sa(z)) == z


def test_c_iso_intertwines_scalar_action():
    A = sample(OperatorKind.BOUNDED, 2, 9)
    z = 0.3 + 1.7j
    assert approx_eq(c_iso_sa_b(c_smul(z, c_iso_b_sa(A))), z * A, 1e-12)


def test_c_iso_rejects_non_self_adjoint():
    with pytest.raises(NotHermitian):
        c_iso_sa_b(ComplexPair(mat([[0, 1], [0, 0]]), np.zeros((2, 2))))


@pytest.mark.parametrize("z", [1 + 2j, np.complex64(1 + 2j), np.complex128(1 + 2j)])
def test_c_iso_rejects_every_non_real_scalar_component(z):
    with pytest.raises(NotHermitian):
        c_iso_sa_b(ComplexPair(z, 0.0))


# --- the whole chain --------------------------------------------------------------


def test_chain_densities_to_bounded():
    # build a bounded operator as (w0*rho0 - w1*rho1) + i*(w2*rho2 - w3*rho3),
    # then reassemble it through the three realizations in sequence
    rng = np.random.default_rng(61)
    for trial in range(5):
        dim = 3
        rhos = [sample(OperatorKind.DENSITY, dim, int(rng.integers(0, 2**62))) for _ in range(4)]
        w = [float(x) for x in rng.uniform(0.1, 2.0, size=4)]
        target = (w[0] * rhos[0] - w[1] * rhos[1]) + 1j * (w[2] * rhos[2] - w[3] * rhos[3])

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
        out = c_iso_sa_b(ComplexPair(re, im))
        assert max_norm(out - target) <= 1e-10, trial


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: s_point(np.nan, mat([[1, 0], [0, 0]])), ValueError),
        (lambda: WeightedPoint(np.nan, mat([[1, 0], [0, 0]])), ValueError),
        (lambda: s_smul(np.nan, s_point(1.0, mat([[1, 0], [0, 0]]))), ValueError),
        (lambda: c_iso_sa_b(ComplexPair(complex(1, np.nan), 0.0)), NotHermitian),
    ],
    ids=["s_point", "WeightedPoint", "s_smul", "c_iso_sa_b"],
)
def test_free_constructions_refuse_nan(call, error):
    with pytest.raises(error):
        call()


def test_integer_arrays_enter_the_arithmetic_as_floats():
    big = np.array([[2**62]])
    small = np.array([[0]], np.uint8), np.array([[1]], np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = r_add(Difference(big, big), Difference(big, big))
        pair = c_add(ComplexPair(big, big), ComplexPair(big, big))
        diff = r_iso_pos_sa(Difference(*small))
    assert total.pos[0, 0] == total.neg[0, 0] == pair.re[0, 0] == pair.im[0, 0] == 2.0**63
    assert diff.dtype == np.float64 and diff[0, 0] == -1.0
