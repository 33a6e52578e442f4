"""Kind classification, spectral splits, the Loewner order, and samplers."""

import numpy as np
import pytest

from hsdual.linalg import approx_eq, identity, max_norm, trace, zeros
from hsdual.operators import (
    KIND_ORDER,
    OperatorKind,
    classify,
    in_kind,
    loewner_leq,
    pos_neg_split,
    projector_onto,
    sa_components,
    sample,
    sample_unitary,
)
from hsdual.linalg import NotHermitian, hermitian_eig

from conftest import mat

B = OperatorKind.BOUNDED
SA = OperatorKind.SELF_ADJOINT
POS = OperatorKind.POSITIVE
EF = OperatorKind.EFFECT
PR = OperatorKind.PROJECTION
DM = OperatorKind.DENSITY


# --- classify ------------------------------------------------------------------


def test_classify_identity_dim2():
    report = classify(identity(2))
    assert report.has(SA) and report.has(POS) and report.has(EF) and report.has(PR)
    assert not report.has(DM)  # trace 2


def test_classify_maximally_mixed():
    report = classify(identity(2) / 2)
    assert report.has(DM) and report.has(EF)
    assert not report.has(PR)


def test_classify_scalar_dim1():
    report = classify(mat([[0.7]]))
    assert report.has(EF) and report.has(POS) and report.has(SA)
    assert not report.has(PR) and not report.has(DM)


def test_classify_non_hermitian_is_bounded_only():
    report = classify(mat([[0, 1], [0, 0]]))
    assert report.kinds == (B,)
    assert report.eigenvalues is None


def test_classify_respects_kind_implications_on_samples():
    implications = {PR: EF, EF: POS, DM: POS, POS: SA, SA: B}
    for kind in (SA, POS, EF, PR, DM):
        for seed in range(25):
            report = classify(sample(kind, 3, seed))
            assert report.has(kind), (kind, seed)
            present = set(report.kinds)
            for k in present:
                if k in implications:
                    assert implications[k] in present


def test_classify_eigenvalue_witness_is_descending():
    report = classify(sample(SA, 4, 99))
    ev = report.eigenvalues
    assert ev is not None
    assert all(x >= y for x, y in zip(ev, ev[1:]))


def test_kind_report_json():
    obj = classify(identity(2) / 2).to_json()
    assert "Density" in obj["kinds"]
    assert obj["eigenvalues"] == [0.5, 0.5]


def test_kind_order_weakest_to_strongest():
    assert KIND_ORDER[0] is B
    assert set(KIND_ORDER) == set(OperatorKind)


# --- pos_neg_split ---------------------------------------------------------------


def test_split_pauli_z():
    P, N = pos_neg_split(mat([[1, 0], [0, -1]]))
    assert approx_eq(P, mat([[1, 0], [0, 0]]), 1e-12)
    assert approx_eq(N, mat([[0, 0], [0, 1]]), 1e-12)


def test_split_pauli_x():
    # spectral projectors of X are (I +/- X)/2
    P, N = pos_neg_split(mat([[0, 1], [1, 0]]))
    assert approx_eq(P, mat([[0.5, 0.5], [0.5, 0.5]]), 1e-10)
    assert approx_eq(N, mat([[0.5, -0.5], [-0.5, 0.5]]), 1e-10)


def test_split_of_positive_is_trivial():
    A = sample(POS, 3, 5)
    P, N = pos_neg_split(A)
    assert approx_eq(P, A, 1e-9)
    assert max_norm(N) < 1e-9


def test_split_reassembles_and_is_orthogonal():
    for seed in range(10):
        A = sample(SA, 4, seed)
        P, N = pos_neg_split(A)
        assert approx_eq(P - N, A, 1e-9)
        assert max_norm(P @ N) < 1e-9
        assert classify(P).has(POS) and classify(N).has(POS)


def test_split_traces_match_eigenvalue_sums():
    for seed in range(10):
        A = sample(SA, 5, seed + 100)
        P, N = pos_neg_split(A)
        ev = hermitian_eig(A, tol=1e-12).eigenvalues
        assert abs(trace(P).real - sum(x for x in ev if x >= 0)) < 1e-9
        assert abs(trace(N).real - sum(-x for x in ev if x < 0)) < 1e-9


def test_split_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        pos_neg_split(mat([[0, 1], [0, 0]]))


# --- sa_components ---------------------------------------------------------------


def test_sa_components_of_hermitian():
    A = sample(SA, 3, 7)
    X, Y = sa_components(A)
    assert approx_eq(X, A, 1e-12)
    assert max_norm(Y) < 1e-12


def test_sa_components_of_i_times_identity():
    X, Y = sa_components(1j * identity(2))
    assert max_norm(X) < 1e-12
    assert approx_eq(Y, identity(2), 1e-12)


def test_sa_components_of_upper_unit():
    X, Y = sa_components(mat([[0, 1], [0, 0]]))
    assert approx_eq(X, mat([[0, 0.5], [0.5, 0]]), 1e-12)
    assert approx_eq(Y, mat([[0, -0.5j], [0.5j, 0]]), 1e-12)


def test_sa_components_reassemble():
    A = sample(B, 4, 8)
    X, Y = sa_components(A)
    assert approx_eq(X + 1j * Y, A, 1e-12)
    assert classify(X).has(SA) and classify(Y).has(SA)


# --- loewner_leq -----------------------------------------------------------------


def test_loewner_zero_below_positive():
    A = sample(POS, 3, 9)
    assert loewner_leq(zeros(3), A)


def test_loewner_reflexive():
    A = sample(SA, 3, 10)
    assert loewner_leq(A, A)


def test_loewner_pauli_x_below_identity():
    # I - X has eigenvalues {0, 2}
    assert loewner_leq(mat([[0, 1], [1, 0]]), identity(2))


def test_loewner_antisymmetric_on_samples():
    tol = 1e-9
    for seed in range(15):
        A = sample(SA, 3, seed)
        D = sample(POS, 3, seed + 50)
        assert loewner_leq(A, A + D) or max_norm(D) < tol
        if loewner_leq(A + D, A):  # both ways forces near-equality
            assert approx_eq(A, A + D, 10 * tol)


def test_loewner_transitive_on_samples():
    for seed in range(10):
        A = sample(SA, 3, seed)
        B1 = A + sample(POS, 3, seed + 1)
        C = B1 + sample(POS, 3, seed + 2)
        assert loewner_leq(A, B1) and loewner_leq(B1, C)
        assert loewner_leq(A, C)


def test_projection_orthosupplement_is_positive():
    for seed in range(10):
        P = sample(PR, 3, seed)
        assert classify(identity(3) - P).has(POS)
        assert loewner_leq(P, identity(3))


def test_loewner_rejects_non_hermitian_difference():
    with pytest.raises(NotHermitian):
        loewner_leq(mat([[0, 1], [0, 0]]), zeros(2))


# --- samplers --------------------------------------------------------------------


def test_samplers_are_deterministic():
    for kind in OperatorKind:
        a = sample(kind, 3, 42)
        b = sample(kind, 3, 42)
        assert a.tobytes() == b.tobytes()


def test_samplers_vary_with_seed():
    assert not approx_eq(sample(DM, 3, 1), sample(DM, 3, 2), 1e-3)


def test_samples_classify_as_requested_kind():
    for kind in OperatorKind:
        for dim in (1, 2, 4):
            for seed in (0, 3):
                assert classify(sample(kind, dim, seed)).has(kind), (kind, dim, seed)


def test_density_samples_have_unit_trace():
    for seed in range(5):
        assert abs(trace(sample(DM, 3, seed)) - 1.0) < 1e-12


def test_projection_samples_are_idempotent():
    for seed in range(8):
        P = sample(PR, 4, seed)
        assert max_norm(P @ P - P) <= 1e-9


def test_sample_unitary_is_unitary():
    U = sample_unitary(4, 17)
    assert max_norm(U.conj().T @ U - identity(4)) < 1e-10


def test_sample_rejects_bad_dim():
    with pytest.raises(ValueError):
        sample(DM, 0, 1)


def test_projector_onto_vector():
    P = projector_onto(np.array([1.0, 1.0]))
    assert approx_eq(P, mat([[0.5, 0.5], [0.5, 0.5]]), 1e-12)
    with pytest.raises(ValueError):
        projector_onto(np.zeros(2))


@pytest.mark.parametrize("kind", ["Positive", None, 3])
def test_in_kind_refuses_what_is_not_a_kind(kind):
    with pytest.raises(ValueError, match="unknown operator kind"):
        in_kind(-identity(2), kind)
