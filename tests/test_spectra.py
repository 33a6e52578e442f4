"""Adversarial spectra: the spectral policy checked against known eigenvalues.

Each case draws a real spectrum and conjugates diag(spectrum) by a sampled
unitary, so the eigenvalues every spectral decision should see are known in
advance.  The spectra are degenerate, rank-deficient, or sit at 0 and 1 with
offsets of +-tol/2 (inside a kind boundary) and +-2 tol (outside it).
classify, pos_neg_split, loewner_leq and the hs_forward / hs_inverse round
trip are checked against that spectrum, and in_kind against classify.  A quantity within rounding of a
boundary decides nothing and is not asserted on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsdual.duality import ContractViolation, Functional, NotInKind, hs_forward, hs_inverse
from hsdual.linalg import hermitian_eig, max_norm, trace, zeros
from hsdual.operators import (
    OperatorKind,
    classify,
    in_kind,
    loewner_leq,
    pos_neg_split,
    sample_unitary,
)

SA = OperatorKind.SELF_ADJOINT
POS = OperatorKind.POSITIVE
EF = OperatorKind.EFFECT
PR = OperatorKind.PROJECTION
DM = OperatorKind.DENSITY

#: Rounding allowance: conjugating a spectrum of size <= 2 by a unitary, and
#: solving for it again, moves eigenvalues, traces and entries by ~1e-15.
EPS = 1e-12


def _side(x: float, bound: float) -> int:
    """+1 if x is clearly above bound, -1 if clearly below, 0 within rounding."""
    return 0 if abs(x - bound) <= EPS else (1 if x > bound else -1)


def _and(a, b):
    """Three-valued conjunction: None stands for undecided."""
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _decided(side: int, want: int):
    return None if side == 0 else side == want


@st.composite
def _case(draw):
    tol = draw(st.sampled_from([1e-9, 1e-6]))
    dim = draw(st.integers(1, 4))
    offset = st.sampled_from([0.0, tol / 2, -tol / 2, 2 * tol, -2 * tol])
    atom = st.one_of(
        st.builds(lambda base, d: base + d, st.sampled_from([0.0, 1.0]), offset),
        st.floats(0.05, 0.95),
        st.floats(-1.0, -0.05),
        st.floats(1.05, 2.0),
    )
    if draw(st.booleans()):
        # A few atoms shared among dim eigenvalues: degenerate, and
        # rank-deficient whenever 0 is among them.
        pool = draw(st.lists(atom, min_size=1, max_size=dim))
        lam = [draw(st.sampled_from(pool)) for _ in range(dim)]
    else:
        # A density spectrum (zeros allowed) whose trace is moved off 1.
        weights = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=dim, max_size=dim))
        weights[draw(st.integers(0, dim - 1))] = 1.0
        lam = [w / sum(weights) for w in weights]
        lam[draw(st.integers(0, dim - 1))] += draw(offset)
    U = sample_unitary(dim, draw(st.integers(0, 2**16)))
    return tol, np.array(lam), (U * np.array(lam)) @ U.conj().T


def _expected_kinds(lam: np.ndarray, tol: float) -> dict:
    positive = _decided(_side(lam.min(), -tol), +1)
    g = lam * lam - lam  # spectrum of A^2 - A
    if g.size and np.abs(g).max() < tol - EPS:
        projection = True
    elif np.sqrt(np.sum(g * g)) / lam.size > tol + EPS:
        # max-norm >= Frobenius norm / dim
        projection = False
    else:
        projection = None
    return {
        SA: True,
        POS: positive,
        EF: _and(positive, _decided(_side(lam.max(), 1.0 + tol), -1)),
        PR: projection,
        DM: _and(positive, _decided(_side(abs(lam.sum() - 1.0), tol), -1)),
    }


def _pos_neg_reference(A: np.ndarray, tol: float):
    """The split as a sum of one rank-one projector per eigenpair."""
    dec = hermitian_eig(A, tol)
    P, N = zeros(A.shape[0]), zeros(A.shape[0])
    for lam, v in zip(dec.eigenvalues, dec.vectors.T):
        block = np.outer(v, v.conj())
        if lam >= 0.0:
            P += lam * block
        else:
            N += -lam * block
    return P, N


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(case=_case())
def test_spectral_policy_on_adversarial_spectra(case):
    tol, lam, A = case
    expected = _expected_kinds(lam, tol)

    report = classify(A, tol)
    assert report.eigenvalues is not None
    assert list(report.eigenvalues) == sorted(report.eigenvalues, reverse=True)
    assert np.abs(np.array(report.eigenvalues) - np.sort(lam)[::-1]).max() <= EPS
    for kind, want in expected.items():
        if want is not None:
            assert report.has(kind) == want, (kind, lam, tol)

    P, N = pos_neg_split(A, tol)
    assert max_norm(P - N - A) <= EPS
    assert max_norm(P @ N) <= EPS
    assert classify(P, tol).has(POS) and classify(N, tol).has(POS)
    assert abs(trace(N).real - np.maximum(-lam, 0.0).sum()) <= EPS

    if expected[POS] is not None:
        assert loewner_leq(zeros(lam.size), A, tol) == expected[POS]

    for kind in (SA, POS, EF, DM):
        # A positive kind with an eigenvalue in [-tol, 0) is pinned by
        # test_positive_round_trip_with_eigenvalue_just_below_zero.
        if expected[kind] is True and not (kind == POS and lam.min() < 0.0):
            R = hs_inverse(kind, hs_forward(kind, A, tol), tol)
            assert max_norm(R - A) <= EPS, (kind, lam, tol)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=_case())
def test_pos_neg_split_is_the_eigenpair_sum_of_hermitian_eig(case):
    # Same decomposition, so only the summation order differs.
    tol, _, A = case
    P, N = pos_neg_split(A, tol)
    Pref, Nref = _pos_neg_reference(A, tol)
    assert max_norm(P - Pref) <= 1e-14 and max_norm(N - Nref) <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_positive_round_trip_with_eigenvalue_just_below_zero(dim):
    # classify admits eigenvalue -tol/2 as positive; a positive spot probe
    # B then sees tr(A B) >= -tol/2 tr(B), which can be below -tol.
    tol = 1e-9
    U = sample_unitary(dim, 3)
    for rest in (0.0, 0.5):
        lam = np.array([-tol / 2] + [rest] * (dim - 1))
        A = (U * lam) @ U.conj().T
        assert max_norm(hs_inverse(POS, hs_forward(POS, A, tol), tol) - A) <= EPS
        B = (U * np.where(lam < 0, -2 * tol, lam)) @ U.conj().T
        with pytest.raises((ContractViolation, NotInKind)):
            hs_inverse(POS, Functional(POS, dim, lambda X, B=B: trace(B @ X)), tol)


@st.composite
def _case_near_hermitian(draw):
    # The spectra above, plus an anti-Hermitian part that leaves the matrix
    # self-adjoint within tol, or not, by a margin of at most a factor 2.
    tol, lam, A = draw(_case())
    G = sample_unitary(lam.size, draw(st.integers(0, 2**16)))
    S = (G - G.conj().T) / max(max_norm(G - G.conj().T), 1.0)
    return tol, A + draw(st.sampled_from([0.0, 0.25, 2.0])) * tol * S


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=_case_near_hermitian())
def test_in_kind_agrees_with_classify(case):
    tol, A = case
    report = classify(A, tol)
    for kind in OperatorKind:
        assert in_kind(A, kind, tol) == report.has(kind), (kind, tol)
