"""Operator families on a finite-dimensional Hilbert space.

A square complex matrix is graded into nested kinds: every matrix is bounded;
self-adjoint, positive, effect, projection and density operators form
successively constrained families.  Membership is decided spectrally (through
the Jacobi solver in :mod:`hsdual.linalg`) with explicit tolerances, and each
kind comes with a seed-deterministic sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    EIG_TOL,
    LinalgError,
    NotHermitian,
    as_matrix,
    hermitian_eig,
    identity,
    is_hermitian,
    max_norm,
    trace,
    zeros,
)


class NotPositive(LinalgError):
    """A positivity-only operation received a non-positive operator."""


class OperatorKind(Enum):
    BOUNDED = "Bounded"
    SELF_ADJOINT = "SelfAdjoint"
    POSITIVE = "Positive"
    EFFECT = "Effect"
    PROJECTION = "Projection"
    DENSITY = "Density"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Canonical report order, from weakest to strongest constraint.
KIND_ORDER = (
    OperatorKind.BOUNDED,
    OperatorKind.SELF_ADJOINT,
    OperatorKind.POSITIVE,
    OperatorKind.EFFECT,
    OperatorKind.PROJECTION,
    OperatorKind.DENSITY,
)


@dataclass(frozen=True)
class KindReport:
    """Classification outcome: which kinds hold, plus the spectral witness.

    ``eigenvalues`` is the descending real spectrum when the operator is
    self-adjoint within tolerance, and None otherwise (non-self-adjoint
    matrices have no spectral witness in this grading).
    """

    kinds: tuple[OperatorKind, ...]
    eigenvalues: tuple[float, ...] | None

    def has(self, kind: OperatorKind) -> bool:
        return kind in self.kinds

    def to_json(self) -> dict:
        return {
            "kinds": [k.value for k in self.kinds],
            "eigenvalues": list(self.eigenvalues) if self.eigenvalues is not None else None,
        }


def classify(A: np.ndarray, tol: float = DEFAULT_TOL) -> KindReport:
    """Decide every kind membership for A at the given tolerance.

    Self-adjointness is a max-norm test on A - A^dagger; positivity and the
    effect bound are eigenvalue thresholds (min >= -tol, max <= 1 + tol);
    projections must satisfy A^2 = A in max-norm; densities are positive with
    trace within tol of 1.
    """
    A = as_matrix(A)
    kinds = [OperatorKind.BOUNDED]
    eigenvalues = None

    if is_hermitian(A, tol):
        kinds.append(OperatorKind.SELF_ADJOINT)
        # Run the solver tighter than the membership tolerance so spectral
        # thresholds are never decided by solver noise; hand it the exactly
        # Hermitian part so the tight precondition is satisfied.
        dec = hermitian_eig((A + A.conj().T) / 2.0, tol=min(tol, EIG_TOL))
        eigenvalues = tuple(float(x) for x in dec.eigenvalues)

        lo = eigenvalues[-1]
        hi = eigenvalues[0]
        positive = lo >= -tol
        if positive:
            kinds.append(OperatorKind.POSITIVE)
            if hi <= 1.0 + tol:
                kinds.append(OperatorKind.EFFECT)
        if max_norm(A @ A - A) <= tol:
            kinds.append(OperatorKind.PROJECTION)
        if positive and abs(trace(A) - 1.0) <= tol:
            kinds.append(OperatorKind.DENSITY)

    ordered = tuple(k for k in KIND_ORDER if k in kinds)
    return KindReport(ordered, eigenvalues)


def pos_neg_split(A: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split a self-adjoint A into positive parts (P, N) with P - N = A.

    P collects the spectral components with nonnegative eigenvalue, N the
    negated negative ones; P and N act on orthogonal subspaces, so P @ N is
    zero up to solver noise.
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        raise NotHermitian("pos_neg_split requires a self-adjoint matrix")
    dec = hermitian_eig((A + A.conj().T) / 2.0, tol=EIG_TOL)
    n = A.shape[0]
    P = zeros(n)
    N = zeros(n)
    for lam, v in zip(dec.eigenvalues, dec.vectors.T):
        col = v.reshape(n, 1)
        block = col @ col.conj().T
        if lam >= 0.0:
            P += lam * block
        else:
            N += (-lam) * block
    return P, N


def sa_components(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self-adjoint pair (X, Y) with A = X + iY: the real/imaginary parts
    of A in the operator sense."""
    A = as_matrix(A)
    X = (A + A.conj().T) / 2.0
    Y = (-1j * A + 1j * A.conj().T) / 2.0
    return X, Y


def loewner_leq(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Loewner order: A <= B iff B - A has no eigenvalue below -tol."""
    A = as_matrix(A)
    B = as_matrix(B)
    D = B - A
    if not is_hermitian(D, tol):
        raise NotHermitian("loewner_leq requires a self-adjoint difference")
    dec = hermitian_eig((D + D.conj().T) / 2.0, tol=EIG_TOL)
    return float(dec.eigenvalues[-1]) >= -tol


# --- samplers ---------------------------------------------------------------
#
# Every sampler consumes a single numpy Generator seeded from the caller's
# integer, so identical (kind, dim, seed) calls are bit-identical.


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return G / np.sqrt(2.0 * dim)


def _gram_schmidt(G: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of G (two passes for numerical stability)."""
    n = G.shape[0]
    Q = np.zeros_like(G, dtype=np.complex128)
    for j in range(n):
        v = G[:, j].astype(np.complex128).copy()
        for _ in range(2):
            for i in range(j):
                v -= (Q[:, i].conj() @ v) * Q[:, i]
        norm = float(np.sqrt((v.conj() @ v).real))
        if norm < 1e-12:
            raise ValueError("Gram-Schmidt hit a (numerically) dependent column")
        Q[:, j] = v / norm
    return Q


def _unitary_from(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _gram_schmidt(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def sample_unitary(dim: int, seed: int) -> np.ndarray:
    """Seed-deterministic unitary: Gram-Schmidt applied to a complex Gaussian."""
    return _unitary_from(np.random.default_rng(seed), dim)


def sample(kind: OperatorKind, dim: int, seed: int) -> np.ndarray:
    """Seed-deterministic operator of the requested kind.

    bounded: scaled complex Gaussian; self-adjoint: its Hermitian part;
    positive: G G^dagger normalized to unit max-norm; density: positive
    renormalized to unit trace; effect: self-adjoint with the spectrum mapped
    affinely onto [0, 1]; projection: a random-rank sum of sampled
    orthonormal column projectors.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == OperatorKind.BOUNDED:
        return _gaussian(rng, dim)
    if kind == OperatorKind.SELF_ADJOINT:
        G = _gaussian(rng, dim)
        return (G + G.conj().T) / 2.0
    if kind == OperatorKind.POSITIVE:
        G = _gaussian(rng, dim)
        P = G @ G.conj().T
        return P / max_norm(P)
    if kind == OperatorKind.DENSITY:
        G = _gaussian(rng, dim)
        P = G @ G.conj().T
        return P / trace(P).real
    if kind == OperatorKind.EFFECT:
        G = _gaussian(rng, dim)
        H = (G + G.conj().T) / 2.0
        dec = hermitian_eig(H, tol=EIG_TOL)
        lo = float(dec.eigenvalues[-1])
        hi = float(dec.eigenvalues[0])
        if hi - lo > 1e-9:
            lam = (dec.eigenvalues - lo) / (hi - lo)
        else:
            lam = np.clip(dec.eigenvalues, 0.0, 1.0)
        V = dec.vectors
        E = (V * lam) @ V.conj().T
        return (E + E.conj().T) / 2.0
    if kind == OperatorKind.PROJECTION:
        U = _unitary_from(rng, dim)
        rank = int(rng.integers(0, dim + 1))
        cols = U[:, :rank]
        P = cols @ cols.conj().T
        return (P + P.conj().T) / 2.0 if rank else zeros(dim)
    raise ValueError(f"unknown operator kind: {kind!r}")


def projector_onto(column: np.ndarray) -> np.ndarray:
    """Rank-one projector onto a (nonzero) vector."""
    v = np.asarray(column, dtype=np.complex128).reshape(-1, 1)
    nrm = float(np.sqrt((v.conj().T @ v).real[0, 0]))
    if nrm == 0.0:
        raise ValueError("cannot project onto the zero vector")
    v = v / nrm
    return v @ v.conj().T


__all__ = [
    "OperatorKind",
    "KindReport",
    "KIND_ORDER",
    "NotPositive",
    "classify",
    "pos_neg_split",
    "sa_components",
    "loewner_leq",
    "sample",
    "sample_unitary",
    "projector_onto",
    "identity",
]
