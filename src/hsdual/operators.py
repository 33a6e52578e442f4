"""Operator families on a finite-dimensional Hilbert space.

A square complex matrix is graded into nested kinds: every matrix is bounded;
self-adjoint, positive, effect, projection and density operators form
successively constrained families.  Membership is decided spectrally with
explicit tolerances, and each kind comes with a seed-deterministic sampler.
``classify`` reports every kind with its spectral witness; ``in_kind`` answers
for one kind and computes a spectrum only when that kind has an eigenvalue
threshold (positive, effect, density).  Both read their thresholds from one
private owner, so they cannot disagree.  Every spectrum comes from
:func:`hsdual.linalg.hermitian_eig`, called with the caller's matrix and tol
as they are: it owns the Hermiticity check, the symmetrization and the
convergence target, min(tol, 1e-12) floored at machine epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    LinalgError,
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


#: Kinds decided by an eigenvalue threshold; the others need no spectrum.
_SPECTRAL = (OperatorKind.POSITIVE, OperatorKind.EFFECT, OperatorKind.DENSITY)


def _meets(kind: OperatorKind, A: np.ndarray, tol: float, eigenvalues) -> bool:
    """The threshold of ``kind`` for an A already self-adjoint within tol.

    The one owner of every membership threshold, shared by classify and
    in_kind.  ``eigenvalues`` (descending) is read for the spectral kinds only.
    """
    if kind == OperatorKind.PROJECTION:
        return max_norm(A @ A - A) <= tol
    if kind not in _SPECTRAL:
        return True
    positive = float(eigenvalues[-1]) >= -tol
    if kind == OperatorKind.EFFECT:
        return positive and float(eigenvalues[0]) <= 1.0 + tol
    if kind == OperatorKind.DENSITY:
        return positive and abs(trace(A) - 1.0) <= tol
    return positive


def classify(A: np.ndarray, tol: float = DEFAULT_TOL) -> KindReport:
    """Decide every kind membership for A at the given tolerance.

    Self-adjointness is a max-norm test on A - A^dagger; positivity and the
    effect bound are eigenvalue thresholds (min >= -tol, max <= 1 + tol);
    projections must satisfy A^2 = A in max-norm; densities are positive with
    trace within tol of 1.  A self-adjoint A always costs one eigensolve, for
    the witness; to ask about one kind, in_kind is cheaper.
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        return KindReport((OperatorKind.BOUNDED,), None)
    eigenvalues = tuple(float(x) for x in hermitian_eig(A, tol).eigenvalues)
    kinds = tuple(k for k in KIND_ORDER if _meets(k, A, tol, eigenvalues))
    return KindReport(kinds, eigenvalues)


def in_kind(A: np.ndarray, kind: OperatorKind, tol: float = DEFAULT_TOL) -> bool:
    """Whether A belongs to ``kind`` at tol; always classify(A, tol).has(kind).

    Bounded, self-adjoint and projection are decided without a spectrum; only
    positive, effect and density call hermitian_eig.
    """
    A = as_matrix(A)
    if kind == OperatorKind.BOUNDED:
        return True
    if not is_hermitian(A, tol):
        return False
    eigenvalues = hermitian_eig(A, tol).eigenvalues if kind in _SPECTRAL else None
    return _meets(kind, A, tol, eigenvalues)


def pos_neg_split(A: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split a self-adjoint A into positive parts (P, N) with P - N = A.

    P collects the spectral components with nonnegative eigenvalue, N the
    negated negative ones; P and N act on orthogonal subspaces, so P @ N is
    zero up to solver noise.  NotHermitian if A is not self-adjoint within tol.
    """
    dec = hermitian_eig(A, tol)
    V, Vh, lam = dec.vectors, dec.vectors.conj().T, dec.eigenvalues
    return (V * np.maximum(lam, 0.0)) @ Vh, (V * np.maximum(-lam, 0.0)) @ Vh


def sa_components(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self-adjoint pair (X, Y) with A = X + iY: the real/imaginary parts
    of A in the operator sense."""
    A = as_matrix(A)
    X = (A + A.conj().T) / 2.0
    Y = (-1j * A + 1j * A.conj().T) / 2.0
    return X, Y


def loewner_leq(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Loewner order: A <= B iff B - A has no eigenvalue below -tol.

    NotHermitian if B - A is not self-adjoint within tol.
    """
    dec = hermitian_eig(as_matrix(B) - as_matrix(A), tol)
    return float(dec.eigenvalues[-1]) >= -tol


# --- samplers ---------------------------------------------------------------
#
# Every sampler consumes a single numpy Generator seeded from the caller's
# integer, so identical (kind, dim, seed) calls are bit-identical.


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return G / np.sqrt(2.0 * dim)


def _unitary_from(rng: np.random.Generator, dim: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    r = np.diag(R)
    if np.abs(r).min() < 1e-12:
        raise ValueError("QR hit a (numerically) dependent column")
    return Q * (r / np.abs(r))


def sample_unitary(dim: int, seed: int) -> np.ndarray:
    """Seed-deterministic unitary: the Q of a complex Gaussian's QR with R's
    diagonal made positive, which is unique and so equals Gram-Schmidt on the
    Gaussian's columns.  Seeds replay within one version and NumPy build."""
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
        eigs = hermitian_eig(H).eigenvalues
        lo = float(eigs[-1])
        hi = float(eigs[0])
        if hi - lo > 1e-9:
            return (H - lo * identity(dim)) / (hi - lo)
        return float(np.clip(hi, 0.0, 1.0)) * identity(dim)
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
    "in_kind",
    "pos_neg_split",
    "sa_components",
    "loewner_leq",
    "sample",
    "sample_unitary",
    "projector_onto",
    "identity",
]
