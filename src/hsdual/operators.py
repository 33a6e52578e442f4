"""Operator families on a finite-dimensional Hilbert space.

A square complex matrix is graded into nested kinds: every matrix is bounded;
self-adjoint, positive, effect, projection and density operators form
successively constrained families.  Membership is decided spectrally with
explicit tolerances, and each kind comes with a seed-deterministic sampler;
``_projection_pool`` is the one place that draws projections, for ``sample``
and for the pools of ``effect.make_projections`` alike.  ``classify`` reports
every kind with its spectral witness; ``in_kind`` answers for one kind and
computes a spectrum only when that kind has an eigenvalue threshold (positive,
effect, density).  Both read their thresholds from one private owner, so they
cannot disagree.  Every spectrum comes from
:func:`hsdual.linalg.hermitian_eig`, called with the caller's matrix and tol
as they are: it owns the Hermiticity check, the symmetrization and the
convergence target, min(tol, 1e-12) floored at machine epsilon.  Only
``pos_neg_split`` rebuilds operators from eigenpairs, so it alone asks for
eigenvectors; ``classify``, ``in_kind``, ``loewner_leq`` and the effect
sampler read the spectrum alone (``vectors=False``).  Where a kind check needs
a spectrum, hermitian_eig's NotHermitian is its self-adjointness verdict, so
the Hermiticity residual is formed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    LinalgError,
    NotHermitian,
    _is_dim,
    _seeded_rng,
    as_matrix,
    hermitian_eig,
    hermitian_part,
    identity,
    is_hermitian,
    max_norm,
    trace,
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
KIND_ORDER = tuple(OperatorKind)


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
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow A @ A
            return max_norm(A @ A - A) <= tol  # a NaN residual fails
    if kind not in _SPECTRAL:
        return True
    positive = float(eigenvalues[-1]) >= -tol
    if kind == OperatorKind.EFFECT:
        return positive and float(eigenvalues[0]) <= 1.0 + tol
    if kind == OperatorKind.DENSITY:
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow the trace
            return positive and bool(np.abs(np.trace(A) - 1.0) <= tol)  # a NaN trace fails
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
    try:
        spectrum = hermitian_eig(A, tol, vectors=False).eigenvalues
    except NotHermitian:
        return KindReport((OperatorKind.BOUNDED,), None)
    eigenvalues = tuple(float(x) for x in spectrum)
    kinds = tuple(k for k in KIND_ORDER if _meets(k, A, tol, eigenvalues))
    return KindReport(kinds, eigenvalues)


def in_kind(A: np.ndarray, kind: OperatorKind, tol: float = DEFAULT_TOL) -> bool:
    """Whether A belongs to ``kind`` at tol; always classify(A, tol).has(kind).

    Bounded, self-adjoint and projection are decided without a spectrum; only
    positive, effect and density call hermitian_eig.  ValueError unless kind
    is an OperatorKind.
    """
    if not isinstance(kind, OperatorKind):
        raise ValueError(f"unknown operator kind: {kind!r}")
    A = as_matrix(A)
    if kind == OperatorKind.BOUNDED:
        return True
    if kind not in _SPECTRAL:
        return is_hermitian(A, tol) and _meets(kind, A, tol, None)
    try:
        eigenvalues = hermitian_eig(A, tol, vectors=False).eigenvalues
    except NotHermitian:
        return False
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
    return hermitian_part(A), hermitian_part(-1j * A)


def loewner_leq(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Loewner order: A <= B iff B - A has no eigenvalue below -tol.

    NotHermitian if B - A is not self-adjoint within tol, and
    DimensionMismatch if A and B differ in shape.  The difference is formed
    as B/2 - A/2, which finite entries cannot overflow, and judged at
    tol/2.  Halving is exact for normal floats, so the verdict is that of
    B - A at tol; only a tol below 2e-12 tightens the solver's convergence
    target.
    """
    B = as_matrix(B)
    A = as_matrix(A)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    dec = hermitian_eig(B / 2 - A / 2, tol / 2, vectors=False)
    return float(dec.eigenvalues[-1]) >= -tol / 2


# --- samplers ---------------------------------------------------------------
#
# Every sampler consumes a single numpy Generator seeded from the caller's
# integer, so identical (kind, dim, seed) calls are bit-identical.


def _standard_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _standard_gaussian(rng, dim) / np.sqrt(2.0 * dim)


def _unitary_from(G: np.ndarray) -> np.ndarray:
    """The unitaries of a (b, n, n) stack of complex Gaussians: each one's QR
    Q with R's diagonal made positive.  ValueError if any column of any
    Gaussian is (numerically) dependent on the ones before it."""
    Q, R = np.linalg.qr(G)
    r = np.diagonal(R, axis1=1, axis2=2)
    if (np.abs(r) < 1e-12).any():
        raise ValueError("QR hit a (numerically) dependent column")
    return Q * (r / np.abs(r))[:, None, :]


def _projection_pool(dim: int, seeds: Sequence[int], shared_basis=None) -> np.ndarray:
    """The (b, n, n) projections of ``seeds``, one generator each: the one
    place that draws projections.

    A generator draws a complex Gaussian and a rank, and keeps that many
    leading columns of the Gaussian's unitary; with ``shared_basis``, an even
    seed's generator draws a column mask of that basis instead.  One stacked
    QR serves the pool, and elements that keep the same columns share one
    product C C^dagger; a product over all columns with the rest zeroed would
    change the last bits.
    """
    bases = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    masks = np.empty((len(seeds), dim), dtype=bool)
    fresh = []
    for i, seed in enumerate(seeds):
        rng = _seeded_rng(seed)
        if shared_basis is not None and seed % 2 == 0:
            bases[i] = shared_basis
            masks[i] = rng.integers(0, 2, size=dim) == 1
        else:
            bases[i] = _standard_gaussian(rng, dim)
            masks[i] = np.arange(dim) < rng.integers(0, dim + 1)
            fresh.append(i)
    if fresh:
        bases[fresh] = _unitary_from(bases[fresh])
    P = np.empty(bases.shape, dtype=np.complex128)
    for mask in np.unique(masks, axis=0):
        at = np.flatnonzero((masks == mask).all(axis=1))
        C = bases[at][:, :, mask]
        P[at] = C @ C.conj().transpose(0, 2, 1)
    return hermitian_part(P)


def sample_unitary(dim: int, seed: int) -> np.ndarray:
    """Seed-deterministic unitary: the Q of a complex Gaussian's QR with R's
    diagonal made positive, which is unique and so equals Gram-Schmidt on the
    Gaussian's columns.  Seeds replay within one version and NumPy build;
    ValueError unless seed is an integer >= 0."""
    return _unitary_from(_standard_gaussian(_seeded_rng(seed), dim)[None])[0]


def sample(kind: OperatorKind, dim: int, seed: int) -> np.ndarray:
    """Seed-deterministic operator of the requested kind.

    bounded: scaled complex Gaussian; self-adjoint: its Hermitian part;
    positive: G G^dagger normalized to unit max-norm; density: positive
    renormalized to unit trace; effect: self-adjoint with the spectrum mapped
    affinely onto [0, 1]; projection: a random-rank sum of sampled
    orthonormal column projectors.  ValueError unless dim is an integer
    >= 1, seed an integer >= 0 and kind an OperatorKind.
    """
    if not _is_dim(dim):
        raise ValueError("dim must be an integer >= 1")
    if kind == OperatorKind.PROJECTION:
        return _projection_pool(dim, [seed])[0]
    rng = _seeded_rng(seed)
    if kind == OperatorKind.BOUNDED:
        return _gaussian(rng, dim)
    if kind == OperatorKind.SELF_ADJOINT:
        return hermitian_part(_gaussian(rng, dim))
    if kind == OperatorKind.POSITIVE:
        G = _gaussian(rng, dim)
        P = G @ G.conj().T
        return P / max_norm(P)
    if kind == OperatorKind.DENSITY:
        G = _gaussian(rng, dim)
        P = G @ G.conj().T
        return P / trace(P).real
    if kind == OperatorKind.EFFECT:
        H = hermitian_part(_gaussian(rng, dim))
        eigs = hermitian_eig(H, vectors=False).eigenvalues
        lo = float(eigs[-1])
        hi = float(eigs[0])
        if hi - lo > 1e-9:
            return (H - lo * identity(dim)) / (hi - lo)
        return float(np.clip(hi, 0.0, 1.0)) * identity(dim)
    raise ValueError(f"unknown operator kind: {kind!r}")


def projector_onto(column: np.ndarray) -> np.ndarray:
    """Rank-one projector onto a (nonzero, finite) vector.

    The vector is first scaled by the exact power of two that puts its
    largest real or imaginary entry in [0.5, 1), as hermitian_eig scales its
    matrix, so that v^dagger v neither overflows nor underflows.  A zero
    vector, or one with an infinite or NaN entry, raises ValueError.
    """
    v = np.asarray(column, dtype=np.complex128).reshape(-1, 1)
    peak = np.abs(v.view(np.float64)).max(initial=0.0)
    if not np.isfinite(peak):
        raise ValueError("cannot project onto a vector with an infinite or NaN entry")
    if peak == 0.0:
        raise ValueError("cannot project onto the zero vector")
    v = np.ldexp(v.view(np.float64), -math.frexp(peak)[1]).view(np.complex128)
    v = v / float(np.sqrt((v.conj().T @ v).real[0, 0]))
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
