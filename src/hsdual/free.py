"""Freely added structure: scaling, subtraction, and complex combination.

Three constructions enrich a carrier step by step, each witnessed by an
isomorphism onto a concrete operator family:

  * weighted points  (zero, or a strictly positive weight on a point of a
    convex set): applied to densities this reaches exactly the positive
    operators, by (w, rho) |-> w * rho;
  * formal differences of a commutative monoid, here pairs (pos, neg) of
    positives identified by p1 + n2 = p2 + n1: applied to positives this
    reaches the self-adjoint operators, by (P, N) |-> P - N;
  * real/imaginary pairs (re, im) of self-adjoints with the complex scalar
    action (a + bi) . (x, y) = (a x - b y, b x + a y): applied to
    self-adjoints this reaches all bounded operators, by (X, Y) |-> X + iY.

The maps work uniformly for matrices and plain scalars, so the same code
exercises the scalar sanity checks (differences of nonnegative reals give
all reals; real pairs give the complex numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    NotHermitian,
    approx_eq,
    as_matrix,
    is_hermitian,
    trace,
    zeros,
)
from .operators import (
    NotPositive,
    OperatorKind,
    in_kind,
    pos_neg_split,
    sa_components,
)


# --- weighted points over a convex carrier -----------------------------------


@dataclass(frozen=True)
class WeightedPoint:
    """Zero, or a strictly positive weight on a carrier point.

    The zero element is the unique instance with weight 0 (and point None).
    """

    weight: float
    point: Any

    @property
    def is_zero(self) -> bool:
        return self.weight == 0.0

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weights must be nonnegative")
        if self.weight == 0 and self.point is not None:
            raise ValueError("the zero element carries no point; use s_zero()")
        if self.weight > 0 and self.point is None:
            raise ValueError("a positive weight needs a point")


def s_zero() -> WeightedPoint:
    return WeightedPoint(0.0, None)


def s_point(weight: float, point) -> WeightedPoint:
    if weight <= 0:
        raise ValueError("s_point needs a strictly positive weight")
    return WeightedPoint(float(weight), point)


def s_add(u: WeightedPoint, v: WeightedPoint) -> WeightedPoint:
    """Add weights; the points combine convexly in proportion to them,
    r*x + (1-r)*y with r = u.weight / total (matrices and scalars)."""
    if u.is_zero:
        return v
    if v.is_zero:
        return u
    total = u.weight + v.weight
    r = u.weight / total
    return WeightedPoint(total, r * u.point + (1.0 - r) * v.point)


def s_smul(r: float, u: WeightedPoint) -> WeightedPoint:
    if r < 0:
        raise ValueError("the scalar action admits nonnegative scalars only")
    if r == 0 or u.is_zero:
        return s_zero()
    return WeightedPoint(r * u.weight, u.point)


def s_iso_dm_pos(u: WeightedPoint, dim: int) -> np.ndarray:
    """Weighted densities realize positive operators: (w, rho) |-> w*rho."""
    if u.is_zero:
        return zeros(dim)
    rho = as_matrix(u.point)
    if rho.shape[0] != dim:
        raise ValueError(f"point dimension {rho.shape[0]} != {dim}")
    return u.weight * rho


def s_iso_pos_dm(B: np.ndarray, tol: float = DEFAULT_TOL) -> WeightedPoint:
    """Inverse direction: trace-normalize, keeping the trace as the weight."""
    B = as_matrix(B)
    if not in_kind(B, OperatorKind.POSITIVE, tol):
        raise NotPositive("s_iso_pos_dm expects a positive operator")
    t = trace(B).real
    if t <= tol:
        return s_zero()
    return WeightedPoint(t, B / t)


# --- formal differences -------------------------------------------------------


@dataclass(frozen=True)
class Difference:
    """A formal difference pos - neg of two positive elements."""

    pos: Any
    neg: Any


def r_equiv(p: Difference, q: Difference, tol: float = DEFAULT_TOL) -> bool:
    """Identification of differences: p1 + n2 = p2 + n1 (cancellativity
    makes this cross-sum form equivalent to the general one)."""
    a = p.pos + q.neg
    b = q.pos + p.neg
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return approx_eq(np.asarray(a), np.asarray(b), tol)
    return abs(a - b) <= tol


def r_add(p: Difference, q: Difference) -> Difference:
    return Difference(p.pos + q.pos, p.neg + q.neg)


def r_neg(p: Difference) -> Difference:
    return Difference(p.neg, p.pos)


def r_smul(r: float, p: Difference) -> Difference:
    """Real scalars act componentwise, swapping the roles when negative."""
    if r >= 0:
        return Difference(r * p.pos, r * p.neg)
    return Difference((-r) * p.neg, (-r) * p.pos)


def _check_positive(x, tol: float) -> None:
    if isinstance(x, np.ndarray):
        if not in_kind(x, OperatorKind.POSITIVE, tol):
            raise NotPositive("difference components must be positive")
    else:
        if not (isinstance(x, (int, float)) and x >= -tol):
            raise NotPositive(f"scalar component {x!r} is not nonnegative")


def r_iso_pos_sa(p: Difference, tol: float = DEFAULT_TOL):
    """Differences of positives realize the self-adjoint family: subtract."""
    _check_positive(p.pos, tol)
    _check_positive(p.neg, tol)
    return p.pos - p.neg


def r_iso_sa_pos(A, tol: float = DEFAULT_TOL) -> Difference:
    """Inverse direction: the canonical spectral split (scalars: sign split)."""
    if isinstance(A, np.ndarray):
        P, N = pos_neg_split(A, tol)
        return Difference(P, N)
    a = float(A)
    return Difference(a, 0.0) if a >= 0 else Difference(0.0, -a)


# --- complex pairs ------------------------------------------------------------


@dataclass(frozen=True)
class ComplexPair:
    """A pair (re, im) of self-adjoint elements, a formal re + i*im."""

    re: Any
    im: Any


def c_add(p: ComplexPair, q: ComplexPair) -> ComplexPair:
    return ComplexPair(p.re + q.re, p.im + q.im)


def c_smul(z: complex, p: ComplexPair) -> ComplexPair:
    """(a + bi) . (x, y) = (a x - b y, b x + a y)."""
    a, b = z.real, z.imag
    return ComplexPair(a * p.re - b * p.im, b * p.re + a * p.im)


def _check_sa(x, tol: float) -> None:
    if isinstance(x, np.ndarray):
        if not is_hermitian(x, tol):
            raise NotHermitian("complex-pair components must be self-adjoint")
    else:
        if isinstance(x, complex) and abs(x.imag) > tol:
            raise NotHermitian(f"scalar component {x!r} is not real")


def c_iso_sa_b(p: ComplexPair, tol: float = DEFAULT_TOL):
    """Pairs of self-adjoints realize all bounded operators: re + i*im."""
    _check_sa(p.re, tol)
    _check_sa(p.im, tol)
    return p.re + 1j * p.im


def c_iso_b_sa(A) -> ComplexPair:
    """Inverse direction: operator real/imaginary parts (scalars likewise)."""
    if isinstance(A, np.ndarray):
        X, Y = sa_components(A)
        return ComplexPair(X, Y)
    z = complex(A)
    return ComplexPair(z.real, z.imag)


__all__ = [
    "WeightedPoint",
    "Difference",
    "ComplexPair",
    "s_zero",
    "s_point",
    "s_add",
    "s_smul",
    "s_iso_dm_pos",
    "s_iso_pos_dm",
    "r_equiv",
    "r_add",
    "r_neg",
    "r_smul",
    "r_iso_pos_sa",
    "r_iso_sa_pos",
    "c_add",
    "c_smul",
    "c_iso_sa_b",
    "c_iso_b_sa",
]
