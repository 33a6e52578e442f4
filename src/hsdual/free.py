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

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    LinalgError,
    NotHermitian,
    approx_eq,
    as_matrix,
    is_hermitian,
    zeros,
)
from .operators import (
    NotPositive,
    OperatorKind,
    in_kind,
    pos_neg_split,
    sa_components,
)


def _is_finite(x) -> bool:
    """Whether every entry of an array or number x is finite (not NaN)."""
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    return abs(x.real) < math.inf and abs(x.imag) < math.inf


def _fits_float(x) -> bool:
    """Whether the number x converts to a complex with finite float parts;
    an integer or Fraction beyond the float range does not."""
    try:
        return _is_finite(complex(x))
    except OverflowError:
        return False


def _shown(x) -> str:
    """repr(x) for an error message, or its type where that repr is longer
    than 80 characters or refused (an int of more than 4,300 digits)."""
    try:
        r = repr(x)
    except ValueError:
        r = ""
    return r if 0 < len(r) <= 80 else f"<{type(x).__name__}, too long to show>"


def _finite(x):
    """x, or LinalgError if an entry of it is infinite or NaN: an arithmetic
    result beyond the float range, computed with NumPy's warnings off."""
    if not _is_finite(x):
        raise LinalgError("a result is beyond the float range")
    return x


@contextmanager
def _float_range():
    """NumPy's overflow warnings off, and the OverflowError of an int or
    Fraction beyond the float range meeting a float raised as LinalgError."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except OverflowError:
            raise LinalgError("a result is beyond the float range") from None


def _one_shape(*parts) -> None:
    """DimensionMismatch unless the parts share one shape, a scalar's being
    (); NumPy would broadcast a (1, 1) or scalar part against a matrix."""
    shapes = [getattr(x, "shape", ()) for x in parts]
    if any(shape != shapes[0] for shape in shapes):
        raise DimensionMismatch(f"shape mismatch: {' vs '.join(map(str, shapes))}")


def _weight(w) -> float:
    """float(w), or ValueError if w is beyond the float range."""
    try:
        return float(w)
    except OverflowError:
        raise ValueError(f"weight {_shown(w)} is beyond the float range") from None


# --- weighted points over a convex carrier -----------------------------------


@dataclass(frozen=True)
class WeightedPoint:
    """Zero, or a strictly positive finite weight on a carrier point.

    The zero element is the unique instance with weight 0 (and point None).
    A weight that is negative, infinite, NaN or beyond the float range (an
    int or Fraction) raises ValueError.
    """

    weight: float
    point: Any

    @property
    def is_zero(self) -> bool:
        return self.weight == 0.0

    def __post_init__(self):
        # written so that a NaN weight fails
        if not (0 <= self.weight < math.inf and _fits_float(self.weight)):
            raise ValueError(f"weights must be finite and nonnegative, got {_shown(self.weight)}")
        if self.weight == 0 and self.point is not None:
            raise ValueError("the zero element carries no point; use s_zero()")
        if self.weight > 0 and self.point is None:
            raise ValueError("a positive weight needs a point")


def s_zero() -> WeightedPoint:
    return WeightedPoint(0.0, None)


def s_point(weight: float, point) -> WeightedPoint:
    """ValueError unless the weight is positive and within the float range."""
    if not weight > 0:
        raise ValueError("s_point needs a strictly positive weight")
    return WeightedPoint(_weight(weight), point)


def s_add(u: WeightedPoint, v: WeightedPoint) -> WeightedPoint:
    """Add weights; the points combine convexly in proportion to them,
    r*x + (1-r)*y with r = u.weight / total (matrices and scalars).

    ValueError if the total weight is beyond the float range, and
    DimensionMismatch if the two points differ in shape.
    """
    if u.is_zero:
        return v
    if v.is_zero:
        return u
    _one_shape(u.point, v.point)
    # Python floats overflow to inf without the warning a NumPy weight would
    # raise, and WeightedPoint refuses an infinite total
    w = float(u.weight)
    total = w + float(v.weight)
    r = w / total
    return WeightedPoint(total, r * u.point + (1.0 - r) * v.point)


def s_smul(r: float, u: WeightedPoint) -> WeightedPoint:
    """Scale the weight by r >= 0; ValueError if r or the scaled weight is
    beyond the float range."""
    if not r >= 0:
        raise ValueError("the scalar action admits nonnegative scalars only")
    if r == 0 or u.is_zero:
        return s_zero()
    return WeightedPoint(_weight(r) * float(u.weight), u.point)


def s_iso_dm_pos(u: WeightedPoint, dim: int) -> np.ndarray:
    """Weighted densities realize positive operators: (w, rho) |-> w*rho.

    LinalgError if an entry of the product is beyond the float range.
    """
    if u.is_zero:
        return zeros(dim)
    rho = as_matrix(u.point)
    if rho.shape[0] != dim:
        raise ValueError(f"point dimension {rho.shape[0]} != {dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(u.weight * rho)


def s_iso_pos_dm(B: np.ndarray, tol: float = DEFAULT_TOL) -> WeightedPoint:
    """Inverse direction: trace-normalize, keeping the trace as the weight.

    NotPositive unless B is positive at tol; LinalgError if its trace is
    beyond the float range, as no weight can hold it.
    """
    B = as_matrix(B)
    if not in_kind(B, OperatorKind.POSITIVE, tol):
        raise NotPositive("s_iso_pos_dm expects a positive operator")
    with np.errstate(over="ignore", invalid="ignore"):
        t = float(np.trace(B).real)
    if not np.isfinite(t):
        raise LinalgError("the trace is beyond the float range")
    if t <= tol:
        return s_zero()
    return WeightedPoint(t, B / t)


# --- formal differences -------------------------------------------------------


@dataclass(frozen=True)
class Difference:
    """A formal difference pos - neg of two positive elements."""

    pos: Any
    neg: Any


def _half(x):
    """x / 2, exact for integers as well."""
    return Fraction(x, 2) if isinstance(x, numbers.Integral) else x / 2


def r_equiv(p: Difference, q: Difference, tol: float = DEFAULT_TOL) -> bool:
    """Identification of differences: p1 + n2 = p2 + n1 (cancellativity
    makes this cross-sum form equivalent to the general one).

    The cross sums are formed halved, p1/2 + n2/2 and p2/2 + n1/2, which
    finite entries cannot overflow, and judged at tol/2, as loewner_leq
    does; halving is exact for normal floats, so the verdict is that of the
    full sums at tol.  An int or Fraction part beyond the float range is
    compared exactly with a finite float one, and is never within tol of an
    infinite or NaN one.  DimensionMismatch unless the four parts share one
    shape.
    """
    _one_shape(p.pos, p.neg, q.pos, q.neg)
    try:
        a = _half(p.pos) + _half(q.neg)
        b = _half(q.pos) + _half(p.neg)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return approx_eq(np.asarray(a), np.asarray(b), tol / 2)
        return abs(a - b) <= tol / 2
    except OverflowError:  # an exact part beyond the float range met a float
        try:
            a, b = (Fraction(x) + Fraction(y) for x, y in ((p.pos, q.neg), (q.pos, p.neg)))
        except (OverflowError, ValueError):  # Fraction of an infinity or a NaN
            return False
        return abs(a - b) <= tol


def r_add(p: Difference, q: Difference) -> Difference:
    """Componentwise sum; DimensionMismatch unless the four components share
    one shape, and LinalgError if a component is beyond the float range."""
    _one_shape(p.pos, p.neg, q.pos, q.neg)
    with _float_range():
        return Difference(_finite(p.pos + q.pos), _finite(p.neg + q.neg))


def r_neg(p: Difference) -> Difference:
    return Difference(p.neg, p.pos)


def r_smul(r: float, p: Difference) -> Difference:
    """Real scalars act componentwise, swapping the roles when negative.

    LinalgError if a component is beyond the float range.
    """
    with _float_range():
        if r >= 0:
            return Difference(_finite(r * p.pos), _finite(r * p.neg))
        return Difference(_finite((-r) * p.neg), _finite((-r) * p.pos))


def _check_positive(x, tol: float) -> None:
    if isinstance(x, np.ndarray):
        if not in_kind(x, OperatorKind.POSITIVE, tol):
            raise NotPositive("difference components must be positive")
    else:
        if not (isinstance(x, numbers.Real) and -tol <= x and _fits_float(x)):
            raise NotPositive(f"scalar component {_shown(x)} is not a finite nonnegative number")


def r_iso_pos_sa(p: Difference, tol: float = DEFAULT_TOL):
    """Differences of positives realize the self-adjoint family: subtract.

    NotPositive unless both components are positive (matrices) or finite
    nonnegative numbers, then DimensionMismatch unless they share one shape.
    """
    _check_positive(p.pos, tol)
    _check_positive(p.neg, tol)
    _one_shape(p.pos, p.neg)
    return p.pos - p.neg


def r_iso_sa_pos(A, tol: float = DEFAULT_TOL) -> Difference:
    """Inverse direction: the canonical spectral split (scalars: sign split).

    NotHermitian for a matrix that is not self-adjoint within tol, and
    NotPositive, as ``r_iso_pos_sa`` raises, for anything else that is not
    a finite real number (a string, NaN, an infinity, a nested list).
    """
    if isinstance(A, np.ndarray):
        P, N = pos_neg_split(A, tol)
        return Difference(P, N)
    if not (isinstance(A, numbers.Real) and _fits_float(A)):
        raise NotPositive(f"scalar {_shown(A)} is not a finite real number")
    a = float(A)
    return Difference(a, 0.0) if a >= 0 else Difference(0.0, -a)


# --- complex pairs ------------------------------------------------------------


@dataclass(frozen=True)
class ComplexPair:
    """A pair (re, im) of self-adjoint elements, a formal re + i*im."""

    re: Any
    im: Any


def c_add(p: ComplexPair, q: ComplexPair) -> ComplexPair:
    """Componentwise sum; DimensionMismatch unless the four parts share one
    shape, and LinalgError if a part is beyond the float range."""
    _one_shape(p.re, p.im, q.re, q.im)
    with _float_range():
        return ComplexPair(_finite(p.re + q.re), _finite(p.im + q.im))


def c_smul(z: complex, p: ComplexPair) -> ComplexPair:
    """(a + bi) . (x, y) = (a x - b y, b x + a y).

    LinalgError if a part is beyond the float range.
    """
    a, b = z.real, z.imag
    with _float_range():
        return ComplexPair(_finite(a * p.re - b * p.im), _finite(b * p.re + a * p.im))


def _check_sa(x, tol: float) -> None:
    if isinstance(x, np.ndarray):
        if not is_hermitian(x, tol):
            raise NotHermitian("complex-pair components must be self-adjoint")
    else:
        if not (isinstance(x, numbers.Complex) and _fits_float(x) and abs(x.imag) <= tol):
            raise NotHermitian(f"scalar component {_shown(x)} is not a finite real number")


def c_iso_sa_b(p: ComplexPair, tol: float = DEFAULT_TOL):
    """Pairs of self-adjoints realize all bounded operators: re + i*im.

    NotHermitian unless both parts are self-adjoint (matrices) or finite
    real numbers, then DimensionMismatch unless they share one shape.
    """
    _check_sa(p.re, tol)
    _check_sa(p.im, tol)
    _one_shape(p.re, p.im)
    return p.re + 1j * p.im


def c_iso_b_sa(A) -> ComplexPair:
    """Inverse direction: operator real/imaginary parts (scalars likewise).

    NotHermitian, as ``c_iso_sa_b`` raises, for a scalar that is not a
    finite number (a string, NaN, an infinite part, a nested list).
    """
    if isinstance(A, np.ndarray):
        X, Y = sa_components(A)
        return ComplexPair(X, Y)
    if not (isinstance(A, numbers.Complex) and _fits_float(A)):
        raise NotHermitian(f"scalar {_shown(A)} is not a finite number")
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
