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

Arguments.  A finite number is a ``numbers.Complex`` with finite complex
parts: not NaN, an infinity, or an int or Fraction beyond the float range.
A NumPy scalar counts as the Python number it holds, and an integer array
as its float64 values, so no sum or difference wraps around.
  * ValueError: a weight (WeightedPoint, s_point, s_smul) that is not a
    finite real >= 0, a point s_add mixes that is not an ndarray of numbers
    or a finite number, or an s_iso_dm_pos dim that is no integer >= 1.
  * LinalgError, naming the argument: a component of r_add, r_smul, c_add
    or c_smul that is not an ndarray of numbers or a finite number (for
    r_equiv: or any number), a scalar that is not a finite real (r_smul) or
    number (c_smul), and a result beyond the float range.
  * NotPositive (r_iso_*) or NotHermitian (c_iso_*): a component that is
    not a positive, respectively self-adjoint, matrix or a finite real.
A matrix argument meets as_matrix's checks.  Operands of different shapes,
a scalar's being (), raise DimensionMismatch after each operand's own
check, where NumPy would broadcast them.
"""

from __future__ import annotations

import cmath
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
    _is_dim,
    _shown,
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


def _finite_number(x, cls=numbers.Complex) -> bool:
    """Whether x is a cls whose complex(x) has finite parts: not NaN, not an
    infinity, and not an int or Fraction beyond the float range."""
    if not isinstance(x, cls):
        return False
    try:
        return cmath.isfinite(complex(x))
    except OverflowError:
        return False


def _numbers(x) -> bool:
    """Whether x is an ndarray of numbers (not of bools, strings or objects)."""
    return isinstance(x, np.ndarray) and np.issubdtype(x.dtype, np.number)


def _plain(x):
    """x, the Python number a NumPy scalar holds, or an integer array's
    float64 values: arithmetic that neither wraps an integer nor warns."""
    if isinstance(x, np.ndarray) and np.issubdtype(x.dtype, np.integer):
        return x.astype(np.float64)
    return x.item() if isinstance(x, np.generic) else x


def _components(*parts, error=LinalgError) -> tuple:
    """The parts, _plain; error names one that is no array of numbers or
    finite number."""
    for x in parts:
        if not (_numbers(x) or _finite_number(x)):
            raise error(f"{_shown(x)} is neither an array of numbers nor a finite number")
    return tuple(map(_plain, parts))


def _scalar(z, cls, *parts) -> tuple:
    """z and the components parts, checked and _plain: LinalgError unless z
    is a finite cls.  z is a float or complex where a part is an array, as
    NumPy makes a Fraction times an array an array of objects."""
    if not _finite_number(z, cls):
        raise LinalgError(f"scalar {_shown(z)} is not a finite {cls.__name__.lower()} number")
    parts = _components(*parts)
    if any(isinstance(x, np.ndarray) for x in parts):
        return (float(z) if cls is numbers.Real else complex(z), *parts)
    return (_plain(z), *parts)


def _finite(x):
    """x, or LinalgError if an entry of it is infinite or NaN: an arithmetic
    result beyond the float range, computed with NumPy's warnings off."""
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else _finite_number(x)):
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


# --- weighted points over a convex carrier -----------------------------------


@dataclass(frozen=True)
class WeightedPoint:
    """Zero, or a strictly positive finite weight on a carrier point.

    The zero element is the unique instance with weight 0 (and point None).
    """

    weight: float
    point: Any

    @property
    def is_zero(self) -> bool:
        return self.weight == 0.0

    def __post_init__(self):
        if not (_finite_number(self.weight, numbers.Real) and self.weight >= 0):
            raise ValueError(f"weights must be finite and nonnegative, got {_shown(self.weight)}")
        if self.weight == 0 and self.point is not None:
            raise ValueError("the zero element carries no point; use s_zero()")
        if self.weight > 0 and self.point is None:
            raise ValueError("a positive weight needs a point")


def s_zero() -> WeightedPoint:
    return WeightedPoint(0.0, None)


def s_point(weight: float, point) -> WeightedPoint:
    """The weight, which must be positive, as a float on the point."""
    if not (_finite_number(weight, numbers.Real) and weight > 0):
        raise ValueError(f"s_point needs a strictly positive finite weight, got {_shown(weight)}")
    return WeightedPoint(float(weight), point)


def s_add(u: WeightedPoint, v: WeightedPoint) -> WeightedPoint:
    """Add weights; the points combine convexly in proportion to them,
    r*x + (1-r)*y with r = u.weight / total (matrices and scalars).

    ValueError if the total weight is beyond the float range.
    """
    if u.is_zero:
        return v
    if v.is_zero:
        return u
    x, y = _components(u.point, v.point, error=ValueError)
    _one_shape(x, y)
    # Python floats overflow to inf without the warning a NumPy weight would
    # raise, and WeightedPoint refuses an infinite total
    w = float(u.weight)
    total = w + float(v.weight)
    r = w / total
    return WeightedPoint(total, r * x + (1.0 - r) * y)


def s_smul(r: float, u: WeightedPoint) -> WeightedPoint:
    """Scale the weight by r >= 0; ValueError if the scaled weight is beyond
    the float range."""
    if not (_finite_number(r, numbers.Real) and r >= 0):
        raise ValueError(f"the scalar action admits finite nonnegative scalars only, got {_shown(r)}")
    if r == 0 or u.is_zero:
        return s_zero()
    return WeightedPoint(float(r) * float(u.weight), u.point)


def s_iso_dm_pos(u: WeightedPoint, dim: int) -> np.ndarray:
    """Weighted densities realize positive operators: (w, rho) |-> w*rho.

    LinalgError if an entry of the product is beyond the float range.
    """
    if not _is_dim(dim):
        raise ValueError(f"dim must be an integer >= 1, got {_shown(dim)}")
    if u.is_zero:
        return zeros(dim)
    rho = as_matrix(u.point)
    if rho.shape[0] != dim:
        raise ValueError(f"point dimension {rho.shape[0]} != {dim}")
    with _float_range():
        return _finite(float(u.weight) * rho)


def s_iso_pos_dm(B: np.ndarray, tol: float = DEFAULT_TOL) -> WeightedPoint:
    """Inverse direction: trace-normalize, keeping the trace as the weight.

    NotPositive unless B is positive at tol; LinalgError if its trace is
    beyond the float range, as no weight can hold it.
    """
    B = as_matrix(B)
    if not in_kind(B, OperatorKind.POSITIVE, tol):
        raise NotPositive("s_iso_pos_dm expects a positive operator")
    with _float_range():
        t = _finite(float(np.trace(B).real))
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
    infinite or NaN one.
    """
    parts = [_plain(x) for x in (p.pos, p.neg, q.pos, q.neg)]
    for x in parts:
        if not (_numbers(x) or isinstance(x, numbers.Complex)):
            raise LinalgError(f"{_shown(x)} is neither an array of numbers nor a number")
    _one_shape(*parts)
    p1, n1, p2, n2 = parts
    try:
        a = _half(p1) + _half(n2)
        b = _half(p2) + _half(n1)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return approx_eq(np.asarray(a), np.asarray(b), tol / 2)
        return abs(a - b) <= tol / 2
    except OverflowError:  # an exact part beyond the float range met a float
        try:
            a, b = (Fraction(x) + Fraction(y) for x, y in ((p1, n2), (p2, n1)))
        except (OverflowError, ValueError):  # Fraction of an infinity or a NaN
            return False
        return abs(a - b) <= tol


def r_add(p: Difference, q: Difference) -> Difference:
    """Componentwise sum."""
    p1, n1, p2, n2 = _components(p.pos, p.neg, q.pos, q.neg)
    _one_shape(p1, n1, p2, n2)
    with _float_range():
        return Difference(_finite(p1 + p2), _finite(n1 + n2))


def r_neg(p: Difference) -> Difference:
    return Difference(p.neg, p.pos)


def r_smul(r: float, p: Difference) -> Difference:
    """Real scalars act componentwise, swapping the roles when negative."""
    r, pos, neg = _scalar(r, numbers.Real, p.pos, p.neg)
    with _float_range():
        if r >= 0:
            return Difference(_finite(r * pos), _finite(r * neg))
        return Difference(_finite((-r) * neg), _finite((-r) * pos))


def _check_positive(x, tol: float) -> None:
    if isinstance(x, np.ndarray):
        if not in_kind(x, OperatorKind.POSITIVE, tol):
            raise NotPositive("difference components must be positive")
    elif not (_finite_number(x, numbers.Real) and -tol <= x):
        raise NotPositive(f"scalar component {_shown(x)} is not a finite nonnegative number")


def r_iso_pos_sa(p: Difference, tol: float = DEFAULT_TOL):
    """Differences of positives realize the self-adjoint family: subtract."""
    _check_positive(p.pos, tol)
    _check_positive(p.neg, tol)
    _one_shape(p.pos, p.neg)
    return _plain(p.pos) - _plain(p.neg)


def r_iso_sa_pos(A, tol: float = DEFAULT_TOL) -> Difference:
    """Inverse direction: the canonical spectral split (scalars: sign split).

    NotHermitian for a matrix that is not self-adjoint within tol.
    """
    if isinstance(A, np.ndarray):
        P, N = pos_neg_split(A, tol)
        return Difference(P, N)
    if not _finite_number(A, numbers.Real):
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
    """Componentwise sum."""
    x1, y1, x2, y2 = _components(p.re, p.im, q.re, q.im)
    _one_shape(x1, y1, x2, y2)
    with _float_range():
        return ComplexPair(_finite(x1 + x2), _finite(y1 + y2))


def c_smul(z: complex, p: ComplexPair) -> ComplexPair:
    """(a + bi) . (x, y) = (a x - b y, b x + a y)."""
    z, x, y = _scalar(z, numbers.Complex, p.re, p.im)
    a, b = z.real, z.imag
    with _float_range():
        return ComplexPair(_finite(a * x - b * y), _finite(b * x + a * y))


def _check_sa(x, tol: float) -> None:
    if isinstance(x, np.ndarray):
        if not is_hermitian(x, tol):
            raise NotHermitian("complex-pair components must be self-adjoint")
    elif not (_finite_number(x) and abs(x.imag) <= tol):
        raise NotHermitian(f"scalar component {_shown(x)} is not a finite real number")


def c_iso_sa_b(p: ComplexPair, tol: float = DEFAULT_TOL):
    """Pairs of self-adjoints realize all bounded operators: re + i*im."""
    _check_sa(p.re, tol)
    _check_sa(p.im, tol)
    _one_shape(p.re, p.im)
    return p.re + 1j * p.im


def c_iso_b_sa(A) -> ComplexPair:
    """Inverse direction: operator real/imaginary parts (scalars likewise)."""
    if isinstance(A, np.ndarray):
        X, Y = sa_components(A)
        return ComplexPair(X, Y)
    if not _finite_number(A):
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
