"""Formal finite sums over exact coefficient semirings, and their algebras.

A formal sum is a finite map from opaque element keys to nonzero coefficients
drawn from one of four semirings: nonnegative rationals, rationals, Gaussian
(complex) rationals, and the rational unit interval.  Sums over the unit
interval may additionally carry a distribution flag, meaning the coefficients
add up to exactly 1.  All arithmetic on sums is exact -- floats enter only
when a carrier interprets one -- so the functor/monad laws hold on the nose
and are tested by literal equality.

The monad structure is the usual one for weighted finite support: ``unit``
is a single term with coefficient one, ``fmap`` pushes keys forward (merging
collisions additively), and ``flatten`` multiplies outer coefficients through
inner sums.  Algebra carriers interpret sums in an actual module or convex
set, e.g. matrices under real combinations or densities under convex ones.

One rule gives every coefficient, and every ``wp.mixture_channel`` weight,
its exact value: a rational (an int, a Fraction) is itself, a string parses
as a fraction or decimal literal ("1/3", "1e-3"), and a float (NumPy's too),
a Decimal and each part of a complex number are read through ``str()``, so
0.1 is 1/10.  A bool, a literal over MAX_LITERAL_DIGITS (1000) characters
or with a decimal exponent beyond that in magnitude (refused unparsed: the
parse builds 10**exponent), and anything else Fraction refuses (None,
"1/0", NaN) raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .linalg import _shown

__all__ = [
    "Semiring",
    "QC",
    "FormalSum",
    "AlgebraCarrier",
    "AlgebraError",
    "SemiringMismatch",
    "CoefficientOverflow",
    "NotDistribution",
    "formal_sum",
    "unit",
    "fmap",
    "flatten",
    "scale",
    "interpret",
    "matrix_module_carrier",
    "convex_state_carrier",
    "unit_interval_carrier",
    "monad_law_suite",
]


class AlgebraError(Exception):
    pass


class SemiringMismatch(AlgebraError):
    """Operands live over different coefficient semirings."""


class CoefficientOverflow(AlgebraError):
    """A coefficient left its range: the unit interval's [0, 1], or the
    float range when a carrier interprets it."""


class NotDistribution(AlgebraError):
    """A convex-only operation received a sum without the distribution flag."""


@dataclass(frozen=True)
class QC:
    """Gaussian rational: an exact complex number re + im*i over Fraction."""

    re: Fraction
    im: Fraction

    # Real operands (both imaginary parts zero) take one Fraction operation.

    def __add__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return QC(self.re + other.re, self.im)
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "QC") -> "QC":
        if not self.im and not other.im:
            return QC(self.re * other.re, self.im)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"QC({_text(self.re, str)}, {_text(self.im, str)})"


_QC_ZERO = QC(Fraction(0), Fraction(0))
_QC_ONE = QC(Fraction(1), Fraction(0))


class Semiring(Enum):
    NONNEG_RATIONAL = "nonneg-rational"
    RATIONAL = "rational"
    COMPLEX_RATIONAL = "complex-rational"
    UNIT_INTERVAL = "unit-interval-rational"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Longest literal, and largest decimal exponent in one, that _exact parses.
MAX_LITERAL_DIGITS = 1000


def _exact(value) -> Fraction:
    """The exact value of a real number, by the rule in the module docstring."""
    text = str(value) if isinstance(value, (float, np.floating, Decimal)) else value
    try:
        too_long = isinstance(text, str) and (
            len(text) > MAX_LITERAL_DIGITS or abs(int(text.lower().partition("e")[2] or 0)) > MAX_LITERAL_DIGITS
        )
        if not (too_long or isinstance(value, bool)):
            return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):  # int() refuses a non-integer exponent
        too_long = False
    if too_long:
        raise ValueError(f"a literal beyond {MAX_LITERAL_DIGITS} in length or in decimal exponent is too long")
    raise ValueError(f"coefficient {_shown(value)} is not a rational number")


def _coerce(semiring: Semiring, value) -> Fraction | QC:
    """Validate and normalize a coefficient for the given semiring.

    Range checks compare the normalized numerator and (positive) denominator
    as integers rather than through Fraction's rich comparison.
    """
    if semiring is Semiring.COMPLEX_RATIONAL:
        if isinstance(value, QC):
            return value
        if isinstance(value, (complex, np.complexfloating)):
            return QC(_exact(value.real), _exact(value.imag))
        return QC(_exact(value), Fraction(0))
    if type(value) is Fraction:
        coeff = value
    elif isinstance(value, QC) and not value.im:  # a real Gaussian rational
        coeff = value.re
    else:
        coeff = _exact(value)
    if semiring is Semiring.NONNEG_RATIONAL and coeff.numerator < 0:
        raise ValueError(f"coefficient {_shown(coeff, str)} negative in {semiring.value}")
    if semiring is Semiring.UNIT_INTERVAL and not 0 <= coeff.numerator <= coeff.denominator:
        raise CoefficientOverflow(f"coefficient {_shown(coeff, str)} outside [0, 1]")
    return coeff


def _zero(semiring: Semiring):
    return _QC_ZERO if semiring is Semiring.COMPLEX_RATIONAL else Fraction(0)


def _one(semiring: Semiring):
    return _QC_ONE if semiring is Semiring.COMPLEX_RATIONAL else Fraction(1)


def _add(semiring: Semiring, a, b):
    total = a + b
    if semiring is Semiring.UNIT_INTERVAL and total.numerator > total.denominator:
        raise CoefficientOverflow(f"coefficient sum {_shown(total, str)} left [0, 1]")
    return total


def _text(x, form=repr) -> str:
    """form(x), with an int beyond Python's limit on decimal digits (4,300
    by default), which str() and repr() refuse, in hex, alone or as a part
    of a Fraction.  The hex text differs from every decimal one, so the
    text of distinct numbers stays distinct."""
    try:
        return form(x)
    except ValueError:
        if isinstance(x, int):
            return hex(x)
        if isinstance(x, Fraction):
            n, d = _text(x.numerator), _text(x.denominator)
            return n if d == "1" else f"{n}/{d}"
        raise


def _key_order(key) -> tuple:
    return (type(key).__name__, _text(key))


@dataclass(frozen=True)
class FormalSum:
    """Immutable formal sum; build through :func:`formal_sum` or :func:`unit`.

    ``terms`` is a tuple of (key, coefficient) pairs in a canonical order
    (by the key's type name, then its repr) with no zero coefficients, so
    structural equality is semantic equality.  An int too long for Python's
    decimal conversion, as a key or in a coefficient, is ordered and
    printed in hex.
    Keys may themselves be sums, nested several deep, so the hash and the
    repr (which orders the terms of an enclosing sum) are computed once per
    instance and cached; pickling drops both caches.
    """

    semiring: Semiring
    terms: tuple[tuple[Any, Any], ...]
    distribution: bool = False

    def coeff(self, key):
        for k, c in self.terms:
            if k == key:
                return c
        return _zero(self.semiring)

    def support(self) -> tuple:
        return tuple(k for k, _ in self.terms)

    def total(self):
        result = _zero(self.semiring)
        for _, c in self.terms:
            result = result + c
        return result

    def __len__(self) -> int:
        return len(self.terms)

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.semiring, self.terms, self.distribution))
        return h

    def __repr__(self) -> str:
        r = self.__dict__.get("_repr")
        if r is None:
            if not self.terms:
                r = f"FormalSum<{self.semiring.value}>(0)"
            else:
                body = " + ".join(f"{_text(c, str)}|{_text(k)}>" for k, c in self.terms)
                r = f"FormalSum<{self.semiring.value}>({body})"
            self.__dict__["_repr"] = r
        return r

    def __getstate__(self) -> dict:
        # str hashes are salted per process: a cached hash must not travel
        return {name: self.__dict__[name] for name in ("semiring", "terms", "distribution")}


def formal_sum(
    semiring: Semiring,
    pairs: Iterable[tuple[Any, Any]],
    distribution: bool = False,
) -> FormalSum:
    """Build a formal sum, merging duplicate keys and dropping zeros.

    With ``distribution=True`` (unit-interval coefficients only) the
    coefficients must add up to exactly 1.  A coefficient the module's rule
    refuses, a negative one over the nonnegative rationals, or a ``semiring``
    that is not a Semiring raises ValueError.
    """
    if not isinstance(semiring, Semiring):
        raise ValueError(f"unknown semiring: {_shown(semiring)}")
    if distribution and semiring is not Semiring.UNIT_INTERVAL:
        raise NotDistribution("the distribution flag requires unit-interval coefficients")
    acc: dict = {}
    for key, raw in pairs:
        coeff = _coerce(semiring, raw)
        prev = acc.get(key)
        acc[key] = coeff if prev is None else _add(semiring, prev, coeff)
    items = [(k, c) for k, c in acc.items() if c]
    if len(items) > 1:
        items.sort(key=lambda kv: _key_order(kv[0]))
    result = FormalSum(semiring, tuple(items), distribution)
    if distribution:
        total = result.total()
        if total.numerator != 1 or total.denominator != 1:
            raise NotDistribution(f"distribution coefficients sum to {_shown(total, str)}, not 1")
    return result


def _require_sum(s) -> FormalSum:
    """s itself if it is a FormalSum; ValueError otherwise."""
    if not isinstance(s, FormalSum):
        raise ValueError(f"not a formal sum: {_shown(s)}")
    return s


def unit(key, semiring: Semiring = Semiring.RATIONAL, distribution: bool = False) -> FormalSum:
    """The sum 1|key> (a point distribution when flagged); ValueError for a non-Semiring."""
    return formal_sum(semiring, [(key, _one(semiring))], distribution)


def fmap(f: Callable[[Any], Any], s: FormalSum) -> FormalSum:
    """Push keys forward through f, summing coefficients over collisions;
    ValueError unless s is a FormalSum."""
    return formal_sum(_require_sum(s).semiring, ((f(k), c) for k, c in s.terms), s.distribution)


def scale(coefficient, s: FormalSum) -> FormalSum:
    """Multiply every coefficient (left factor drawn from the same semiring).

    The distribution flag survives only when the factor is exactly 1.
    ValueError unless s is a FormalSum.
    """
    c0 = _coerce(_require_sum(s).semiring, coefficient)
    return formal_sum(
        s.semiring,
        ((k, c0 * c) for k, c in s.terms),
        distribution=s.distribution and c0 == _one(s.semiring),
    )


def flatten(ss: FormalSum) -> FormalSum:
    """Monad multiplication: a sum of sums collapses by multiplying through.

    ``ss`` must be a FormalSum (ValueError otherwise) whose keys are sums
    over its semiring (SemiringMismatch otherwise); the distribution flag
    survives, as a convex combination of distributions is a distribution.
    """
    pairs = []
    for inner, outer_coeff in _require_sum(ss).terms:
        if not (isinstance(inner, FormalSum) and inner.semiring is ss.semiring):
            raise SemiringMismatch(f"flatten expects sums over {ss.semiring.value}, found key {_shown(inner)}")
        for key, c in inner.terms:
            pairs.append((key, outer_coeff * c))
    distribution = ss.distribution and all(inner.distribution for inner, _ in ss.terms)
    return formal_sum(ss.semiring, pairs, distribution)


# --- algebra carriers -------------------------------------------------------


@dataclass(frozen=True)
class AlgebraCarrier:
    """A place where formal sums are evaluated: an algebra of the monad.

    ``resolve`` maps a key to its carrier element.  A carrier with a
    ``zero`` is a module: it interprets every sum over ``semiring``, and the
    empty sum gives ``zero``.  A carrier with ``zero=None`` is a convex set:
    it interprets distributions only, which are never empty.
    """

    semiring: Semiring
    resolve: Callable[[Any], Any]
    zero: Any = None


def interpret(carrier: AlgebraCarrier, s: FormalSum):
    """Evaluate a formal sum in the carrier.

    A module carrier requires a matching semiring (SemiringMismatch
    otherwise); a convex carrier requires the distribution flag
    (NotDistribution otherwise).  Each coefficient becomes a Python number
    (``complex`` for a QC, ``float`` otherwise) that multiplies its resolved
    key, and the terms are added with ``+``, after the zero for a module.
    A coefficient beyond the float range raises CoefficientOverflow.
    """
    if carrier.zero is not None:
        if s.semiring is not carrier.semiring:
            raise SemiringMismatch(
                f"sum over {s.semiring.value} fed to a {carrier.semiring.value} module"
            )
    elif not s.distribution:
        raise NotDistribution("convex carriers interpret distributions only")
    acc = carrier.zero
    for key, coeff in s.terms:
        try:
            weight = complex(coeff) if isinstance(coeff, QC) else float(coeff)
        except OverflowError:
            raise CoefficientOverflow(f"coefficient {_shown(coeff, str)} is beyond the float range") from None
        term = weight * carrier.resolve(key)
        acc = term if acc is None else acc + term
    return acc


def matrix_module_carrier(dim: int, env: dict, semiring: Semiring = Semiring.RATIONAL) -> AlgebraCarrier:
    """Square matrices of a fixed dimension as a module over the semiring."""
    return AlgebraCarrier(semiring, env.__getitem__, np.zeros((dim, dim), dtype=np.complex128))


def convex_state_carrier(env: dict) -> AlgebraCarrier:
    """Named states (matrices, vectors, scalars) under convex combination."""
    return AlgebraCarrier(Semiring.UNIT_INTERVAL, env.__getitem__)


def unit_interval_carrier() -> AlgebraCarrier:
    """The unit interval itself, keyed by exact rationals, as a convex set."""
    return AlgebraCarrier(Semiring.UNIT_INTERVAL, float)


# --- exhaustive law checking ------------------------------------------------

_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
_GRIDS = {  # the two rational semirings share _GRID
    Semiring.COMPLEX_RATIONAL: tuple(QC(g, Fraction(0)) for g in _GRID) + (QC(Fraction(0), Fraction(1)),),
    Semiring.UNIT_INTERVAL: (Fraction(0), Fraction(1, 2), Fraction(1)),
}


def _grid_for(semiring: Semiring):
    return _GRIDS.get(semiring, _GRID)


def _grid_sums(
    semiring: Semiring, support: tuple, distribution: bool, full_support: bool = False
) -> Iterator[FormalSum]:
    """The sum over ``support`` of each coefficient vector from the grid, in
    ``product`` order and repeats included; for a distribution, only the
    vectors that add up to 1, and with ``full_support``, only those with no
    zero entry."""
    grid = [g for g in _grid_for(semiring) if g or not full_support]
    for coeffs in product(grid, repeat=len(support)):
        if not distribution or sum(coeffs, Fraction(0)) == 1:
            yield formal_sum(semiring, zip(support, coeffs), distribution)


def _enumerate_layered(semiring: Semiring, base: list, distribution: bool, cap: int) -> list[FormalSum]:
    """The first ``cap`` distinct grid sums over one or two distinct elements
    of ``base``: every one-term sum, then the pairs in ``combinations`` order."""
    base = list(dict.fromkeys(base))
    seen: dict[FormalSum, None] = {}
    for support in chain(((x,) for x in base), combinations(base, 2)):
        # a pair with a zero coefficient repeats a one-term sum from above
        for s in _grid_sums(semiring, support, distribution, full_support=len(support) == 2):
            seen.setdefault(s)
            if len(seen) >= cap:
                return list(seen)
    return list(seen)


#: Largest carrier, in keys, over which monad_law_suite enumerates sums.
MONAD_MAX_CARRIER = 3


def monad_law_suite() -> dict:
    """Exhaustively check the monad laws over small carriers and exact grids.

    For every semiring (plus the distribution variant of the unit interval)
    and every carrier of size <= MONAD_MAX_CARRIER, checks with literal
    equality:

      flatten(unit(s)) == s                 for every grid sum s
      flatten(fmap(unit, s)) == s           for every grid sum s
      flatten(flatten(t)) == flatten(fmap(flatten, t))
                                            for every double sum t of
                                            support <= 2 with grid
                                            coefficients over a deterministic
                                            pool of single sums

    Returns {"checked": n, "skipped": m, "violations": [...]}; a violation
    records the semiring, law, and offending sum.  Unit-interval coefficients
    are not closed under addition, so a composite can overflow [0, 1] on
    either side of a law; such instances fall outside the partial structure
    and are counted as skipped rather than compared.

    Cost: the sums the laws run over are fixed inputs, built by
    ``formal_sum`` alone, so they are enumerated once per process for each
    (semiring, distribution flag, carrier size) on the first call and kept,
    with their cached hashes and reprs (:func:`_monad_pools`).  The laws
    themselves are evaluated on every call through the module-level
    ``unit``, ``fmap`` and ``flatten``, so a replaced ``unit`` or
    ``flatten`` is seen.  Within one configuration of one call each value is
    computed once, by ``functools.cache`` closures built per configuration:
    ``unit(x)`` per carrier key, the unit laws per distinct grid sum and the
    associativity law per distinct double sum (sums over a smaller carrier
    recur over the larger ones), and ``flatten`` per distinct sum of grid
    sums, whether it is an inner sum of a double sum or an intermediate of
    either side of the law.  A recurring sum still counts, and records its
    violations, every time it occurs.  No verdict or ``flatten`` result
    outlives its configuration; the kept pools are inputs to the laws, not
    results of them.
    """
    checked = 0
    skipped = 0
    violations: list[dict] = []
    configs = [(s, False) for s in Semiring] + [(Semiring.UNIT_INTERVAL, True)]
    for semiring, distribution in configs:
        config_checked, config_skipped, config_violations = _monad_laws_for(semiring, distribution)
        checked += config_checked
        skipped += config_skipped
        violations += config_violations
    return {"checked": checked, "skipped": skipped, "violations": violations}


#: (semiring, distribution flag, carrier size) -> (grid sums, double sums),
#: filled by _monad_pools.
_MONAD_POOLS: dict[tuple[Semiring, bool, int], tuple[tuple, tuple]] = {}


def _monad_pools(semiring: Semiring, distribution: bool, size: int):
    """(grid sums, double sums) over a carrier of ``size`` keys, built on
    first use and kept for the process.

    The unit laws run over the grid sums.  Associativity needs triple-nested
    sums, so the double sums are enumerated over deterministic capped pools,
    which keeps the coefficient grid exhaustive at every level.
    """
    key = (semiring, distribution, size)
    pools = _MONAD_POOLS.get(key)
    if pools is None:
        level1 = tuple(_grid_sums(semiring, tuple("abc"[:size]), distribution))
        pool2 = _enumerate_layered(semiring, level1[:6], distribution, cap=8)
        level3 = tuple(_enumerate_layered(semiring, pool2, distribution, cap=64))
        pools = _MONAD_POOLS[key] = (level1, level3)
    return pools


def _monad_laws_for(semiring: Semiring, distribution: bool) -> tuple[int, int, list]:
    """(checked, skipped, violations) of the monad laws for one configuration."""
    checked = 0
    skipped = 0
    violations: list[dict] = []
    # per-configuration memos; an overflow raised inside flat is not stored
    unit_of = cache(lambda x: unit(x, semiring, distribution))
    flat = cache(flatten)

    @cache
    def unit_laws(s: FormalSum) -> tuple[bool, bool]:
        """(outer law fails, inner law fails) for grid sum s."""
        return flatten(unit(s, semiring, distribution)) != s, flatten(fmap(unit_of, s)) != s

    @cache
    def assoc_fails(t: FormalSum) -> bool | None:
        """Whether associativity fails for double sum t; None when skipped."""
        try:
            return flat(flatten(t)) != flat(fmap(flat, t))
        except CoefficientOverflow:
            return None

    def record(law: str, culprit: FormalSum) -> None:
        violations.append({"semiring": semiring.value, "law": law, "sum": repr(culprit)})

    for size in range(1, MONAD_MAX_CARRIER + 1):
        level1, level3 = _monad_pools(semiring, distribution, size)
        for s in level1:
            outer_fails, inner_fails = unit_laws(s)
            checked += 1
            if outer_fails:
                record("flatten-unit-outer", s)
            if inner_fails:
                record("flatten-unit-inner", s)

        for t in level3:
            fails = assoc_fails(t)
            if fails is None:
                skipped += 1
                continue
            checked += 1
            if fails:
                record("flatten-associativity", t)

    return checked, skipped, violations
