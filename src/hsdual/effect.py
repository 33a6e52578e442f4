"""Partial commutative monoids, effect algebras, and their law checker.

An effect algebra is a set with a partial commutative associative sum, a
zero, and for every x a unique orthosupplement x' with x + x' = 1; the only
element summable with 1 is 0.  Some instances additionally carry a [0, 1]
scalar action (effect modules).  Instances are packaged as plain records of
closures over their carrier, with partiality encoded as an optional return:
``ovee`` yields None exactly when the sum is undefined.  An instance may also
carry its operations on stacks of encoded elements (``StackedOps``): integer
arrays for the unit interval and the powersets, matrix stacks for the
projections, and integer arrays for the unit interval's scalar action.  The
law checker writes each law once, on stacks, and tests many cases per call:
with an instance's stacked operations when it has them, and otherwise with
an adapter that applies its per-element operations row by row.

Four stock instances are provided -- the rational unit interval, finite
powersets under disjoint union, the effect operators of a finite-dimensional
Hilbert space under the Loewner order, and its projections with an
orthogonality side condition -- together with ``law_suite``, which hunts for
counterexamples to every axiom on an enumerated or sampled carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .linalg import _STACK_ENTRIES, DEFAULT_TOL, _is_dim, _seeded_rng, approx_eq, identity, zeros
from .operators import OperatorKind, _projection_pool, loewner_leq, sample, sample_unitary


@dataclass(frozen=True)
class StackedOps:
    """``ovee``, ``eq`` and ``orth`` of a carrier on stacks of encoded elements.

    ``encode(elements)`` maps a sequence of b carrier elements to the array
    whose leading axis runs over them: by default ``np.asarray``, which
    makes a matrix carrier's (b, n, n) stack; the exact carriers encode
    each element as one integer.  The operations act on such arrays.
    ``ovee(X, Y)`` returns the b sums X[i] (+) Y[i] and a (b,) boolean mask
    of which of them are defined; a sum the mask marks undefined may hold
    any value, and may be passed to the operations again.  ``eq(X, Y)``
    returns the (b,) mask of X[i] == Y[i], and ``orth(X)`` the b
    orthosupplements.  Case by case they must agree with the instance's
    per-element ``ovee``, ``eq`` and ``orth``, and like them be pure; they
    must not write to their arguments, which may be read-only views.

    ``sample``, if given, draws a whole pool: ``sample(seeds)`` takes a
    sequence of b integer seeds and returns the (b, n, n) stack whose
    element i is bit for bit the instance's ``sampler(seeds[i])``; it suits
    a matrix carrier, whose ``encode`` is ``np.asarray``.

    ``agrees_with``, if given, is the per-element ``ovee`` these operations
    agree with; ``law_suite`` ignores the stacked operations of an instance
    whose ``ovee`` is another function, say one replaced to plant a bug.

    ``scalars``, if given, holds the operations the four scalar laws run
    with: a ``StackedOps`` on an encoding of its own, in which every element
    those laws form has a code, with ``scalar_mul`` set.
    ``scalar_mul(K, X)`` returns the b products (K[i] / 64) . X[i], for
    integers K[i] in [0, 64].  Its ``agrees_with`` is the per-element
    ``scalar_mul`` it agrees with, and the scalar laws run per element on
    an instance whose ``scalar_mul`` (or ``ovee``) is another function.

    ``law_suite`` writes each law once, against this interface.  An
    instance's own ``StackedOps`` run it natively; for every other case
    ``law_suite`` builds an adapter ``StackedOps`` whose stacks are object
    arrays of elements and whose operations call the instance's own
    ``ovee``, ``eq``, ``orth`` and ``scalar_mul`` row by row, with a scalar
    code k as the ``Fraction`` k/64.
    """

    ovee: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    eq: Callable[[np.ndarray, np.ndarray], np.ndarray]
    orth: Callable[[np.ndarray], np.ndarray]
    sample: Optional[Callable[[Sequence[int]], np.ndarray]] = None
    encode: Callable[[Sequence], np.ndarray] = np.asarray
    agrees_with: Optional[Callable] = None
    scalar_mul: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    scalars: Optional[StackedOps] = None


@dataclass(frozen=True)
class EffectInstance:
    """One effect algebra, as data.

    ``ovee(x, y)`` returns the partial sum or None when undefined;
    ``orth`` is the orthosupplement; ``eq`` is carrier equality (exact or
    tolerance-based); ``scalar_mul`` is the optional [0, 1]-action taking an
    exact Fraction scalar; ``sampler`` draws a seed-deterministic element
    (the stock samplers raise ValueError unless the seed is an integer >= 0);
    ``universe`` enumerates the carrier when that is feasible.

    ``ovee``, ``orth`` and ``eq`` must be pure: the same arguments always
    give the same result, with no side effects.  ``law_suite`` relies on
    this when it computes each pair sum once and reuses it across laws.

    ``stacked``, if given, holds the same three operations on stacks of
    encoded elements (see ``StackedOps``).  ``law_suite`` then runs the
    effect-algebra laws with them (and the scalar laws with
    ``stacked.scalars``), a stack of cases per call, on an exhaustive or a
    sampled pool, and calls the per-element operations only to word, and
    confirm, the first case a law's stack flags; if ``stacked.sample`` is
    set, it draws the sampled pool as one stack.  Without ``stacked``, the
    same law code runs per element, through an adapter that calls
    ``ovee``, ``eq``, ``orth`` and ``scalar_mul`` row by row.  A replaced
    ``ovee`` that is not ``stacked.agrees_with`` sends the laws through
    the adapter when that field is set (the unit interval and the
    powersets set it; the projections do not), and so does a replaced
    ``scalar_mul`` that is not ``stacked.scalars.agrees_with`` for the
    scalar laws.  Otherwise, whoever replaces ``ovee``, ``eq``, ``orth`` or
    ``sampler`` on an instance that has ``stacked`` (say with
    ``dataclasses.replace``) must replace ``stacked`` too, or set it to
    None; otherwise the laws never call the new operation, or check a pool
    the new sampler did not draw.
    """

    name: str
    zero: Any
    one: Any
    ovee: Callable[[Any, Any], Optional[Any]]
    orth: Callable[[Any], Any]
    eq: Callable[[Any, Any], bool]
    scalar_mul: Optional[Callable[[Fraction, Any], Any]] = None
    sampler: Optional[Callable[[int], Any]] = None
    universe: Optional[tuple] = None
    describe: Callable[[Any], str] = field(default=repr, compare=False)
    stacked: Optional[StackedOps] = None


# --- stock instances --------------------------------------------------------


def make_unit_interval(max_denominator: int = 8) -> EffectInstance:
    """Exact rationals in [0, 1]; the sum is defined when it stays <= 1.

    The carrier is every p/q with 1 <= q <= max_denominator, so
    ``max_denominator`` must be at least 1 (ValueError otherwise).

    ``stacked`` encodes p/q as the integer p * (L / q), with L the least
    common multiple of 1..max_denominator, in the narrowest of int32 and
    int64 that holds 3L (three summed elements); the sum is X + Y, defined
    when it is at most L.  Beyond int64 (max_denominator above 42) there is
    no ``stacked``.  Encoding an element outside the carrier, say one drawn
    by a replaced ``sampler``, raises ValueError.

    ``stacked.scalars`` encodes x as the int64 x * 64L, so that a scalar r
    coded as r * 64 acts exactly as R * X // 64 on every element the scalar
    laws form from ``law_suite``'s eighths: r.x, r.(s.x), (r s).x and
    (r + s).x.  Its largest intermediate, a scalar code up to 64 times a sum
    code up to 128L, must fit in int64, so up to max_denominator 36 the
    scalar laws run on stacks and above it per element.
    """
    if not _is_dim(max_denominator):
        raise ValueError("unit-interval instances need max_denominator >= 1")
    universe = tuple(
        sorted(
            {
                Fraction(p, q)
                for q in range(1, max_denominator + 1)
                for p in range(0, q + 1)
            }
        )
    )

    def ovee(x: Fraction, y: Fraction) -> Optional[Fraction]:
        # s <= 1 as an integer compare: the denominator is positive
        s = x + y
        return s if s.numerator <= s.denominator else None

    def sampler(seed: int) -> Fraction:
        rng = _seeded_rng(seed)
        q = int(rng.integers(1, max_denominator + 1))
        p = int(rng.integers(0, q + 1))
        return Fraction(p, q)

    L = math.lcm(*range(1, max_denominator + 1))
    dtype = next((t for t in (np.int32, np.int64) if 3 * L <= np.iinfo(t).max), None)

    def code(x: Fraction) -> int:
        scale, rest = divmod(L, x.denominator)
        if rest or not 0 <= x <= 1:
            raise ValueError(
                f"{x} is not in the unit interval with denominators up to {max_denominator}"
            )
        return x.numerator * scale

    def scalar_mul(r: Fraction, x: Fraction) -> Fraction:
        return r * x

    scalars = None
    if 2**13 * L <= np.iinfo(np.int64).max:
        M = 64 * L
        scalars = StackedOps(
            ovee=lambda X, Y: (X + Y, X + Y <= M),
            eq=lambda X, Y: X == Y,
            orth=lambda X: M - X,
            encode=lambda xs: np.array([64 * code(x) for x in xs], np.int64),
            agrees_with=scalar_mul,
            scalar_mul=lambda K, X: K * X // 64,
        )
    stacked = None
    if dtype is not None:
        stacked = StackedOps(
            ovee=lambda X, Y: (X + Y, X + Y <= L),
            eq=lambda X, Y: X == Y,
            orth=lambda X: L - X,
            encode=lambda xs: np.array([code(x) for x in xs], dtype),
            agrees_with=ovee,
            scalars=scalars,
        )

    return EffectInstance(
        name="unit-interval",
        zero=Fraction(0),
        one=Fraction(1),
        ovee=ovee,
        orth=lambda x: 1 - x,
        eq=lambda x, y: x == y,
        scalar_mul=scalar_mul,
        sampler=sampler,
        universe=universe,
        describe=str,
        stacked=stacked,
    )


def make_powerset(size: int) -> EffectInstance:
    """Subsets of {0, .., size-1}; disjoint sets sum by union.

    ``stacked`` encodes a subset as its int32 bitmask: the sum is X | Y,
    defined when X & Y is empty, and the orthosupplement is the complement
    mask.  Encoding a set outside the carrier raises ValueError.
    """
    if not (_is_dim(size) and size <= 16):
        raise ValueError("powerset instances support sizes 1..16")
    ground = frozenset(range(size))
    full = (1 << size) - 1

    def ovee(x: frozenset, y: frozenset) -> Optional[frozenset]:
        return x | y if not (x & y) else None

    def code(x: frozenset) -> int:
        if not x <= ground:
            raise ValueError(f"{set(x)} is not an element of powerset-{size}")
        return sum(1 << i for i in x)

    stacked = StackedOps(
        ovee=lambda X, Y: (X | Y, (X & Y) == 0),
        eq=lambda X, Y: X == Y,
        orth=lambda X: full ^ X,
        encode=lambda xs: np.array([code(x) for x in xs], np.int32),
        agrees_with=ovee,
    )

    def sampler(seed: int) -> frozenset:
        rng = _seeded_rng(seed)
        mask = rng.integers(0, 2, size=size)
        return frozenset(i for i in range(size) if mask[i])

    universe = None
    if size <= 8:
        universe = tuple(
            frozenset(i for i in range(size) if (bits >> i) & 1) for bits in range(2**size)
        )

    return EffectInstance(
        name=f"powerset-{size}",
        zero=frozenset(),
        one=ground,
        ovee=ovee,
        orth=lambda x: ground - x,
        eq=lambda x, y: x == y,
        sampler=sampler,
        universe=universe,
        describe=lambda x: "{" + ",".join(map(str, sorted(x))) + "}",
        stacked=stacked,
    )


def _describe_matrix(A) -> str:
    return np.array2string(np.asarray(A), precision=4, suppress_small=True)


def make_effects(dim: int, tol: float = DEFAULT_TOL) -> EffectInstance:
    """Effect operators on a dim-dimensional space: 0 <= A <= I.

    The sum A + B is defined when it stays below the identity in the Loewner
    order; the orthosupplement is I - A; scalars act by plain multiplication.
    ``dim`` must be at least 1 (ValueError otherwise).
    """
    if not _is_dim(dim):
        raise ValueError("effect-operator instances need dim >= 1")
    one = identity(dim)

    def ovee(A: np.ndarray, B: np.ndarray) -> Optional[np.ndarray]:
        S = A + B
        return S if loewner_leq(S, one, tol) else None

    def sampler(seed: int) -> np.ndarray:
        # scale sampled effects down by a random factor so that summable
        # pairs occur with useful frequency
        rng = _seeded_rng(seed)
        sub = int(rng.integers(0, 2**62))
        u = float(rng.uniform())
        return u * sample(OperatorKind.EFFECT, dim, sub)

    return EffectInstance(
        name=f"effects-{dim}",
        zero=zeros(dim),
        one=one,
        ovee=ovee,
        orth=lambda A: one - A,
        eq=lambda A, B: approx_eq(A, B, tol),
        scalar_mul=lambda r, A: float(r) * A,
        sampler=sampler,
        describe=_describe_matrix,
    )


def make_projections(dim: int, tol: float = DEFAULT_TOL) -> EffectInstance:
    """Orthogonal projections; P + Q is defined when the ranges are orthogonal.

    Orthogonality is the operational test max|P Q| <= tol.  There is no
    scalar action: a scaled projection is no longer a projection.  ``dim``
    must be at least 1 (ValueError otherwise).

    Each operation is written once, on stacks, as the instance's
    ``stacked``; the per-element ``ovee``, ``eq``, ``orth`` and ``sampler``
    apply it to one-element stacks, so both compute the same values.
    The pool is drawn by ``operators._projection_pool``, the one place that
    draws projections, with a fixed shared basis: an odd seed gives
    ``sample(PROJECTION, dim, seed)`` bit for bit, and an even seed a column
    subset of the shared basis.
    """
    if not _is_dim(dim):
        raise ValueError("projection instances need dim >= 1")
    one = identity(dim)
    # Half the samples project onto subsets of a fixed orthonormal basis, so
    # that orthogonal (summable) pairs occur with useful frequency; the rest
    # come from fresh random bases.
    shared_basis = sample_unitary(dim, seed=0xB415 + dim)

    def max_norms(X: np.ndarray) -> np.ndarray:
        return np.abs(X).max(axis=(1, 2))

    stacked = StackedOps(
        ovee=lambda P, Q: (P + Q, max_norms(P @ Q) <= tol),
        eq=lambda P, Q: max_norms(P - Q) <= tol,
        orth=lambda P: one - P,
        sample=lambda seeds: _projection_pool(dim, seeds, shared_basis),
    )

    def ovee(P: np.ndarray, Q: np.ndarray) -> Optional[np.ndarray]:
        S, defined = stacked.ovee(np.asarray(P)[None], np.asarray(Q)[None])
        return S[0] if defined[0] else None

    return EffectInstance(
        name=f"projections-{dim}",
        zero=zeros(dim),
        one=one,
        ovee=ovee,
        orth=lambda P: stacked.orth(np.asarray(P)[None])[0],
        eq=lambda P, Q: bool(stacked.eq(np.asarray(P)[None], np.asarray(Q)[None])[0]),
        sampler=lambda seed: stacked.sample([seed])[0],
        describe=_describe_matrix,
        stacked=stacked,
    )


# --- law suite ---------------------------------------------------------------


@dataclass(frozen=True)
class LawEntry:
    law: str
    passed: bool
    checked: int
    counterexample: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "pass": self.passed,
            "checked": self.checked,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class LawReport:
    instance: str
    seed: int
    tol: float
    entries: tuple[LawEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, law: str) -> LawEntry:
        for e in self.entries:
            if e.law == law:
                return e
        raise KeyError(law)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "seed": self.seed,
            "tol": self.tol,
            "pass": self.all_pass,
            "laws": [e.to_json() for e in self.entries],
        }


_EXHAUSTIVE_CAP = 40


def checks_exhaustively(inst: EffectInstance) -> bool:
    """Whether ``law_suite`` checks every element of ``inst``'s carrier.

    True when the instance enumerates a universe of at most 40 elements; its
    ``samples`` argument is then not used.
    """
    return inst.universe is not None and len(inst.universe) <= _EXHAUSTIVE_CAP


def _element_pool(inst: EffectInstance, samples: int, seed: int) -> tuple[Sequence, bool]:
    """The pool and whether it is the whole carrier; a pool drawn by
    ``stacked.sample`` is a read-only (samples + 2, n, n) stack."""
    if checks_exhaustively(inst):
        return list(inst.universe), True
    if not _is_dim(samples):
        raise ValueError(f"a sampled law check needs samples >= 1, got {samples}")
    if inst.stacked is not None and inst.stacked.sample is not None:
        drawn = inst.stacked.sample(range(seed, seed + samples))
        pool = np.concatenate((drawn, [inst.zero, inst.one]))
        pool.setflags(write=False)
        return pool, False
    if inst.sampler is None:
        raise ValueError(
            f"instance {inst.name} has no sampler and no universe of at most {_EXHAUSTIVE_CAP} elements"
        )
    pool = [inst.sampler(seed + i) for i in range(samples)]
    pool.append(inst.zero)
    pool.append(inst.one)
    return pool, False


def _objects(values: Iterable) -> np.ndarray:
    """A 1-D object array of ``values``, which may themselves be arrays."""
    return np.fromiter(values, object)


def _defined(S: np.ndarray) -> np.ndarray:
    """The mask of the sums in an object array that are defined (not None)."""
    return np.fromiter((s is not None for s in S), bool, len(S))


def _adapter(inst: EffectInstance) -> StackedOps:
    """``StackedOps`` on object arrays that apply ``inst``'s own ``ovee``,
    ``eq``, ``orth`` and ``scalar_mul`` row by row (a scalar code k is the
    Fraction k/64).  A row with a None operand, an undefined sum, is None,
    or unequal, without a call."""

    def each(f, *stacks):
        return _objects(None if any(a is None for a in row) else f(*row) for row in zip(*stacks))

    def ovee(X, Y):
        S = each(inst.ovee, X, Y)
        return S, _defined(S)

    def scalar_mul(K, X):
        return each(lambda k, x: inst.scalar_mul(Fraction(int(k), 64), x), K, X)

    return StackedOps(
        ovee=ovee,
        eq=lambda X, Y: each(inst.eq, X, Y).astype(bool),
        orth=lambda X: each(inst.orth, X),
        encode=_objects,
        scalar_mul=scalar_mul,
    )


class _Cases:
    """What a law's test runs on: the pool and its orthosupplements as one
    stack encoded by ``ops`` (pool[i] at i, its orthosupplement at n + i),
    and the scalar pool as 64ths.

    An operation given ``where`` forms its values only at the rows where it
    holds; elsewhere a sum is undefined, an equality false and a product
    any value.  Stacked operations form every row and mask the result.
    """

    def __init__(self, ops: StackedOps, pool: Sequence, inst: EffectInstance, scalars: np.ndarray):
        stack = ops.encode(pool)
        stack.setflags(write=False)
        self.stack = np.concatenate((stack, ops.orth(stack)))
        self.stack.setflags(write=False)
        self.ends = ops.encode([inst.zero, inst.one])
        self.ops, self.scalars = ops, scalars
        self.width = math.prod(self.stack.shape[1:])  # encoded entries per element

    def columns(self, names: str, rows: np.ndarray) -> list:
        """The operand stacks of ``rows``: column r or s indexes the scalars."""
        return [self.scalars[c] if name in "rs" else self.stack[c] for name, c in zip(names, rows.T)]

    def zero(self, X):
        return np.broadcast_to(self.ends[:1], X.shape)

    def one(self, X):
        return np.broadcast_to(self.ends[1:], X.shape)

    def _only(self, X, where):
        return X

    def ovee(self, X, Y, where=None):
        S, defined = self.ops.ovee(self._only(X, where), Y)
        return S, defined if where is None else defined & where

    def pair(self, X, Y, where=None):
        """X (+) Y for stack elements X and Y."""
        return self.ovee(X, Y, where)

    def eq(self, X, Y, where=None):
        same = self.ops.eq(self._only(X, where), Y)
        return same if where is None else same & where

    def mul(self, K, X, where=None):
        return self.ops.scalar_mul(K, self._only(X, where))


class _ElementCases(_Cases):
    """The same cases as object arrays under ``_adapter(inst)``: per element.

    Each pair of stack elements is summed once, and each orthosupplement
    formed once, per instance of this class.
    """

    def __init__(self, inst: EffectInstance, pool: Sequence, scalars: np.ndarray):
        super().__init__(_adapter(inst), pool, inst, scalars)
        self.inst = inst
        self.sums: dict = {}

    def _only(self, X, where):
        return X if where is None else np.where(where, X, None)

    def pair(self, X, Y, where=None):
        def total(x, y):
            key = (id(x), id(y))
            if key not in self.sums:
                # x and y are held, so that no other object takes their ids
                self.sums[key] = (x, y, self.inst.ovee(x, y))
            return self.sums[key][2]

        S = _objects(None if x is None else total(x, y) for x, y in zip(self._only(X, where), Y))
        return S, _defined(S)

    def word(self, message: str, names: str, row: np.ndarray) -> str:
        """``message`` with each of the row's columns in its place."""
        d = self.inst.describe
        terms = {
            name: str(Fraction(int(self.scalars[c]), 64)) if name in "rs" else d(self.stack[c])
            for name, c in zip(names, row.tolist())
        }
        return message.format(**terms)


# Each law is written once, on stacks: it takes the cases and the operand
# stacks of its rows, and returns one mask per message.  A row's reason code
# is k for the first mask k that holds there, and 0 (the law holds) when
# none does.


def _zero_unit(c: _Cases, X):
    S, defined = c.ovee(c.zero(X), X)
    return ~defined, defined & ~c.eq(S, X, defined)


def _commutativity(c: _Cases, X, Y):
    S1, d1 = c.pair(X, Y)
    S2, d2 = c.pair(Y, X)
    both = d1 & d2
    return d1 != d2, both & ~c.eq(S1, S2, both)


def _associativity(c: _Cases, X, Y, Z):
    # vacuous where x (+) (y (+) z) is undefined
    X_YZ, held = c.ovee(X, *c.pair(Y, Z))
    XY, d_xy = c.pair(X, Y, held)
    XY_Z, d_xy_z = c.ovee(XY, Z, d_xy)
    return held & ~d_xy, d_xy & ~d_xy_z, d_xy_z & ~c.eq(X_YZ, XY_Z, d_xy_z)


def _orth_exists(c: _Cases, X, Xo):
    S, defined = c.pair(X, Xo)
    return ~defined, defined & ~c.eq(S, c.one(X), defined)


def _orth_unique(c: _Cases, X, Y, Xo):
    S, defined = c.pair(X, Y)
    sums_to_one = c.eq(S, c.one(X), defined)
    return (sums_to_one & ~c.eq(Y, Xo, sums_to_one),)


def _one_maximal(c: _Cases, X):
    _, defined = c.ovee(X, c.one(X))
    return (defined & ~c.eq(X, c.zero(X), defined),)


def _scalar_unit(c: _Cases, X):
    return (~c.eq(c.mul(np.full(len(X), 64), X), X),)


def _scalar_associativity(c: _Cases, X, R, S):
    return (~c.eq(c.mul(R * S // 64, X), c.mul(R, c.mul(S, X))),)


def _scalar_distributes_over_sum(c: _Cases, X, Y, R):
    XY, defined = c.pair(X, Y)
    lhs, held = c.ovee(c.mul(R, X, defined), c.mul(R, Y, defined), defined)
    return defined & ~held, held & ~c.eq(lhs, c.mul(R, XY, held), held)


def _scalar_sum_distributes(c: _Cases, X, R, S):
    # vacuous where r + s > 1; the cap keeps every scalar code <= 64
    applies = R + S <= 64
    lhs, held = c.ovee(c.mul(R, X, applies), c.mul(S, X, applies), applies)
    RS_X = c.mul(np.minimum(R + S, 64), X, held)
    return applies & ~held, held & ~c.eq(lhs, RS_X, held)


# (law, the columns of its rows, its test, then its messages by reason code).
# Column x, y or z indexes the pool, o the orthosupplement of x, and r or s
# the scalar pool.  The last four laws are the scalar (effect-module) laws.
_LAWS = (
    ("zero-unit", "x", _zero_unit, "0 (+) x undefined for x = {x}", "0 (+) x != x for x = {x}"),
    ("commutativity", "xy", _commutativity,
        "definedness of x (+) y differs from y (+) x for x = {x}, y = {y}",
        "x (+) y != y (+) x for x = {x}, y = {y}"),
    ("associativity", "xyz", _associativity,
        "x (+) y undefined although x (+) (y (+) z) is defined: x = {x}, y = {y}, z = {z}",
        "(x (+) y) (+) z undefined although x (+) (y (+) z) is defined: x = {x}, y = {y}, z = {z}",
        "associativity fails for x = {x}, y = {y}, z = {z}"),
    ("orthosupplement-exists", "xo", _orth_exists,
        "x (+) orth(x) undefined for x = {x}", "x (+) orth(x) != 1 for x = {x}"),
    ("orthosupplement-unique", "xyo", _orth_unique,
        "x (+) y = 1 but y != orth(x) for x = {x}, y = {y}"),
    ("one-maximal", "x", _one_maximal, "x (+) 1 defined for x != 0: x = {x}"),
    ("scalar-unit", "x", _scalar_unit, "1 . x != x for x = {x}"),
    ("scalar-associativity", "xrs", _scalar_associativity,
        "(r s) . x != r . (s . x) for r = {r}, s = {s}, x = {x}"),
    ("scalar-distributes-over-sum", "xyr", _scalar_distributes_over_sum,
        "r.x (+) r.y undefined although x (+) y defined: r = {r}, x = {x}, y = {y}",
        "r.(x (+) y) != r.x (+) r.y for r = {r}, x = {x}, y = {y}"),
    ("scalar-sum-distributes", "xrs", _scalar_sum_distributes,
        "r.x (+) s.x undefined although r + s <= 1: r = {r}, s = {s}, x = {x}",
        "(r + s).x != r.x (+) s.x for r = {r}, s = {s}, x = {x}"),
)


def law_suite(
    inst: EffectInstance,
    samples: int = 500,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> LawReport:
    """Check every effect-algebra (and module, when present) axiom.

    Small enumerable carriers are checked exhaustively over all pairs and
    triples; otherwise ``samples`` elements are drawn from the instance
    sampler (ValueError unless samples >= 1 and the instance has a
    sampler).  ``seed`` must be an integer >= 0 (ValueError otherwise).
    Each law reports how many instances were checked and the first
    counterexample found, if any.  Carrier equality is the instance's own
    ``eq``; ``tol`` is recorded in the report for downstream thresholds.

    Every law runs over rows of pool indices: singles, pairs, triples, or
    the complement rows (x, orth(x)).  Its cases are the rows in order, and
    ``checked`` counts them up to the first that fails.  The scalars are
    eighths, drawn once per pair.

    A sampled pool holds ``sampler(seed + i)`` for i < samples, then zero
    and one.  ``stacked.sample`` draws it as one stack when the instance has
    it (for projections: one QR and one product per column pattern for the
    whole pool), and ``sampler`` element by element otherwise.

    Cost.  Each law is written once, on stacks, and tests a chunk of rows
    per call, whose operand columns hold at most 2^16 encoded entries in
    all.  The pool is encoded once and stacked with its orthosupplements,
    so the memory beyond that stack stays bounded for any ``samples``.  An
    instance whose ``stacked`` agrees with its ``ovee`` (see
    ``EffectInstance``) runs the six effect-algebra laws with those
    operations, and the four scalar laws with ``stacked.scalars`` when that
    agrees with its ``scalar_mul``.  Its per-element operations are called
    only when a law's stack flags a row: that row runs again per element,
    to word the counterexample, and ValueError is raised if it passes
    there.  So the report equals the per-element one (same draws, counts,
    positions and text).  Every other law runs per element: the same law
    code, on object arrays whose operations call the instance's own
    ``ovee``, ``eq``, ``orth`` and ``scalar_mul`` row by row.  There each
    ordered pair of pool elements and orthosupplements is summed at most
    once per call and shared by every law that needs it, each orth(x) is
    taken once per pool element, and a sum with an undefined operand, such
    as x (+) (y (+) z) where y (+) z is undefined, is not formed.  These
    memos live for one call.  A whole chunk of rows is evaluated before its
    first failure is reported, so the operations may also be called on
    cases after it.
    """
    rng = _seeded_rng(seed)
    pool, exhaustive = _element_pool(inst, samples, seed)
    n = len(pool)

    # rows index the pool at i and orth(pool[i]) at n + i
    singles = np.arange(n)[:, None]
    complements = np.column_stack((np.arange(n), np.arange(n, 2 * n)))
    if exhaustive:
        pairs = np.indices((n, n)).reshape(2, -1).T
        triples = np.indices((n, n, n)).reshape(3, -1).T
    else:
        # one call draws what 5 * samples calls rng.integers(0, n) would, in
        # the same order: two per pair, then three per triple
        draws = rng.integers(0, n, size=5 * samples)
        pairs = draws[: 2 * samples].reshape(-1, 2)
        triples = draws[2 * samples :].reshape(-1, 3)
    # the uniqueness law also runs on the complement rows, so that it is
    # exercised even when random pairs rarely sum to 1
    unique = np.concatenate((pairs, complements))
    # the rows of each law, in the order of _LAWS
    rows = [singles, pairs, triples, complements, np.column_stack((unique, unique[:, 0] + n)), singles]
    scalars = None
    if inst.scalar_mul is not None:
        # one call draws what as many calls rng.integers(0, 9) would, in
        # order; as 64ths, so that r s and r + s are whole codes
        m = max(len(pairs), 1)
        scalars = 8 * rng.integers(0, 9, size=m)
        i = np.arange(n)
        rows += [singles, np.column_stack((i, i % m, (i * 7 + 3) % m))]
        rows += [np.column_stack((pairs, np.arange(len(pairs)))), np.column_stack((i, i % m, (i * 5 + 1) % m))]

    ops = inst.stacked
    if ops is not None and ops.agrees_with not in (None, inst.ovee):
        ops = None  # they agree with another ovee than the one to check
    sops = None if ops is None or scalars is None else ops.scalars
    if sops is not None and sops.agrees_with not in (None, inst.scalar_mul):
        sops = None
    stacked = [ops and _Cases(ops, pool, inst, scalars)] * 6
    stacked += [sops and _Cases(sops, pool, inst, scalars)] * 4
    per_element = cache(lambda: _ElementCases(inst, pool, scalars))

    entries: list[LawEntry] = []
    for (law, names, test, *messages), law_rows, cases in zip(_LAWS, rows, stacked):
        cases = cases or per_element()
        # a chunk of rows whose operand columns hold at most 2^16 entries
        chunk = max(1, _STACK_ENTRIES // (cases.width * len(names)))
        for lo in range(0, len(law_rows), chunk):
            block = law_rows[lo : lo + chunk]
            fails = test(cases, *cases.columns(names, block))
            failed = np.flatnonzero(reduce(np.logical_or, fails))
            if not len(failed):
                continue
            f, words = int(failed[0]), per_element()
            position, row = lo + f + 1, block[f]
            if cases is not words:  # word, and confirm, a stacked flag per element
                fails, f = test(words, *words.columns(names, block[f : f + 1])), 0
            code = next((k for k, fail in enumerate(fails, 1) if fail[f]), 0)  # the row's reason code
            if not code:
                why = f"the stacked operations fail a {law} case that ovee, eq and orth pass"
                raise ValueError(f"{inst.name}: {why}")
            entries.append(LawEntry(law, False, position, words.word(messages[code - 1], names, row)))
            break
        else:
            entries.append(LawEntry(law, True, len(law_rows), None))

    return LawReport(inst.name, int(seed), tol, tuple(entries))  # json cannot write a NumPy int


__all__ = [
    "EffectInstance",
    "StackedOps",
    "LawEntry",
    "LawReport",
    "make_unit_interval",
    "make_powerset",
    "make_effects",
    "make_projections",
    "law_suite",
    "checks_exhaustively",
]
