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
law checker then tests many cases per call.

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
from functools import cache
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
    encoded elements (see ``StackedOps``), and ``law_suite`` then checks
    the effect-algebra laws with them (and the scalar laws with
    ``stacked.scalars``), a stack of cases per call, on an exhaustive or a
    sampled pool; if ``stacked.sample`` is set, it draws the sampled pool as
    one stack.  A replaced ``ovee`` that is not ``stacked.agrees_with``
    turns the stacked laws off when that field is set (the unit interval
    and the powersets set it; the projections do not), and so does a
    replaced ``scalar_mul`` that is not ``stacked.scalars.agrees_with`` for
    the scalar laws.  Otherwise, whoever replaces ``ovee``, ``eq``,
    ``orth`` or ``sampler`` on an instance that has ``stacked`` (say with
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


def _scalar_pool(rng: np.random.Generator, count: int) -> tuple[list[Fraction], np.ndarray]:
    """count scalars k/8, and the same as the int64 64ths 8k."""
    # one call draws what count calls rng.integers(0, 9) would, in order
    ks = rng.integers(0, 9, size=count)
    grid = [Fraction(k, 8) for k in range(9)]
    return [grid[k] for k in ks.tolist()], 8 * ks


def _stacked_tests(ops: StackedOps, zero_code, one_code) -> dict[str, Callable]:
    """Each effect-algebra law's check, written on stacks with ``ops``.

    ``zero_code`` and ``one_code`` are the encoded zero and one.  A law's
    test takes one operand stack per column of its index rows (see
    ``law_suite``) and returns the mask of the cases whose per-element check
    fails.
    """

    def zero(X):
        return np.broadcast_to(zero_code, X.shape)

    def one(X):
        return np.broadcast_to(one_code, X.shape)

    def zero_unit(X):
        S, defined = ops.ovee(zero(X), X)
        return ~defined | ~ops.eq(S, X)

    def commutativity(X, Y):
        S1, d1 = ops.ovee(X, Y)
        S2, d2 = ops.ovee(Y, X)
        return (d1 != d2) | (d1 & ~ops.eq(S1, S2))

    def associativity(X, Y, Z):
        YZ, d_yz = ops.ovee(Y, Z)
        X_YZ, d_x_yz = ops.ovee(X, YZ)
        XY, d_xy = ops.ovee(X, Y)
        XY_Z, d_xy_z = ops.ovee(XY, Z)
        return d_yz & d_x_yz & ~(d_xy & d_xy_z & ops.eq(X_YZ, XY_Z))

    def orth_exists(X, Xo):
        S, defined = ops.ovee(X, Xo)
        return ~defined | ~ops.eq(S, one(X))

    def orth_unique(X, Y):
        S, defined = ops.ovee(X, Y)
        return defined & ops.eq(S, one(X)) & ~ops.eq(Y, ops.orth(X))

    def one_maximal(X):
        _, defined = ops.ovee(X, one(X))
        return defined & ~ops.eq(X, zero(X))

    return {
        "zero-unit": zero_unit,
        "commutativity": commutativity,
        "associativity": associativity,
        "orthosupplement-exists": orth_exists,
        "orthosupplement-unique": orth_unique,
        "one-maximal": one_maximal,
    }


def _stacked_scalar_tests(
    ops: StackedOps, stack: np.ndarray, K: np.ndarray
) -> dict[str, Callable]:
    """Each scalar law's check, written on stacks with ``ops.scalar_mul``.

    ``stack`` holds the pool encoded by ``ops``, and K the scalar pool as
    64ths.  The scalars are eighths, so r s and r + s are whole 64ths.  A
    law's test takes the columns of its index rows (see ``law_suite``) and
    returns the mask of the cases whose per-element check fails.
    """
    mul, m = ops.scalar_mul, len(K)

    def unit(i):
        X = stack[i]
        return ~ops.eq(mul(np.full(len(i), 64), X), X)

    def associativity(i):
        X, R, S = stack[i], K[i % m], K[(i * 7 + 3) % m]
        return ~ops.eq(mul(R * S // 64, X), mul(R, mul(S, X)))

    def distributes_over_sum(p, a, b):
        R, X, Y = K[p % m], stack[a], stack[b]
        XY, defined = ops.ovee(X, Y)
        lhs, lhs_defined = ops.ovee(mul(R, X), mul(R, Y))
        return defined & ~(lhs_defined & ops.eq(lhs, mul(R, XY)))

    def sum_distributes(i):
        X, R, S = stack[i], K[i % m], K[(i * 5 + 1) % m]
        lhs, defined = ops.ovee(mul(R, X), mul(S, X))
        # a case with r + s > 1 holds vacuously; the cap keeps codes <= 64
        return (R + S <= 64) & ~(defined & ops.eq(lhs, mul(np.minimum(R + S, 64), X)))

    return {
        "scalar-unit": unit,
        "scalar-associativity": associativity,
        "scalar-distributes-over-sum": distributes_over_sum,
        "scalar-sum-distributes": sum_distributes,
    }


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
    it stops at the first row whose per-element check fails.

    Cost, per element: each ordered pair of elements is summed at most once
    per run and shared by every law that needs it, so an exhaustive pool of
    n elements costs at most n² pair sums.  Likewise orth(x) and
    x (+) orth(x) are computed once per pool element and shared by both
    orthosupplement laws.  These values are held by two ``functools.cache``
    closures built on each call, so they live for one call; nothing is
    cached across calls.  Associativity holds vacuously where y (+) z is
    undefined, so an exhaustive pool without ``stacked`` visits only the
    triples (x, y, z) with y (+) z defined, read off a table of all n²
    pair sums; ``checked`` still counts all n³ of them, or gives the
    1-based x-major position of the first failing triple.

    A sampled pool holds ``sampler(seed + i)`` for i < samples, then zero
    and one.  ``stacked.sample`` draws it as one stack when the instance has
    it (for projections: one QR and one product per column pattern for the
    whole pool), and ``sampler`` element by element otherwise.  On an
    instance with ``stacked`` (and whose ``ovee`` is the one it agrees
    with), the pool, exhaustive or sampled, is encoded once and stacked with
    its orthosupplements, and each of the six effect-algebra laws tests its
    rows with ``stacked``, a chunk of at most 2^16 encoded entries per
    operand at a time, so the memory beyond those two stacks stays bounded
    for any ``samples``.  Only the rows a test flags run per element, to
    word the counterexample; the report equals the per-element one (same
    draws, counts, positions and text), and ValueError is raised if the
    per-element check passes a flagged case.  The four scalar laws run the
    same way with ``stacked.scalars`` when the instance has it and its
    ``scalar_mul`` is the one those agree with (the unit interval up to
    max_denominator 36), and per element otherwise.
    """
    rng = _seeded_rng(seed)
    pool, exhaustive = _element_pool(inst, samples, seed)
    n = len(pool)

    # rows index ``elements``: pool[i] at i, orth(pool[i]) at n + i
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

    @cache
    def element(i: int):
        """pool[i], or orth(pool[i - n]), computed once per run."""
        return pool[i] if i < n else inst.orth(pool[i - n])

    @cache
    def pair_sum(i: int, j: int):
        """element(i) (+) element(j), computed once per run."""
        return inst.ovee(element(i), element(j))

    d = inst.describe

    def chk_zero(i):
        x = pool[i]
        s = inst.ovee(inst.zero, x)
        if s is None:
            return f"0 (+) x undefined for x = {d(x)}"
        if not inst.eq(s, x):
            return f"0 (+) x != x for x = {d(x)}"
        return None

    def chk_comm(i, j):
        s1 = pair_sum(i, j)
        s2 = pair_sum(j, i)
        x, y = pool[i], pool[j]
        if (s1 is None) != (s2 is None):
            return f"definedness of x (+) y differs from y (+) x for x = {d(x)}, y = {d(y)}"
        if s1 is not None and not inst.eq(s1, s2):
            return f"x (+) y != y (+) x for x = {d(x)}, y = {d(y)}"
        return None

    def chk_assoc(i, j, k):
        yz = pair_sum(j, k)
        if yz is None:
            return None
        x, y, z = pool[i], pool[j], pool[k]
        x_yz = inst.ovee(x, yz)
        if x_yz is None:
            return None
        xy = pair_sum(i, j)
        if xy is None:
            return f"x (+) y undefined although x (+) (y (+) z) is defined: x = {d(x)}, y = {d(y)}, z = {d(z)}"
        xy_z = inst.ovee(xy, z)
        if xy_z is None:
            return f"(x (+) y) (+) z undefined although x (+) (y (+) z) is defined: x = {d(x)}, y = {d(y)}, z = {d(z)}"
        if not inst.eq(x_yz, xy_z):
            return f"associativity fails for x = {d(x)}, y = {d(y)}, z = {d(z)}"
        return None

    def chk_orth_exists(i, c):
        s = pair_sum(i, c)
        if s is None:
            return f"x (+) orth(x) undefined for x = {d(pool[i])}"
        if not inst.eq(s, inst.one):
            return f"x (+) orth(x) != 1 for x = {d(pool[i])}"
        return None

    def chk_orth_unique(i, j):
        s = pair_sum(i, j)
        if s is None or not inst.eq(s, inst.one):
            return None
        y = element(j)
        if not inst.eq(y, element(n + i)):
            return f"x (+) y = 1 but y != orth(x) for x = {d(pool[i])}, y = {d(y)}"
        return None

    def chk_one_maximal(i):
        x = pool[i]
        s = inst.ovee(x, inst.one)
        if s is not None and not inst.eq(x, inst.zero):
            return f"x (+) 1 defined for x != 0: x = {d(x)}"
        return None

    # (law, index rows, per-element check); the uniqueness law also runs on
    # the complement rows, so that it is exercised even when random pairs
    # rarely sum to 1
    laws = [
        ("zero-unit", singles, chk_zero),
        ("commutativity", pairs, chk_comm),
        ("associativity", triples, chk_assoc),
        ("orthosupplement-exists", complements, chk_orth_exists),
        ("orthosupplement-unique", np.concatenate((pairs, complements)), chk_orth_unique),
        ("one-maximal", singles, chk_one_maximal),
    ]

    if inst.scalar_mul is not None:
        smul = inst.scalar_mul
        scalars, scalar_codes = _scalar_pool(rng, max(len(pairs), 1))

        def chk_scalar_one(i):
            x = pool[i]
            if not inst.eq(smul(Fraction(1), x), x):
                return f"1 . x != x for x = {d(x)}"
            return None

        def chk_scalar_assoc(i):
            x = pool[i]
            r, s = scalars[i % len(scalars)], scalars[(i * 7 + 3) % len(scalars)]
            if not inst.eq(smul(r * s, x), smul(r, smul(s, x))):
                return f"(r s) . x != r . (s . x) for r = {r}, s = {s}, x = {d(x)}"
            return None

        def chk_scalar_distrib_elem(p, a, b):
            r = scalars[p % len(scalars)]
            s = pair_sum(a, b)
            if s is None:
                return None
            x, y = pool[a], pool[b]
            lhs = inst.ovee(smul(r, x), smul(r, y))
            if lhs is None:
                return f"r.x (+) r.y undefined although x (+) y defined: r = {r}, x = {d(x)}, y = {d(y)}"
            if not inst.eq(lhs, smul(r, s)):
                return f"r.(x (+) y) != r.x (+) r.y for r = {r}, x = {d(x)}, y = {d(y)}"
            return None

        def chk_scalar_distrib_scalar(i):
            x = pool[i]
            r, s = scalars[i % len(scalars)], scalars[(i * 5 + 1) % len(scalars)]
            if r + s > 1:
                return None
            lhs = inst.ovee(smul(r, x), smul(s, x))
            if lhs is None:
                return f"r.x (+) s.x undefined although r + s <= 1: r = {r}, s = {s}, x = {d(x)}"
            if not inst.eq(lhs, smul(r + s, x)):
                return f"(r + s).x != r.x (+) s.x for r = {r}, s = {s}, x = {d(x)}"
            return None

        indexed_pairs = np.column_stack((np.arange(len(pairs)), pairs))
        laws += [
            ("scalar-unit", singles, chk_scalar_one),
            ("scalar-associativity", singles, chk_scalar_assoc),
            ("scalar-distributes-over-sum", indexed_pairs, chk_scalar_distrib_elem),
            ("scalar-sum-distributes", singles, chk_scalar_distrib_scalar),
        ]

    # flags[law] marks a chunk's candidate rows; a law without one runs
    # every row.  A stacked test flags the rows whose check fails.
    ops = inst.stacked
    if ops is not None and ops.agrees_with not in (None, inst.ovee):
        ops = None  # they agree with another ovee than the one to check
    if ops is None:
        chunk, tests = _STACK_ENTRIES, {}
    else:
        stack = ops.encode(pool)
        stack.setflags(write=False)
        stack = np.concatenate((stack, ops.orth(stack)))
        stack.setflags(write=False)
        chunk = max(1, _STACK_ENTRIES // stack[0].size)
        tests = {
            law: lambda rows, test=test: test(*stack[rows.T])
            for law, test in _stacked_tests(ops, *ops.encode([inst.zero, inst.one])).items()
        }
        sops = ops.scalars if inst.scalar_mul is not None else None
        if sops is not None and sops.agrees_with in (None, inst.scalar_mul):
            sstack = sops.encode(pool)
            sstack.setflags(write=False)
            for law, test in _stacked_scalar_tests(sops, sstack, scalar_codes).items():
                tests[law] = lambda rows, test=test: test(*rows.T)
    flags = dict(tests)
    if exhaustive and ops is None:
        defined = np.array([[pair_sum(j, k) is not None for k in range(n)] for j in range(n)])
        flags["associativity"] = lambda rows: defined[rows[:, 1], rows[:, 2]]

    def candidates(rows: np.ndarray, flag: Optional[Callable]) -> Iterable:
        """(1-based position, row) of each flagged row, a chunk at a time."""
        for lo in range(0, len(rows), chunk):
            block = rows[lo : lo + chunk]
            at = np.arange(len(block)) if flag is None else np.flatnonzero(flag(block))
            yield from zip((at + lo + 1).tolist(), zip(*block[at].T.tolist()))

    entries: list[LawEntry] = []
    for law, rows, check in laws:
        stacked = law in tests
        for position, row in candidates(rows, flags.get(law)):
            msg = check(*row)
            if msg is not None:
                entries.append(LawEntry(law, False, position, msg))
                break
            if stacked:
                raise ValueError(
                    f"{inst.name}: the stacked operations fail a {law} case"
                    " that ovee, eq and orth pass"
                )
        else:
            entries.append(LawEntry(law, True, len(rows), None))

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
