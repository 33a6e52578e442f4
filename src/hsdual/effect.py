"""Partial commutative monoids, effect algebras, and their law checker.

An effect algebra is a set with a partial commutative associative sum, a
zero, and for every x a unique orthosupplement x' with x + x' = 1; the only
element summable with 1 is 0.  Some instances additionally carry a [0, 1]
scalar action (effect modules).  Instances are packaged as plain records of
closures over their carrier, with partiality encoded as an optional return:
``ovee`` yields None exactly when the sum is undefined.

Four stock instances are provided -- the rational unit interval, finite
powersets under disjoint union, the effect operators of a finite-dimensional
Hilbert space under the Loewner order, and its projections with an
orthogonality side condition -- together with ``law_suite``, which hunts for
counterexamples to every axiom on an enumerated or sampled carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

import numpy as np

from .linalg import DEFAULT_TOL, approx_eq, identity, max_norm, zeros
from .operators import OperatorKind, loewner_leq, sample, sample_unitary


@dataclass(frozen=True)
class EffectInstance:
    """One effect algebra, as data.

    ``ovee(x, y)`` returns the partial sum or None when undefined;
    ``orth`` is the orthosupplement; ``eq`` is carrier equality (exact or
    tolerance-based); ``scalar_mul`` is the optional [0, 1]-action taking an
    exact Fraction scalar; ``sampler`` draws a seed-deterministic element;
    ``universe`` enumerates the carrier when that is feasible.

    ``ovee``, ``orth`` and ``eq`` must be pure: the same arguments always
    give the same result, with no side effects.  ``law_suite`` relies on
    this when it computes each pair sum once and reuses it across laws.
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


# --- stock instances --------------------------------------------------------


def make_unit_interval(max_denominator: int = 8) -> EffectInstance:
    """Exact rationals in [0, 1]; the sum is defined when it stays <= 1.

    The carrier is every p/q with 1 <= q <= max_denominator, so
    ``max_denominator`` must be at least 1 (ValueError otherwise).
    """
    if max_denominator < 1:
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
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, max_denominator + 1))
        p = int(rng.integers(0, q + 1))
        return Fraction(p, q)

    return EffectInstance(
        name="unit-interval",
        zero=Fraction(0),
        one=Fraction(1),
        ovee=ovee,
        orth=lambda x: 1 - x,
        eq=lambda x, y: x == y,
        scalar_mul=lambda r, x: r * x,
        sampler=sampler,
        universe=universe,
        describe=str,
    )


def make_powerset(size: int) -> EffectInstance:
    """Subsets of {0, .., size-1}; disjoint sets sum by union."""
    if not (1 <= size <= 16):
        raise ValueError("powerset instances support sizes 1..16")
    ground = frozenset(range(size))

    def ovee(x: frozenset, y: frozenset) -> Optional[frozenset]:
        return x | y if not (x & y) else None

    def sampler(seed: int) -> frozenset:
        rng = np.random.default_rng(seed)
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
    )


def make_effects(dim: int, tol: float = DEFAULT_TOL) -> EffectInstance:
    """Effect operators on a dim-dimensional space: 0 <= A <= I.

    The sum A + B is defined when it stays below the identity in the Loewner
    order; the orthosupplement is I - A; scalars act by plain multiplication.
    """
    one = identity(dim)

    def ovee(A: np.ndarray, B: np.ndarray) -> Optional[np.ndarray]:
        S = A + B
        return S if loewner_leq(S, one, tol) else None

    def sampler(seed: int) -> np.ndarray:
        # scale sampled effects down by a random factor so that summable
        # pairs occur with useful frequency
        rng = np.random.default_rng(seed)
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
        describe=lambda A: np.array2string(np.asarray(A), precision=4, suppress_small=True),
    )


def make_projections(dim: int, tol: float = DEFAULT_TOL) -> EffectInstance:
    """Orthogonal projections; P + Q is defined when the ranges are orthogonal.

    Orthogonality is the operational test max|P Q| <= tol.  There is no
    scalar action: a scaled projection is no longer a projection.
    """
    one = identity(dim)
    # Half the samples project onto subsets of a fixed orthonormal basis, so
    # that orthogonal (summable) pairs occur with useful frequency; the rest
    # come from fresh random bases.
    shared_basis = sample_unitary(dim, seed=0xB415 + dim)

    def ovee(P: np.ndarray, Q: np.ndarray) -> Optional[np.ndarray]:
        return P + Q if max_norm(P @ Q) <= tol else None

    def sampler(seed: int) -> np.ndarray:
        if seed % 2 == 0:
            rng = np.random.default_rng(seed)
            mask = rng.integers(0, 2, size=dim) == 1
            cols = shared_basis[:, mask]
            if cols.shape[1] == 0:
                return zeros(dim)
            P = cols @ cols.conj().T
            return (P + P.conj().T) / 2.0
        return sample(OperatorKind.PROJECTION, dim, seed)

    return EffectInstance(
        name=f"projections-{dim}",
        zero=zeros(dim),
        one=one,
        ovee=ovee,
        orth=lambda P: one - P,
        eq=lambda P, Q: approx_eq(P, Q, tol),
        sampler=sampler,
        describe=lambda P: np.array2string(np.asarray(P), precision=4, suppress_small=True),
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

#: marks a pair sum not yet computed (None means "undefined")
_MISSING = object()


def checks_exhaustively(inst: EffectInstance) -> bool:
    """Whether ``law_suite`` checks every element of ``inst``'s carrier.

    True when the instance enumerates a universe of at most 40 elements; its
    ``samples`` argument is then not used.
    """
    return inst.universe is not None and len(inst.universe) <= _EXHAUSTIVE_CAP


def _element_pool(inst: EffectInstance, samples: int, seed: int) -> tuple[list, bool]:
    if checks_exhaustively(inst):
        return list(inst.universe), True
    if samples < 1:
        raise ValueError(f"a sampled law check needs samples >= 1, got {samples}")
    if inst.sampler is None:
        if inst.universe is not None:
            return list(inst.universe)[:samples], False
        raise ValueError(f"instance {inst.name} has neither sampler nor universe")
    pool = [inst.sampler(seed + i) for i in range(samples)]
    pool.append(inst.zero)
    pool.append(inst.one)
    return pool, False


def _scalar_pool(rng: np.random.Generator, count: int) -> list[Fraction]:
    grid = [Fraction(k, 8) for k in range(9)]
    return [grid[int(rng.integers(0, len(grid)))] for _ in range(count)]


def law_suite(
    inst: EffectInstance,
    samples: int = 500,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> LawReport:
    """Check every effect-algebra (and module, when present) axiom.

    Small enumerable carriers are checked exhaustively over all pairs and
    triples; otherwise ``samples`` elements are drawn from the instance
    sampler (ValueError unless samples >= 1).  Each law reports how many
    instances were checked and the first counterexample found, if any.
    Carrier equality is the instance's own ``eq``; ``tol`` is recorded in
    the report for downstream thresholds.

    Cost: each ordered pair of pool elements is summed at most once per run
    and shared by every law that needs it, so an exhaustive pool of n
    elements costs n² pair sums.  Likewise x (+) orth(x) is computed once
    per pool element and shared by both orthosupplement laws.  These sums
    live for one call; nothing is cached across calls.  Associativity holds
    vacuously where y (+) z is undefined, so it visits only the triples
    (x, y, z) with y (+) z defined; ``checked`` still counts all of them
    (n³, or the number of sampled triples), or gives the 1-based x-major
    position of the first failing triple.
    """
    pool, exhaustive = _element_pool(inst, samples, seed)
    rng = np.random.default_rng(seed)
    n = len(pool)

    # pairs and triples hold pool indices
    if exhaustive:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        def pick():
            return int(rng.integers(0, n))

        pairs = [(pick(), pick()) for _ in range(samples)]
        triples = [(pick(), pick(), pick()) for _ in range(samples)]

    sums: dict = {}

    def pair_sum(i: int, j: int):
        """pool[i] (+) pool[j], computed once per run."""
        s = sums.get((i, j), _MISSING)
        if s is _MISSING:
            s = sums[i, j] = inst.ovee(pool[i], pool[j])
        return s

    entries: list[LawEntry] = []

    def record(law: str, total: int, cases: Iterable, check: Callable) -> None:
        # cases yields (1-based position, args); the first failure ends the law
        for position, case in cases:
            msg = check(*case)
            if msg is not None:
                entries.append(LawEntry(law, False, position, msg))
                return
        entries.append(LawEntry(law, True, total, None))

    def run(law: str, instances: list, check: Callable) -> None:
        record(law, len(instances), enumerate(instances, 1), check)

    d = inst.describe

    def chk_zero(x):
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

    def chk_orth_exists(x, xo, s):
        if s is None:
            return f"x (+) orth(x) undefined for x = {d(x)}"
        if not inst.eq(s, inst.one):
            return f"x (+) orth(x) != 1 for x = {d(x)}"
        return None

    def chk_orth_unique(x, y, s):
        if s is None or not inst.eq(s, inst.one):
            return None
        if not inst.eq(y, inst.orth(x)):
            return f"x (+) y = 1 but y != orth(x) for x = {d(x)}, y = {d(y)}"
        return None

    def chk_one_maximal(x):
        s = inst.ovee(x, inst.one)
        if s is not None and not inst.eq(x, inst.zero):
            return f"x (+) 1 defined for x != 0: x = {d(x)}"
        return None

    if exhaustive:
        # x-major over the (y, z) pairs with y (+) z defined; triple
        # (i, j, k) sits at position i n² + j n + k + 1
        defined = [(j, k) for j, k in pairs if pair_sum(j, k) is not None]
        assoc_total = n**3
        assoc_cases = (
            (i * n * n + j * n + k + 1, (i, j, k)) for i in range(n) for j, k in defined
        )
    else:
        assoc_total = len(triples)
        assoc_cases = enumerate(triples, 1)

    run("zero-unit", [(x,) for x in pool], chk_zero)
    run("commutativity", pairs, chk_comm)
    record("associativity", assoc_total, assoc_cases, chk_assoc)
    # x (+) orth(x), once per pool element: the existence law reads it, and
    # the uniqueness law runs on these complement pairs too, so that it is
    # exercised even when random pairs rarely sum to 1
    complements = []
    for x in pool:
        xo = inst.orth(x)
        complements.append((x, xo, inst.ovee(x, xo)))
    run("orthosupplement-exists", complements, chk_orth_exists)
    unique_cases = [(pool[i], pool[j], pair_sum(i, j)) for i, j in pairs]
    run("orthosupplement-unique", unique_cases + complements, chk_orth_unique)
    run("one-maximal", [(x,) for x in pool], chk_one_maximal)

    if inst.scalar_mul is not None:
        smul = inst.scalar_mul
        scalars = _scalar_pool(rng, max(len(pairs), 1))

        def chk_scalar_one(x):
            if not inst.eq(smul(Fraction(1), x), x):
                return f"1 . x != x for x = {d(x)}"
            return None

        def chk_scalar_assoc(i, x):
            r, s = scalars[i % len(scalars)], scalars[(i * 7 + 3) % len(scalars)]
            if not inst.eq(smul(r * s, x), smul(r, smul(s, x))):
                return f"(r s) . x != r . (s . x) for r = {r}, s = {s}, x = {d(x)}"
            return None

        def chk_scalar_distrib_elem(i, a, b):
            r = scalars[i % len(scalars)]
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

        def chk_scalar_distrib_scalar(i, x):
            r, s = scalars[i % len(scalars)], scalars[(i * 5 + 1) % len(scalars)]
            if r + s > 1:
                return None
            lhs = inst.ovee(smul(r, x), smul(s, x))
            if lhs is None:
                return f"r.x (+) s.x undefined although r + s <= 1: r = {r}, s = {s}, x = {d(x)}"
            if not inst.eq(lhs, smul(r + s, x)):
                return f"(r + s).x != r.x (+) s.x for r = {r}, s = {s}, x = {d(x)}"
            return None

        run("scalar-unit", [(x,) for x in pool], chk_scalar_one)
        run("scalar-associativity", [(i, x) for i, x in enumerate(pool)], chk_scalar_assoc)
        run(
            "scalar-distributes-over-sum",
            [(i, a, b) for i, (a, b) in enumerate(pairs)],
            chk_scalar_distrib_elem,
        )
        run(
            "scalar-sum-distributes",
            [(i, x) for i, x in enumerate(pool)],
            chk_scalar_distrib_scalar,
        )

    return LawReport(inst.name, seed, tol, tuple(entries))


__all__ = [
    "EffectInstance",
    "LawEntry",
    "LawReport",
    "make_unit_interval",
    "make_powerset",
    "make_effects",
    "make_projections",
    "law_suite",
    "checks_exhaustively",
]
