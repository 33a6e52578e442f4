"""Trace pairings between operators and linear functionals, both directions.

Every operator A induces a functional on its dual family: bounded operators
pair through tr(A B^dagger) (conjugate-linear in B), the self-adjoint /
positive families pair through tr(A B), effects pair against densities and
densities against effects, both landing in [0, 1].  The reverse direction
reconstructs the operator from black-box evaluations only, never inspecting
the functional structurally.

Reconstruction (dim^2 evaluations after the spot check):

  bounded        A[j, k] = f(|j><k|)
  the rest       a pure state P = psi psi^dagger is self-adjoint, positive,
                 an effect and a density at once, and f(P) = psi^dagger A psi;
                 on e_j, (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 these read
                 off A_jj, Re A_jk and Im A_jk, with no eigendecomposition
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, DimensionMismatch, as_matrix, dagger, outer_unit, trace
from .operators import OperatorKind, classify, sample


class DualityError(Exception):
    """Base class for duality-layer failures."""


class KindMismatch(DualityError):
    """Operator or functional does not belong to the stated kind."""


class ContractViolation(DualityError):
    """A black-box functional failed its linearity/affinity spot-check."""


class NotInKind(DualityError):
    """The reconstructed operator fails classification for the target kind."""


#: Kinds that take part in the duality (projections do not get their own
#: pairing; they embed into effects).
DUAL_KINDS = (
    OperatorKind.BOUNDED,
    OperatorKind.SELF_ADJOINT,
    OperatorKind.POSITIVE,
    OperatorKind.EFFECT,
    OperatorKind.DENSITY,
)


@dataclass(frozen=True)
class Functional:
    """A black-box scalar functional on one operator family.

    ``kind`` names the family of the operator that induced (or should be
    recovered from) the functional; the probing domain is the dual family
    (densities for kind=effect, effects for kind=density, the family itself
    otherwise).  ``eval`` must be pure.
    """

    kind: OperatorKind
    dim: int
    eval: Callable[[np.ndarray], complex]
    note: str = field(default="", compare=False)

    def __call__(self, B: np.ndarray) -> complex:
        return complex(self.eval(B))


def hs_forward(kind: OperatorKind, A: np.ndarray, tol: float = DEFAULT_TOL) -> Functional:
    """The trace-pairing functional induced by A within its kind.

    Raises KindMismatch when A does not classify as ``kind`` at tolerance
    ``tol``.  For the bounded kind the pairing is B |-> tr(A B^dagger); for
    every other kind it is B |-> tr(A B).
    """
    if kind not in DUAL_KINDS:
        raise KindMismatch(f"kind {kind} has no trace pairing")
    A = as_matrix(A)
    if not classify(A, tol).has(kind):
        raise KindMismatch(f"operator does not classify as {kind.value} at tol={tol}")
    Astar = A.copy()
    n = A.shape[0]

    if kind == OperatorKind.BOUNDED:
        def evaluate(B: np.ndarray) -> complex:
            B = as_matrix(B)
            if B.shape[0] != n:
                raise DimensionMismatch(f"probe dim {B.shape[0]} != functional dim {n}")
            return trace(Astar @ dagger(B))
    else:
        def evaluate(B: np.ndarray) -> complex:
            B = as_matrix(B)
            if B.shape[0] != n:
                raise DimensionMismatch(f"probe dim {B.shape[0]} != functional dim {n}")
            return trace(Astar @ B)

    return Functional(kind, n, evaluate, note=f"trace pairing against a {kind.value} operator")


# --- reconstruction ---------------------------------------------------------


def _invert_bounded(f: Callable[[np.ndarray], complex], dim: int) -> np.ndarray:
    A = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        for k in range(dim):
            A[j, k] = complex(f(outer_unit(j, k, dim)))
    return A


def _invert_hermitian(f: Callable[[np.ndarray], complex], dim: int) -> np.ndarray:
    # f(psi psi^dagger) is A_jj on e_j, and (A_jj + A_kk)/2 + Re A_jk and
    # (A_jj + A_kk)/2 - Im A_jk on (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2.
    # The probes hold exact halves, not (1/sqrt2)**2.  Re psi^dagger C psi =
    # psi^dagger ((C + C^dagger)/2) psi, so real parts symmetrize any inducer.
    A = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        A[j, j] = complex(f(outer_unit(j, j, dim))).real
    for j in range(dim):
        for k in range(j + 1, dim):
            mean = (A[j, j].real + A[k, k].real) / 2.0
            base = (outer_unit(j, j, dim) + outer_unit(k, k, dim)) / 2.0
            jk, kj = outer_unit(j, k, dim), outer_unit(k, j, dim)
            re = complex(f(base + (jk + kj) / 2.0)).real - mean
            im = mean - complex(f(base + (kj - jk) * 0.5j)).real
            A[j, k] = complex(re, im)
            A[k, j] = complex(re, -im)
    return A


_SPOT_DOMAIN = {
    OperatorKind.BOUNDED: OperatorKind.BOUNDED,
    OperatorKind.SELF_ADJOINT: OperatorKind.SELF_ADJOINT,
    OperatorKind.POSITIVE: OperatorKind.POSITIVE,
    OperatorKind.EFFECT: OperatorKind.DENSITY,
    OperatorKind.DENSITY: OperatorKind.EFFECT,
}


def _frozen(A: np.ndarray) -> np.ndarray:
    A = np.ascontiguousarray(A, dtype=np.complex128)
    A.setflags(write=False)
    return A


@lru_cache(maxsize=256)
def _spot_probes(kind: OperatorKind, dim: int):
    """Deterministic probe set for the linearity spot-check.

    The probes (and their combinations) are fixed per kind and dimension, so
    they are built once; only the black-box evaluations vary per functional.
    """
    rng = np.random.default_rng(0x5D0A11CE)
    domain = _SPOT_DOMAIN[kind]
    probes = []
    for _ in range(16):
        s1 = int(rng.integers(0, 2**62))
        s2 = int(rng.integers(0, 2**62))
        B = sample(domain, dim, s1)
        C = sample(domain, dim, s2)
        if kind == OperatorKind.BOUNDED:
            z = complex(rng.standard_normal(), rng.standard_normal())
            combo = z * B + C
        elif kind == OperatorKind.SELF_ADJOINT:
            z = float(rng.standard_normal())
            combo = z * B + C
        elif kind == OperatorKind.POSITIVE:
            z = abs(float(rng.standard_normal()))
            combo = z * B + C
        elif kind == OperatorKind.EFFECT:
            z = float(rng.uniform())
            combo = z * B + (1.0 - z) * C
        else:  # DENSITY: probe the scalar action and binary additivity
            z = float(rng.uniform())
            combo = (z * B, B / 2.0 + C / 2.0)
        if isinstance(combo, tuple):
            combo = tuple(_frozen(M) for M in combo)
        else:
            combo = _frozen(combo)
        probes.append((_frozen(B), _frozen(C), z, combo))
    return tuple(probes)


def _spot_check(f: Functional, tol: float) -> None:
    """Probe the functional's linearity contract on 16 fixed random instances.

    The contract depends on the kind: conjugate-linearity for bounded,
    real-linearity (with real values) for self-adjoint, nonnegative-linearity
    for positive, convex affinity into [0, 1] for effect, and [0, 1]-module
    behaviour (with f(I) = 1) for density.
    """
    kind = f.kind

    def fail(msg: str, residual: float) -> None:
        raise ContractViolation(f"{kind.value} functional failed {msg} (residual {residual:.3e})")

    for B, C, z, combo in _spot_probes(kind, f.dim):
        fB = f(B)
        if kind == OperatorKind.BOUNDED:
            lhs = f(combo)
            rhs = complex(z).conjugate() * fB + f(C)
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > tol * scale:
                fail("conjugate-linearity", abs(lhs - rhs))
        elif kind == OperatorKind.SELF_ADJOINT:
            lhs = f(combo)
            rhs = z * fB + f(C)
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > tol * scale:
                fail("real-linearity", abs(lhs - rhs))
            if abs(fB.imag) > tol * scale:
                fail("real-valuedness", abs(fB.imag))
        elif kind == OperatorKind.POSITIVE:
            lhs = f(combo)
            rhs = z * fB + f(C)
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > tol * scale:
                fail("nonnegative-linearity", abs(lhs - rhs))
            if fB.real < -tol * scale:
                fail("nonnegativity", -fB.real)
        elif kind == OperatorKind.EFFECT:
            lhs = f(combo)
            rhs = z * fB + (1.0 - z) * f(C)
            if abs(lhs - rhs) > tol * max(1.0, abs(lhs)):
                fail("affinity on densities", abs(lhs - rhs))
            if fB.real < -tol or fB.real > 1.0 + tol or abs(fB.imag) > tol:
                fail("valuation in [0, 1]", max(-fB.real, fB.real - 1.0, abs(fB.imag)))
        else:  # DENSITY
            scaled, half_sum = combo
            lhs = f(scaled)
            rhs = z * fB
            if abs(lhs - rhs) > tol * max(1.0, abs(lhs)):
                fail("scalar action", abs(lhs - rhs))
            lhs2 = f(half_sum)
            rhs2 = f(B / 2.0) + f(C / 2.0)
            if abs(lhs2 - rhs2) > tol * max(1.0, abs(lhs2)):
                fail("additivity on summable effects", abs(lhs2 - rhs2))
            if fB.real < -tol or fB.real > 1.0 + tol or abs(fB.imag) > tol:
                fail("valuation in [0, 1]", max(-fB.real, fB.real - 1.0, abs(fB.imag)))

    if kind == OperatorKind.DENSITY:
        v = f(np.eye(f.dim, dtype=np.complex128))
        if abs(v - 1.0) > tol * 10.0:
            fail("normalisation f(I) = 1", abs(v - 1.0))


def hs_inverse(kind: OperatorKind, f: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reconstruct the operator inducing the functional f within ``kind``.

    The functional is treated as a black box: it is spot-checked for its
    kind's linearity contract (ContractViolation on failure), then probed on
    dim^2 fixed operators: matrix units for the bounded kind, pure states for
    the others.  If the reconstructed operator does not classify as ``kind``,
    NotInKind is raised -- that signals f was not induced by any operator of
    this kind.
    """
    if kind not in DUAL_KINDS:
        raise KindMismatch(f"kind {kind} has no trace pairing")
    if f.kind != kind:
        raise KindMismatch(f"functional is tagged {f.kind.value}, not {kind.value}")
    if f.dim < 1:
        raise KindMismatch("functional must carry a positive dimension")
    _spot_check(f, tol)

    dim = f.dim
    if kind == OperatorKind.BOUNDED:
        return _invert_bounded(f, dim)

    A = _invert_hermitian(f, dim)
    if not classify(A, tol).has(kind):
        raise NotInKind(
            f"reconstructed operator does not classify as {kind.value} at tol={tol}"
        )
    return A


def naturality_check(C: np.ndarray, A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Residual of the pairing's naturality square for conjugation by C.

    Pairing tr(. (.)^dagger): moving C across the pairing must not change the
    value, i.e. tr(C^dagger A C B^dagger) = tr(A (C B C^dagger)^dagger).
    Returns the absolute difference; the caller compares against a tolerance.
    """
    C = as_matrix(C)
    A = as_matrix(A)
    B = as_matrix(B)
    if not (C.shape == A.shape == B.shape):
        raise DimensionMismatch("naturality_check requires equal dimensions")
    lhs = trace(dagger(C) @ A @ C @ dagger(B))
    rhs = trace(A @ dagger(C @ B @ dagger(C)))
    return abs(lhs - rhs)


__all__ = [
    "DualityError",
    "KindMismatch",
    "ContractViolation",
    "NotInKind",
    "DUAL_KINDS",
    "Functional",
    "hs_forward",
    "hs_inverse",
    "naturality_check",
]
