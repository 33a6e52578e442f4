"""Trace pairings between operators and linear functionals, both directions.

Every operator A induces a functional on its dual family: bounded operators
pair through tr(A B^dagger) (conjugate-linear in B), the self-adjoint /
positive families pair through tr(A B), effects pair against densities and
densities against effects, both landing in [0, 1].  The reverse direction
reconstructs the operator from black-box evaluations only, never inspecting
the functional structurally.

Reconstruction (dim^2 evaluations):

  bounded        A[j, k] = f(|j><k|)
  the rest       a pure state P = psi psi^dagger is self-adjoint, positive,
                 an effect and a density at once, and f(P) = psi^dagger A psi;
                 on e_j, (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2 these read
                 off A_jj, Re A_jk and Im A_jk, with no eigendecomposition

The pairing is a linear isomorphism, so those values fix the only operator
that can induce f.  The contract check is therefore a comparison: f is also
evaluated on 16 seeded points of its probing domain, and each value must
match the reconstruction's pairing there.  An operator that agrees with f at
the probes satisfies every linear, affine or additive relation among them, so
no separate linearity test is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, DimensionMismatch, as_matrix, dagger, outer_unit, trace
from .operators import OperatorKind, classify


class DualityError(Exception):
    """Base class for duality-layer failures."""


class KindMismatch(DualityError):
    """Operator or functional does not belong to the stated kind."""


class ContractViolation(DualityError):
    """A black-box functional broke its kind's value range or disagreed with
    the trace pairing of its own reconstruction at a spot probe."""


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


def _spot_check(f: Functional, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f once on each of 16 seeded points of its probing domain.

    The points are closed forms of one complex Gaussian stack G: G itself
    (bounded), (G + G^dagger)/2 (self-adjoint), G G^dagger (positive),
    G G^dagger / tr (densities, for the effect kind) and those densities
    times uniform factors in [0, 1) (effects, for the density kind).  Checks
    the values alone: real for self-adjoint, at least -tol tr(B) for
    positive, in [0, 1] for effect and density, and f(I) = 1 for density (one
    more evaluation).  Returns the read-only probe stack and the values, which
    hs_inverse compares with the reconstruction's pairing.
    """
    kind = f.kind

    def fail(msg: str, residual: float) -> None:
        raise ContractViolation(f"{kind.value} functional failed {msg} (residual {residual:.3e})")

    rng = np.random.default_rng(0x5D0A11CE)
    shape = (16, f.dim, f.dim)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Gdag = G.conj().transpose(0, 2, 1)
    if kind == OperatorKind.BOUNDED:
        probes = G
    elif kind == OperatorKind.SELF_ADJOINT:
        probes = (G + Gdag) / 2.0
    else:
        probes = G @ Gdag
        if kind in (OperatorKind.EFFECT, OperatorKind.DENSITY):
            probes = probes / np.einsum("bii->b", probes).real[:, None, None]
        if kind == OperatorKind.DENSITY:
            # Varied traces: on trace-one effects alone the affine
            # 0.5 + 0.5 tr(rho E) agrees with the operator (I + rho) / 2.
            probes = probes * rng.uniform(size=(16, 1, 1))
    probes.setflags(write=False)
    values = np.array([f(B) for B in probes], dtype=np.complex128)
    traces = np.einsum("bii->b", probes).real
    for fB, trB in zip(values, traces):
        scale = max(1.0, abs(fB))
        if kind == OperatorKind.SELF_ADJOINT and abs(fB.imag) > tol * scale:
            fail("real-valuedness", abs(fB.imag))
        elif kind == OperatorKind.POSITIVE and fB.real < -tol * max(scale, trB):
            # classify admits eigenvalues down to -tol, and tr(A B) >= -tol tr(B)
            # is all that promises on a positive probe B.
            fail("nonnegativity", -fB.real)
        elif kind in (OperatorKind.EFFECT, OperatorKind.DENSITY) and (
            fB.real < -tol or fB.real > 1.0 + tol or abs(fB.imag) > tol
        ):
            fail("valuation in [0, 1]", max(-fB.real, fB.real - 1.0, abs(fB.imag)))

    if kind == OperatorKind.DENSITY:
        v = f(np.eye(f.dim, dtype=np.complex128))
        if abs(v - 1.0) > tol * 10.0:
            fail("normalisation f(I) = 1", abs(v - 1.0))
    return probes, values


def hs_inverse(kind: OperatorKind, f: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reconstruct the operator inducing the functional f within ``kind``.

    The functional is treated as a black box.  It is evaluated on 16 seeded
    spot probes of its domain (plus I for the density kind), whose values
    must lie in the kind's range, and on dim^2 fixed operators: matrix units
    for the bounded kind, pure states for the others.  Those dim^2 values
    determine the candidate A.  If some spot value f(B) differs from A's
    pairing with B (tr(A B^dagger) for bounded, tr(A B) otherwise) by more
    than tol * max(1, |f(B)|), no operator induces f and ContractViolation
    names the worst residual.  If A does not classify as ``kind``, NotInKind is
    raised -- that signals f was not induced by any operator of this kind.
    In all, 16 + dim^2 evaluations (17 + dim^2 for density).
    """
    if kind not in DUAL_KINDS:
        raise KindMismatch(f"kind {kind} has no trace pairing")
    if f.kind != kind:
        raise KindMismatch(f"functional is tagged {f.kind.value}, not {kind.value}")
    if f.dim < 1:
        raise KindMismatch("functional must carry a positive dimension")
    probes, values = _spot_check(f, tol)

    if kind == OperatorKind.BOUNDED:
        A = _invert_bounded(f, f.dim)
        paired = np.einsum("jk,bjk->b", A, probes.conj())
    else:
        A = _invert_hermitian(f, f.dim)
        paired = np.einsum("jk,bkj->b", A, probes)
    residual = np.abs(values - paired)
    if not np.all(residual <= tol * np.maximum(1.0, np.abs(values))):
        raise ContractViolation(
            f"{kind.value} functional disagrees with its reconstruction's trace pairing"
            f" on a spot probe (residual {residual.max():.3e})"
        )
    if kind != OperatorKind.BOUNDED and not classify(A, tol).has(kind):
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
