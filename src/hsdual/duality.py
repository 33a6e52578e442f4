"""Trace pairings between operators and linear functionals, both directions.

Every operator A induces a functional on its dual family: bounded operators
pair through tr(A B^dagger) (conjugate-linear in B), the self-adjoint /
positive families pair through tr(A B), effects pair against densities and
densities against effects, both landing in [0, 1].  ``_pair`` is the one
place that computes it.  The reverse direction reconstructs the operator
from black-box evaluations only, never inspecting the functional
structurally.

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

Each probe set -- the spot probes, then the reconstruction probes -- reaches
f as one (b, dim, dim) stack.  A Functional with a stacked evaluator (as
``hs_forward`` returns) answers a stack in one call; a plain callable is
called once per probe, in stack order.  Either way the inversion reads
values only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import _STACK_ENTRIES, DEFAULT_TOL, DimensionMismatch, _is_dim
from .linalg import as_matrix, dagger, hermitian_part
from .operators import OperatorKind, in_kind


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
DUAL_KINDS = tuple(k for k in OperatorKind if k != OperatorKind.PROJECTION)


@dataclass(frozen=True)
class Functional:
    """A black-box scalar functional on one operator family.

    ``kind`` names the family of the operator that induced (or should be
    recovered from) the functional; the probing domain is the dual family
    (densities for kind=effect, effects for kind=density, the family itself
    otherwise).  ``eval`` must be pure.  ``stacked``, if given, maps a
    (b, dim, dim) stack of probes to their (b,) values and must agree with
    ``eval`` on each probe; an inversion then pays one call per probe set,
    not one per probe.
    """

    kind: OperatorKind
    dim: int
    eval: Callable[[np.ndarray], complex]
    note: str = field(default="", compare=False)
    stacked: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    def __call__(self, B: np.ndarray) -> complex:
        return complex(self.eval(B))

    def on_stack(self, probes: np.ndarray) -> np.ndarray:
        """The values on a (b, dim, dim) stack: one ``stacked`` call, or else
        one ``eval`` call per probe in stack order."""
        if self.stacked is None:
            return np.array([self(B) for B in probes], dtype=np.complex128)
        values = np.asarray(self.stacked(probes), dtype=np.complex128)
        if values.shape != probes.shape[:1]:
            raise ContractViolation(
                f"stacked evaluator gave shape {values.shape} for {len(probes)} probes"
            )
        return values


def _pair(kind: OperatorKind, A: np.ndarray, B: np.ndarray):
    """tr(A B^dagger) for the bounded kind, else tr(A B); B may be a stack."""
    if kind == OperatorKind.BOUNDED:
        return np.einsum("jk,...jk->...", A, B.conj())
    return np.einsum("jk,...kj->...", A, B)


def hs_forward(kind: OperatorKind, A: np.ndarray, tol: float = DEFAULT_TOL) -> Functional:
    """The trace-pairing functional induced by A within its kind.

    Raises KindMismatch when A does not classify as ``kind`` at tolerance
    ``tol``, and ValueError unless A's entries are finite numbers.  For the
    bounded kind the pairing is B |-> tr(A B^dagger).  For every other kind
    it is B |-> tr(H B) with H = (A + A^dagger)/2, the
    Hermitian part that the classification judged: A need only be Hermitian
    within tol, and H is within tol/2 of A.  So hs_inverse of the result
    returns H, not A.  The functional also carries a stacked evaluator, and
    both paths check the probes' shape and finiteness.
    """
    if kind not in DUAL_KINDS:
        raise KindMismatch(f"kind {kind} has no trace pairing")
    A = as_matrix(A)
    if not in_kind(A, kind, tol):
        raise KindMismatch(f"operator does not classify as {kind.value} at tol={tol}")
    inducer = A.copy() if kind == OperatorKind.BOUNDED else hermitian_part(A)
    n = A.shape[0]

    def evaluate_stack(Bs: np.ndarray) -> np.ndarray:
        Bs = np.asarray(Bs, dtype=np.complex128)
        if Bs.ndim != 3 or Bs.shape[1:] != (n, n):
            raise DimensionMismatch(f"probe stack shape {Bs.shape} != (b, {n}, {n})")
        if not np.isfinite(Bs).all():
            raise ValueError("matrix entries must be finite")
        return _pair(kind, inducer, Bs)

    def evaluate(B: np.ndarray) -> complex:
        return complex(evaluate_stack(as_matrix(B)[None])[0])

    return Functional(
        kind, n, evaluate, note=f"trace pairing against a {kind.value} operator", stacked=evaluate_stack
    )


# --- reconstruction ---------------------------------------------------------


def _reconstruct(f: Functional) -> np.ndarray:
    """The only operator of f's kind that can induce f, from dim^2 values.

    Bounded: probe j*dim + k is |j><k| and reads A[j, k].  The rest: probe
    j < dim is the pure state of e_j and reads A_jj; the p-th pair j < k (in
    row-major order) adds probes dim + 2p and dim + 2p + 1, the pure states of
    (e_j + e_k)/sqrt2 and (e_j + i e_k)/sqrt2, which read
    (A_jj + A_kk)/2 + Re A_jk and (A_jj + A_kk)/2 - Im A_jk.  The probes hold
    exact halves, not (1/sqrt2)**2.  Re psi^dagger C psi =
    psi^dagger ((C + C^dagger)/2) psi, so real parts symmetrize any inducer.
    """
    n = f.dim
    j, k = np.triu_indices(n, 1)
    # The probes' nonzero entries: probe index, row, column, value.
    if f.kind == OperatorKind.BOUNDED:
        probe = np.arange(n * n)
        row, col = np.divmod(probe, n)
        value = np.ones(n * n, dtype=np.complex128)
    else:
        d = np.arange(n)
        re = n + 2 * np.arange(j.size)
        im = re + 1
        half, up, down = (np.full(j.size, z) for z in (0.5, 0.5j, complex(0.0, -0.5)))
        probe = np.concatenate([d, re, re, re, re, im, im, im, im])
        row = np.concatenate([d, j, k, j, k, j, k, k, j])
        col = np.concatenate([d, j, k, k, j, j, k, j, k])
        value = np.concatenate([np.ones(n), half, half, half, half, half, half, up, down])
    size = max(1, _STACK_ENTRIES // (n * n))
    values = []
    for lo in range(0, n * n, size):
        sel = (probe >= lo) & (probe < lo + size)
        stack = np.zeros((min(size, n * n - lo), n, n), dtype=np.complex128)
        stack[probe[sel] - lo, row[sel], col[sel]] = value[sel]
        stack.setflags(write=False)
        values.append(f.on_stack(stack))
    v = np.concatenate(values)
    if f.kind == OperatorKind.BOUNDED:
        return v.reshape(n, n)
    v = v.real
    A = np.diag(v[:n]).astype(np.complex128)
    # values near the float range may give an inf or NaN entry, which fails the spot comparison
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (v[j] + v[k]) / 2.0
        re_jk = v[n::2] - mean
        im_jk = mean - v[n + 1 :: 2]
    A.real[j, k] = re_jk
    A.imag[j, k] = im_jk
    A.real[k, j] = re_jk
    A.imag[k, j] = -im_jk
    return A


def _spot_check(f: Functional, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f on 16 seeded points of its probing domain, as one stack.

    The points are closed forms of one complex Gaussian stack G: G itself
    (bounded), (G + G^dagger)/2 (self-adjoint), G G^dagger (positive),
    G G^dagger / tr (densities, for the effect kind) and those densities
    times uniform factors in [0, 1) (effects, for the density kind).  Checks
    the values alone: real for self-adjoint, at least -tol tr(B) for
    positive, in [0, 1] for effect and density, and f(I) = 1 for density (I
    ends the stack).  Returns the read-only 16 probes and their values, which
    hs_inverse compares with the reconstruction's pairing.
    """
    kind = f.kind

    def fail(msg: str, residual: float) -> None:
        raise ContractViolation(f"{kind.value} functional failed {msg} (residual {residual:.3e})")

    rng = np.random.default_rng(0x5D0A11CE)
    shape = (16, f.dim, f.dim)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == OperatorKind.BOUNDED:
        probes = G
    elif kind == OperatorKind.SELF_ADJOINT:
        probes = hermitian_part(G)
    else:
        probes = G @ G.conj().transpose(0, 2, 1)
        if kind in (OperatorKind.EFFECT, OperatorKind.DENSITY):
            probes = probes / np.einsum("bii->b", probes).real[:, None, None]
        if kind == OperatorKind.DENSITY:
            # Varied traces: on trace-one effects alone the affine
            # 0.5 + 0.5 tr(rho E) agrees with the operator (I + rho) / 2.
            probes = probes * rng.uniform(size=(16, 1, 1))
    stack = probes
    if kind == OperatorKind.DENSITY:
        stack = np.concatenate([probes, np.eye(f.dim, dtype=np.complex128)[None]])
    probes.setflags(write=False)
    stack.setflags(write=False)
    values = f.on_stack(stack)
    spot = values[:16]
    finite = np.isfinite(spot)
    if not finite.all():
        raise ContractViolation(
            f"{kind.value} functional gave the non-finite value {spot[~finite][0]} on a spot probe"
        )
    scale = np.maximum(1.0, np.abs(spot))
    bad = None
    if kind == OperatorKind.SELF_ADJOINT:
        msg, residual = "real-valuedness", np.abs(spot.imag)
        bad = residual / scale > tol
    elif kind == OperatorKind.POSITIVE:
        # classify admits eigenvalues down to -tol, and tr(A B) >= -tol tr(B)
        # is all that promises on a positive probe B.
        msg, residual = "nonnegativity", -spot.real
        bad = residual / np.maximum(scale, np.einsum("bii->b", probes).real) > tol
    elif kind in (OperatorKind.EFFECT, OperatorKind.DENSITY):
        msg = "valuation in [0, 1]"
        residual = np.maximum(np.maximum(-spot.real, spot.real - 1.0), np.abs(spot.imag))
        bad = (spot.real < -tol) | (spot.real > 1.0 + tol) | (np.abs(spot.imag) > tol)
    if bad is not None and bad.any():
        fail(msg, residual[np.argmax(bad)])

    if kind == OperatorKind.DENSITY:
        v = complex(values[16])
        if not abs(v - 1.0) <= tol * 10.0:  # written so that a NaN fails
            fail("normalisation f(I) = 1", abs(v - 1.0))
    return probes, spot


def hs_inverse(kind: OperatorKind, f: Functional, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reconstruct the operator inducing the functional f within ``kind``.

    The functional is treated as a black box.  It is evaluated on 16 seeded
    spot probes of its domain (plus I for the density kind), whose values
    must lie in the kind's range, and on dim^2 fixed operators: matrix units
    for the bounded kind, pure states for the others.  Each of the two probe
    sets goes to f.on_stack as one stack (the dim^2 set in stacks of at most
    2^16 entries), and A is read off the value vector by index.  Those dim^2
    values determine the candidate A.  If some spot value f(B) differs from A's
    pairing with B (tr(A B^dagger) for bounded, tr(A B) otherwise) by more
    than tol * max(1, |f(B)|), no operator induces f and ContractViolation
    names the worst residual.  If A is not in ``kind`` (in_kind), NotInKind is
    raised -- that signals f was not induced by any operator of this kind;
    only the positive, effect and density kinds pay an eigensolve for it.
    In all, 16 + dim^2 evaluations (17 + dim^2 for density).  KindMismatch
    is raised first, without an evaluation, if ``kind`` has no trace
    pairing, if f is tagged with another kind, or if f.dim is not an integer
    >= 1 (a bool is not).

    A spot value beyond the float range (inf or NaN, as when an operator
    with entries near 1e308 pairs with a probe) is a ContractViolation that
    names the value; a reconstruction whose entries or pairings overflow
    fails the comparison with an inf or NaN residual.  Neither emits a
    RuntimeWarning.
    """
    if kind not in DUAL_KINDS:
        raise KindMismatch(f"kind {kind} has no trace pairing")
    if f.kind != kind:
        raise KindMismatch(f"functional is tagged {f.kind.value}, not {kind.value}")
    if not _is_dim(f.dim):
        raise KindMismatch("functional must carry a positive dimension (an int)")
    probes, values = _spot_check(f, tol)
    A = _reconstruct(f)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual fails below
        residual = np.abs(values - _pair(kind, A, probes))
    # divided, since tol * max(1, |f(B)|) overflows for tol near the largest float
    if not np.all(residual / np.maximum(1.0, np.abs(values)) <= tol):
        raise ContractViolation(
            f"{kind.value} functional disagrees with its reconstruction's trace pairing"
            f" on a spot probe (residual {residual.max():.3e})"
        )
    if not in_kind(A, kind, tol):
        raise NotInKind(
            f"reconstructed operator does not classify as {kind.value} at tol={tol}"
        )
    return A


def naturality_check(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """Residual of the pairing's naturality square for conjugation by C.

    Pairing tr(. (.)^dagger): moving C across the pairing must not change the
    value, i.e. tr(C^dagger A C B^dagger) = tr(A (C B C^dagger)^dagger).
    Returns the absolute difference; the caller compares against a tolerance.
    Where a product or trace overflows, the residual is inf or NaN, which
    fails every tolerance.
    """
    C = as_matrix(C)
    A = as_matrix(A)
    B = as_matrix(B)
    if not (C.shape == A.shape == B.shape):
        raise DimensionMismatch("naturality_check requires equal dimensions")
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _pair(OperatorKind.BOUNDED, dagger(C) @ A @ C, B)
        rhs = _pair(OperatorKind.BOUNDED, A, C @ B @ dagger(C))
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
