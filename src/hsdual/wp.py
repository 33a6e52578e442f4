"""State transformers on densities and their predicate transformers.

A channel maps density operators to density operators affinely.  Three
shapes are supported: conjugation by a unitary, a convex mixture of
channels, and a raw superoperator matrix acting on row-major vectorized
densities.  Complete positivity is deliberately not required -- validity is
trace preservation plus positivity, spot-checked on sampled densities for
the raw form.

The weakest precondition wp(f, A) of an effect A under a channel f is the
unique effect W with tr(f(rho) A) = tr(rho W) for every density rho.  It is
computed by handing the pre-expectation functional rho |-> tr(f(rho) A) to
the generic duality inversion -- no structure of f is consulted.  For a
unitary channel the closed form U^dagger A U exists and is used in the test
suite as an oracle, never here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .algebra import FormalSum, Semiring, formal_sum
from .duality import Functional, NotInKind, hs_inverse
from .linalg import DEFAULT_TOL, as_matrix, identity, max_norm, trace
from .operators import OperatorKind, classify, sample


class ChannelError(Exception):
    pass


class InvalidChannel(ChannelError):
    """The channel data fails its validity contract."""


class NotDensity(ChannelError):
    """A channel was applied to something that is not a density operator."""


class NotEffect(ChannelError):
    """The predicate (or the reconstructed precondition) is not an effect."""


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Mixture:
    weights: FormalSum
    parts: tuple

    @property
    def dim_in(self) -> int:
        return self.parts[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.parts[0].dim_out


@dataclass(frozen=True)
class Super:
    """Row-major vectorized action: (dim_out^2 x dim_in^2) complex matrix."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray


Channel = Union[Unitary, Mixture, Super]


def unitary_channel(U: np.ndarray, tol: float = DEFAULT_TOL) -> Unitary:
    """Conjugation rho |-> U rho U^dagger; U must be unitary within tol."""
    U = as_matrix(U)
    n = U.shape[0]
    if max_norm(U.conj().T @ U - identity(n)) > tol:
        raise InvalidChannel("matrix is not unitary within tolerance")
    return Unitary(U)


def _exact_weight(w) -> Fraction:
    if isinstance(w, bool):
        raise InvalidChannel(f"mixture weight {w!r} is not a number")
    return Fraction(str(w)) if isinstance(w, float) else Fraction(w)


def mixture_channel(weights, parts, tol: float = DEFAULT_TOL) -> Mixture:
    """Convex mixture of channels with exact distribution weights.

    ``weights`` is a FormalSum distribution keyed 0..k-1, or a plain list of
    values summing to exactly 1: strings parse as fractions ("1/3"), floats
    through their decimal literal (0.1 is 1/10), and booleans are refused.
    """
    parts = tuple(parts)
    if not parts:
        raise InvalidChannel("a mixture needs at least one part")
    if not isinstance(weights, FormalSum):
        weights = formal_sum(
            Semiring.UNIT_INTERVAL, [(i, _exact_weight(w)) for i, w in enumerate(weights)], distribution=True
        )
    if weights.semiring != Semiring.UNIT_INTERVAL or not weights.distribution:
        raise InvalidChannel("mixture weights must form an exact distribution")
    if any(not (0 <= int(k) < len(parts)) for k in weights.support()):
        raise InvalidChannel("mixture weights refer to a missing part")
    dims = {(p.dim_in, p.dim_out) for p in parts}
    if len(dims) != 1:
        raise InvalidChannel("mixture parts must share dimensions")
    return Mixture(weights, parts)


def super_channel(
    dim_in: int,
    dim_out: int,
    matrix: np.ndarray,
    tol: float = DEFAULT_TOL,
    samples: int = 20,
    seed: int = 0,
) -> Super:
    """A raw superoperator, validated behaviourally on sampled densities.

    For ``samples`` seeded densities rho the image must have unit trace
    within tol and no eigenvalue below -tol.  Complete positivity is not
    demanded.
    """
    M = np.asarray(matrix, dtype=np.complex128)
    if M.shape != (dim_out * dim_out, dim_in * dim_in):
        raise InvalidChannel(
            f"superoperator must be {dim_out**2} x {dim_in**2}, got {M.shape}"
        )
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise InvalidChannel("superoperator entries must be finite")
    ch = Super(dim_in, dim_out, M)
    for i in range(samples):
        rho = sample(OperatorKind.DENSITY, dim_in, seed + i)
        out = _apply_unchecked(ch, rho)
        if abs(trace(out) - 1.0) > tol:
            raise InvalidChannel(
                f"trace not preserved on sampled density #{i}: tr = {trace(out):.12g}"
            )
        report = classify(out, tol)
        if not report.has(OperatorKind.POSITIVE):
            raise InvalidChannel(f"positivity violated on sampled density #{i}")
    return ch


def _apply_unchecked(ch: Channel, rho: np.ndarray) -> np.ndarray:
    if isinstance(ch, Unitary):
        U = ch.matrix
        return U @ rho @ U.conj().T
    if isinstance(ch, Mixture):
        out = np.zeros((ch.dim_out, ch.dim_out), dtype=np.complex128)
        for idx, w in ch.weights:
            out = out + float(w) * _apply_unchecked(ch.parts[int(idx)], rho)
        return out
    if isinstance(ch, Super):
        vec = rho.reshape(ch.dim_in * ch.dim_in)
        return (ch.matrix @ vec).reshape(ch.dim_out, ch.dim_out)
    raise ChannelError(f"not a channel: {ch!r}")


def apply_channel(ch: Channel, rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the channel to a density operator (NotDensity otherwise)."""
    rho = as_matrix(rho)
    if rho.shape[0] != ch.dim_in:
        raise NotDensity(f"density dim {rho.shape[0]} != channel input dim {ch.dim_in}")
    if not classify(rho, tol).has(OperatorKind.DENSITY):
        raise NotDensity("channel input does not classify as a density operator")
    return _apply_unchecked(ch, rho)


def to_super(ch: Channel) -> np.ndarray:
    """The channel's matrix on row-major vectorized operators.

    For conjugation by U this is kron(U, conj(U)), because row-major
    vectorization turns A B C into (A kron C^T) vec(B).
    """
    if isinstance(ch, Unitary):
        return np.kron(ch.matrix, ch.matrix.conj())
    if isinstance(ch, Mixture):
        out = np.zeros((ch.dim_out**2, ch.dim_in**2), dtype=np.complex128)
        for idx, w in ch.weights:
            out = out + float(w) * to_super(ch.parts[int(idx)])
        return out
    if isinstance(ch, Super):
        return ch.matrix.copy()
    raise ChannelError(f"not a channel: {ch!r}")


def compose(g: Channel, f: Channel) -> Super:
    """The channel doing f first, then g (as a raw superoperator)."""
    if f.dim_out != g.dim_in:
        raise InvalidChannel(
            f"cannot compose: inner output dim {f.dim_out} != outer input dim {g.dim_in}"
        )
    return Super(f.dim_in, g.dim_out, to_super(g) @ to_super(f))


def wp(ch: Channel, A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Weakest precondition: the effect W with tr(f(rho) A) = tr(rho W).

    A must be an effect on the channel's output space (NotEffect otherwise).
    The pre-expectation functional is inverted through the generic duality
    machinery; if the result fails to be an effect -- possible only for
    channels that are not actually positive -- NotEffect is raised rather
    than clamping.
    """
    A = as_matrix(A)
    if A.shape[0] != ch.dim_out:
        raise NotEffect(f"effect dim {A.shape[0]} != channel output dim {ch.dim_out}")
    if not classify(A, tol).has(OperatorKind.EFFECT):
        raise NotEffect("the predicate does not classify as an effect")

    Afixed = A.copy()

    def pre_expectation(rho: np.ndarray) -> complex:
        return trace(_apply_unchecked(ch, rho) @ Afixed)

    h = Functional(
        OperatorKind.EFFECT,
        ch.dim_in,
        pre_expectation,
        note="pre-expectation of an effect under a channel",
    )
    try:
        return hs_inverse(OperatorKind.EFFECT, h, tol)
    except NotInKind as exc:
        raise NotEffect(f"reconstructed precondition left [0, I]: {exc}") from exc


__all__ = [
    "Channel",
    "Unitary",
    "Mixture",
    "Super",
    "ChannelError",
    "InvalidChannel",
    "NotDensity",
    "NotEffect",
    "unitary_channel",
    "mixture_channel",
    "super_channel",
    "apply_channel",
    "to_super",
    "compose",
    "wp",
]
