"""State transformers on densities and their predicate transformers.

A channel maps density operators to density operators affinely, and it is
its superoperator: a ``Super`` holds the (dim_out^2 x dim_in^2) matrix on
row-major vectorized densities as its own read-only copy, so the matrix a
constructor validated is the one every later use reads.  Only the
constructors ``unitary_channel``, ``mixture_channel`` and ``super_channel``
(and ``compose``, from two channels) make a ``Super``: they validate their
input and compute that matrix once; every action on a density
(``apply_channel``, the validation of the raw form, the pre-expectation
inside ``wp``) is a product with it.  A mixture is a ``Super`` like any
other: its exact weights are interpreted in the convex set of its parts'
superoperators, and only the resulting matrix is kept.  Complete
positivity is deliberately not required -- validity is trace preservation
plus positivity.  For the raw form, trace preservation is linear and
checked exactly; positivity is spot-checked on 20 sampled pure states, the
extreme points of the densities.  Every function that takes a channel
raises ChannelError when handed anything else.

The weakest precondition wp(f, A) of an effect A under a channel f is the
unique effect W with tr(f(rho) A) = tr(rho W) for every density rho.  It is
computed by handing the pre-expectation functional rho |-> tr(f(rho) A) to
the generic duality inversion -- no structure of f is consulted.  The
functional evaluates a stack of densities with one matmul by the channel's
superoperator.  For a unitary channel the closed form U^dagger A U exists
and is used in the test suite as an oracle, never here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraError, Semiring, convex_state_carrier, formal_sum, interpret
from .duality import DualityError, Functional, hs_inverse
from .linalg import DEFAULT_TOL, as_matrix, identity, max_norm
from .operators import OperatorKind, in_kind


class ChannelError(Exception):
    pass


class InvalidChannel(ChannelError):
    """The channel data fails its validity contract."""


class NotDensity(ChannelError):
    """A channel was applied to something that is not a density operator."""


class NotEffect(ChannelError):
    """The predicate (or the reconstructed precondition) is not an effect."""


@dataclass(frozen=True, init=False, eq=False)
class Super:
    """A channel as its row-major vectorized action.

    ``matrix`` is the (dim_out^2 x dim_in^2) complex superoperator.  The
    channel keeps its own read-only copy, so changing the array it was built
    from afterwards changes nothing.  Only the constructors make one
    (``Super(...)`` raises TypeError), so every channel has been validated.
    Channels compare and hash by identity.
    """

    dim_in: int
    dim_out: int
    matrix: np.ndarray


def _channel(cls, dim_in: int, dim_out: int, matrix) -> Super:
    """A new ``cls`` holding its own read-only complex128 copy of ``matrix``."""
    M = np.array(matrix, dtype=np.complex128)
    M.setflags(write=False)
    ch = object.__new__(cls)
    for name, value in (("dim_in", dim_in), ("dim_out", dim_out), ("matrix", M)):
        object.__setattr__(ch, name, value)
    return ch


def _require_channel(ch) -> Super:
    """``ch`` itself if it is a channel; ChannelError otherwise."""
    if not isinstance(ch, Super):
        raise ChannelError(f"not a channel: {ch!r}")
    return ch


def unitary_channel(U: np.ndarray, tol: float = DEFAULT_TOL) -> Super:
    """Conjugation rho |-> U rho U^dagger; U must be unitary within tol.

    Row-major vectorization turns A B C into (A kron C^T) vec(B), so the
    superoperator is kron(U, conj(U)).
    """
    U = as_matrix(U)
    n = U.shape[0]
    if max_norm(U.conj().T @ U - identity(n)) > tol:
        raise InvalidChannel("matrix is not unitary within tolerance")
    return _channel(Super, n, n, np.kron(U, U.conj()))


def _exact_weight(w) -> Fraction:
    try:
        if not isinstance(w, bool):
            return Fraction(str(w)) if isinstance(w, float) else Fraction(w)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise InvalidChannel(f"mixture weight {w!r} is not a number")


def mixture_channel(weights, parts) -> Super:
    """Convex mixture of channels with exact distribution weights.

    ``weights`` is a list or tuple with exactly one weight per part, and the
    weights sum to exactly 1: strings parse as fractions ("1/3"), floats
    through their decimal literal (0.1 is 1/10), and booleans are refused.
    Any other weight list raises InvalidChannel.  The weights form an exact
    distribution over the part indices, which the parts' matrices interpret
    in the convex set of superoperators: the mixture is the ``Super`` whose
    matrix is that convex combination, computed here once.
    """
    parts = tuple(_require_channel(p) for p in parts)
    if not parts:
        raise InvalidChannel("a mixture needs at least one part")
    if not isinstance(weights, (list, tuple)) or len(weights) != len(parts):
        raise InvalidChannel(f"mixture weights must be a list of one weight per part ({len(parts)})")
    try:
        dist = formal_sum(
            Semiring.UNIT_INTERVAL, [(i, _exact_weight(w)) for i, w in enumerate(weights)], distribution=True
        )
    except (AlgebraError, ValueError) as exc:  # ValueError: a sum too long to print
        raise InvalidChannel(f"mixture weights must form an exact distribution: {exc}") from exc
    dims = {(p.dim_in, p.dim_out) for p in parts}
    if len(dims) != 1:
        raise InvalidChannel("mixture parts must share dimensions")
    env = {i: parts[i].matrix for i in dist.support()}
    return _channel(Super, *dims.pop(), interpret(convex_state_carrier(env), dist))


#: Seeded pure states on which super_channel spot-checks positivity.
VALIDATION_SAMPLES = 20


def super_channel(
    dim_in: int,
    dim_out: int,
    matrix: np.ndarray,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> Super:
    """A raw superoperator, validated as a trace-preserving positive map.

    Trace preservation is linear, so it is checked exactly: the output
    diagonal rows of the matrix must sum to vec(I) within tol, entrywise.
    Positivity is spot-checked on VALIDATION_SAMPLES (20) pure states drawn
    from one generator seeded ``seed``: each image must have no eigenvalue
    below -tol.  Pure states are the extreme points of the densities, so
    they probe strictly more than mixed ones.  Complete positivity is not
    demanded.
    """
    if dim_in < 1 or dim_out < 1:
        raise InvalidChannel(f"channel dimensions must be >= 1, got {dim_in} -> {dim_out}")
    M = np.asarray(matrix, dtype=np.complex128)
    if M.shape != (dim_out * dim_out, dim_in * dim_in):
        raise InvalidChannel(
            f"superoperator must be {dim_out**2} x {dim_in**2}, got {M.shape}"
        )
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise InvalidChannel("superoperator entries must be finite")
    rng = np.random.default_rng(seed)
    shape = (VALIDATION_SAMPLES, dim_in)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries may overflow
        residual = max_norm(identity(dim_out).reshape(-1) @ M - identity(dim_in).reshape(-1))
        if not residual <= tol:  # written so that a NaN residual fails
            raise InvalidChannel(f"trace not preserved: max residual {residual:.3e}")
        images = _act(M, v[:, :, None] * v[:, None, :].conj(), dim_out)
    for i, out in enumerate(images):
        if not (np.all(np.isfinite(out)) and in_kind(out, OperatorKind.POSITIVE, tol)):
            raise InvalidChannel(f"positivity violated on sampled pure state #{i}")
    return _channel(Super, dim_in, dim_out, M)


def to_super(ch: Super) -> np.ndarray:
    """A writable copy of the channel's matrix on row-major vectorized operators."""
    return _require_channel(ch).matrix.copy()


def _act(S: np.ndarray, rho: np.ndarray, dim_out: int) -> np.ndarray:
    """S vec(rho), unvectorized: the image of one density, or of each in a (b, n, n) stack."""
    lead = rho.shape[:-2]
    return np.matmul(S, rho.reshape(*lead, -1, 1)).reshape(*lead, dim_out, dim_out)


def apply_channel(ch: Super, rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Apply the channel to a density operator (NotDensity otherwise)."""
    _require_channel(ch)
    rho = as_matrix(rho)
    if rho.shape[0] != ch.dim_in:
        raise NotDensity(f"density dim {rho.shape[0]} != channel input dim {ch.dim_in}")
    if not in_kind(rho, OperatorKind.DENSITY, tol):
        raise NotDensity("channel input does not classify as a density operator")
    return _act(ch.matrix, rho, ch.dim_out)


def compose(g: Super, f: Super) -> Super:
    """The channel doing f first, then g (as a raw superoperator)."""
    _require_channel(g)
    _require_channel(f)
    if f.dim_out != g.dim_in:
        raise InvalidChannel(
            f"cannot compose: inner output dim {f.dim_out} != outer input dim {g.dim_in}"
        )
    return _channel(Super, f.dim_in, g.dim_out, g.matrix @ f.matrix)


def wp(ch: Super, A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Weakest precondition: the effect W with tr(f(rho) A) = tr(rho W).

    A must be an effect on the channel's output space (NotEffect otherwise).
    The pre-expectation functional is inverted through the generic duality
    machinery; if the inversion fails or its result is not an effect --
    possible only for channels that are not actually positive -- NotEffect
    is raised rather than clamping.
    """
    _require_channel(ch)
    A = as_matrix(A)
    if A.shape[0] != ch.dim_out:
        raise NotEffect(f"effect dim {A.shape[0]} != channel output dim {ch.dim_out}")
    if not in_kind(A, OperatorKind.EFFECT, tol):
        raise NotEffect("the predicate does not classify as an effect")

    def pre_expectations(rhos: np.ndarray) -> np.ndarray:
        return np.trace(_act(ch.matrix, rhos, ch.dim_out) @ A, axis1=1, axis2=2)

    h = Functional(
        OperatorKind.EFFECT,
        ch.dim_in,
        lambda rho: pre_expectations(np.asarray(rho)[None])[0],
        note="pre-expectation of an effect under a channel",
        stacked=pre_expectations,
    )
    try:
        return hs_inverse(OperatorKind.EFFECT, h, tol)
    except DualityError as exc:
        raise NotEffect(f"no effect is the precondition: {exc}") from exc


__all__ = [
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
