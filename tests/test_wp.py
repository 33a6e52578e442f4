"""Channels on densities and the weakest-precondition transformer.

For unitary channels the closed form U^dagger A U is computed here as an
oracle and compared against the generic reconstruction; the library itself
never takes that shortcut.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsdual import operators
from hsdual.algebra import NotDistribution, Semiring, formal_sum
from hsdual.linalg import approx_eq, identity, max_norm, outer_unit, trace
from hsdual.operators import OperatorKind, in_kind, sample, sample_unitary
from hsdual.wp import (
    CHOI_TOL_FLOOR,
    VALIDATION_SAMPLES,
    ChannelError,
    InvalidChannel,
    NotDensity,
    NotEffect,
    apply_channel,
    compose,
    mixture_channel,
    super_channel,
    to_super,
    unitary_channel,
    wp,
)
from hsdual.wp import Super, _act, _channel, _choi_certifies

from conftest import mat, transpose_super


def _x_channel():
    return unitary_channel(mat([[0, 1], [1, 0]]))


def _id_channel(dim):
    return unitary_channel(identity(dim))


# --- channel construction and validity --------------------------------------------


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(InvalidChannel):
        unitary_channel(mat([[1, 0], [0, 2]]))


def test_mixture_accepts_exact_and_float_weights():
    parts = [_id_channel(2), _x_channel()]
    m1 = mixture_channel([Fraction(1, 2), Fraction(1, 2)], parts)
    m2 = mixture_channel([0.5, 0.5], parts)
    assert np.array_equal(m1.matrix, m2.matrix)


def test_mixture_rejects_bad_weights():
    parts = [_id_channel(2), _x_channel()]
    with pytest.raises((InvalidChannel, NotDistribution)):
        mixture_channel([Fraction(1, 2), Fraction(1, 3)], parts)  # sums to 5/6
    with pytest.raises(InvalidChannel):
        mixture_channel([], [])



@pytest.mark.parametrize(
    "weights",
    [[1], ["1/3", "1/3", "1/3"], [0.5, 0.5, 0]],
    ids=["fewer", "more", "more with a zero"],
)
def test_mixture_needs_one_weight_per_part(weights):
    with pytest.raises(InvalidChannel, match="weights"):
        mixture_channel(weights, [_id_channel(2), _x_channel()])


@pytest.mark.parametrize(
    "weights",
    [
        ["a", "1/2"],
        ["1/0", 1],
        ["nan", 1],
        [float("nan"), 1],
        [-0.5, 1.5],
        [2, -1],
        [True, False],
        [None, 1],
        ["1e-5000", 1],
        formal_sum(Semiring.UNIT_INTERVAL, [(0, "1/2"), (1, "1/2")], distribution=True),
        iter(["1/2", "1/2"]),
    ],
    ids=["a", "1/0", "nan text", "nan", "-0.5", "2", "bool", "None", "huge exponent", "FormalSum", "iterator"],
)
def test_mixture_rejects_malformed_weights_as_invalid_channel(weights):
    with pytest.raises(InvalidChannel):
        mixture_channel(weights, [_id_channel(2), _x_channel()])


def test_mixture_is_a_plain_super():
    mix = mixture_channel(("1/4", 0.75), [_id_channel(2), _x_channel()])
    assert type(mix) is Super
    want = 0.25 * to_super(_id_channel(2)) + 0.75 * to_super(_x_channel())
    assert np.array_equal(mix.matrix, want)

def test_mixture_rejects_dimension_clash():
    with pytest.raises(InvalidChannel):
        mixture_channel([Fraction(1, 2), Fraction(1, 2)], [_id_channel(2), _id_channel(3)])


def test_super_channel_accepts_unitary_matrix():
    U = sample_unitary(2, 7)
    S = super_channel(2, 2, np.kron(U, U.conj()))
    rho = sample(OperatorKind.DENSITY, 2, 1)
    assert approx_eq(apply_channel(S, rho), U @ rho @ U.conj().T, 1e-10)


def test_super_channel_rejects_trace_breaker():
    with pytest.raises(InvalidChannel):
        super_channel(2, 2, 2.0 * np.eye(4))


def test_super_channel_rejects_positivity_breaker():
    # rho |-> tr(rho) * diag(2, -1): preserves trace, never positive
    M = np.array(
        [[2, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, -1]], dtype=complex
    )
    with pytest.raises(InvalidChannel):
        super_channel(2, 2, M)


def test_super_channel_rejects_wrong_shape():
    with pytest.raises(InvalidChannel):
        super_channel(2, 2, np.eye(3))


# --- apply_channel ------------------------------------------------------------------


def test_identity_channel_fixes_states():
    rho = sample(OperatorKind.DENSITY, 3, 2)
    assert approx_eq(apply_channel(_id_channel(3), rho), rho, 1e-12)


def test_x_channel_flips_basis_projector(p0, p1):
    assert approx_eq(apply_channel(_x_channel(), p0), p1, 1e-12)


def test_fifty_fifty_mixture_of_id_and_x(p0):
    ch = mixture_channel([Fraction(1, 2), Fraction(1, 2)], [_id_channel(2), _x_channel()])
    assert approx_eq(apply_channel(ch, p0), identity(2) / 2, 1e-12)


def test_apply_rejects_non_density():
    with pytest.raises(NotDensity):
        apply_channel(_id_channel(2), identity(2))  # trace 2
    with pytest.raises(NotDensity):
        apply_channel(_id_channel(2), sample(OperatorKind.DENSITY, 3, 0))


def test_channel_outputs_are_densities():
    U = sample_unitary(3, 5)
    ch = mixture_channel(
        [Fraction(1, 4), Fraction(3, 4)], [_id_channel(3), unitary_channel(U)]
    )
    from hsdual.operators import classify

    for seed in range(5):
        out = apply_channel(ch, sample(OperatorKind.DENSITY, 3, seed))
        assert classify(out).has(OperatorKind.DENSITY)


# --- superoperator forms and composition --------------------------------------------


def test_to_super_matches_direct_action():
    U = sample_unitary(3, 9)
    ch = unitary_channel(U)
    S = to_super(ch)
    rho = sample(OperatorKind.DENSITY, 3, 4)
    vec = rho.reshape(9)
    assert approx_eq((S @ vec).reshape(3, 3), U @ rho @ U.conj().T, 1e-12)


def test_compose_is_sequential_application():
    U1, U2 = sample_unitary(2, 1), sample_unitary(2, 2)
    f, g = unitary_channel(U1), unitary_channel(U2)
    gf = compose(g, f)
    rho = sample(OperatorKind.DENSITY, 2, 3)
    assert approx_eq(
        apply_channel(gf, rho), U2 @ (U1 @ rho @ U1.conj().T) @ U2.conj().T, 1e-10
    )


def test_compose_rejects_dimension_clash():
    with pytest.raises(InvalidChannel):
        compose(_id_channel(3), _id_channel(2))


# --- channels own their matrices ----------------------------------------------------


def _snapshot(ch, rhos):
    return [apply_channel(ch, rho).tobytes() for rho in rhos] + [to_super(ch).tobytes()]


def test_channels_ignore_later_changes_to_the_caller_arrays():
    rhos = [sample(OperatorKind.DENSITY, 2, seed) for seed in range(3)]
    U, V = sample_unitary(2, 1), sample_unitary(2, 2)
    M = np.kron(U, U.conj())
    weights = [Fraction(1, 3), Fraction(2, 3)]
    channels = [
        super_channel(2, 2, M),
        unitary_channel(U),
        mixture_channel(weights, [unitary_channel(V), _x_channel()]),
    ]
    before = [_snapshot(ch, rhos) for ch in channels]
    M[3, 3] = -5  # read through, this would map densities to non-positive operators
    U[0, 0] = 3
    V[1, 0] = 4
    weights.reverse()
    assert [_snapshot(ch, rhos) for ch in channels] == before


def test_channel_matrix_is_read_only_and_to_super_copies_it():
    ch = _x_channel()
    assert not ch.matrix.flags.writeable
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 2
    S = to_super(ch)
    S[0, 0] = 2
    assert ch.matrix[0, 0] == 0 and to_super(ch)[0, 0] == 0


def test_to_super_refuses_a_non_channel():
    with pytest.raises(ChannelError):
        to_super(mat([[0, 1], [1, 0]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: mixture_channel([1], ["x"]),
        lambda: mixture_channel(["1/2", "1/2"], [_x_channel(), mat([[0, 1], [1, 0]])]),
        lambda: apply_channel("x", identity(2) / 2),
        lambda: compose(_x_channel(), "x"),
        lambda: compose(None, _x_channel()),
        lambda: wp("x", identity(2)),
    ],
    ids=["mixture part", "mixture array part", "apply", "compose inner", "compose outer", "wp"],
)
def test_non_channel_arguments_raise_channel_error(call):
    with pytest.raises(ChannelError, match="not a channel"):
        call()



# --- wp ------------------------------------------------------------------------------


def test_wp_of_identity_channel_is_identity_map():
    E = sample(OperatorKind.EFFECT, 2, 5)
    assert approx_eq(wp(_id_channel(2), E), E, 1e-9)


def test_wp_x_channel_swaps_projectors(p0, p1):
    assert approx_eq(wp(_x_channel(), p0), p1, 1e-9)


def test_wp_preserves_the_top_effect():
    for ch in (
        _x_channel(),
        mixture_channel([Fraction(1, 2), Fraction(1, 2)], [_id_channel(2), _x_channel()]),
    ):
        assert approx_eq(wp(ch, identity(2)), identity(2), 1e-10)


def test_wp_matches_unitary_closed_form():
    for dim in (2, 3):
        for seed in range(5):
            U = sample_unitary(dim, seed)
            A = sample(OperatorKind.EFFECT, dim, seed + 10)
            W = wp(unitary_channel(U), A)
            assert max_norm(W - U.conj().T @ A @ U) <= 1e-9


def test_wp_adjointness_on_mixture():
    ch = mixture_channel(
        [Fraction(1, 3), Fraction(2, 3)],
        [unitary_channel(sample_unitary(3, 1)), unitary_channel(sample_unitary(3, 2))],
    )
    A = sample(OperatorKind.EFFECT, 3, 3)
    W = wp(ch, A)
    for seed in range(10):
        rho = sample(OperatorKind.DENSITY, 3, 20 + seed)
        lhs = trace(W @ rho)
        rhs = trace(A @ apply_channel(ch, rho))
        assert abs(lhs - rhs) <= 1e-9


def test_wp_is_effect_module_morphism_in_the_predicate():
    ch = unitary_channel(sample_unitary(2, 4))
    A = 0.5 * sample(OperatorKind.EFFECT, 2, 5)
    A2 = 0.4 * sample(OperatorKind.EFFECT, 2, 6)
    # scalar action
    assert approx_eq(wp(ch, 0.5 * A), 0.5 * wp(ch, A), 1e-9)
    # partial sum (A + A2 stays below I by construction)
    assert approx_eq(wp(ch, A + A2), wp(ch, A) + wp(ch, A2), 1e-9)


def test_wp_composition_law():
    f = unitary_channel(sample_unitary(2, 7))
    g = unitary_channel(sample_unitary(2, 8))
    A = sample(OperatorKind.EFFECT, 2, 9)
    assert approx_eq(wp(compose(g, f), A), wp(f, wp(g, A)), 1e-8)


def test_wp_rejects_non_effect_predicate():
    with pytest.raises(NotEffect):
        wp(_id_channel(2), 2.0 * identity(2))
    with pytest.raises(NotEffect):
        wp(_id_channel(2), sample(OperatorKind.EFFECT, 3, 0))


# --- only the constructors make a channel -------------------------------------------


def test_channel_types_cannot_be_built_directly():
    with pytest.raises(TypeError):
        Super(2, 2, -np.eye(4))  # would map every density rho to -rho


def test_channels_compare_and_hash_by_identity():
    ch = _id_channel(2)
    mix = mixture_channel(["1/2", "1/2"], [ch, _x_channel()])
    assert ch == ch and mix == mix
    assert ch != _id_channel(2)
    assert len({ch, _id_channel(2), mix, mix}) == 3
    assert hash(ch) == hash(ch)


def test_wp_on_a_non_positive_map_raises_not_effect():
    # rho |-> -rho passes no validation; _channel builds it to reach wp's guard
    with pytest.raises(NotEffect):
        wp(_channel(Super, 2, 2, -np.eye(4)), identity(2))


# --- super_channel: exact trace preservation, positivity on pure states -------------


def _trace_breaker_off_the_samples(n):
    """S = I + 0.05 vec(I/n) r^T with r as orthogonal as it gets to the vec
    of the 20 densities sample(DENSITY, n, i), i < 20.

    For n >= 5 (n^2 > 20) r is exactly orthogonal to them, so S preserves
    the trace of every one of those densities, but not of every density.
    """
    samples = np.array([sample(OperatorKind.DENSITY, n, i).reshape(-1) for i in range(20)])
    r = np.linalg.svd(samples)[2][-1].conj()
    return np.eye(n * n) + 0.05 * np.outer((identity(n) / n).reshape(-1), r), samples @ r


@pytest.mark.parametrize("n", [4, 5, 6])
def test_super_channel_rejects_a_trace_breaker_the_densities_miss(n):
    S, on_samples = _trace_breaker_off_the_samples(n)
    if n >= 5:
        assert np.abs(on_samples).max() <= 1e-12
    with pytest.raises(InvalidChannel, match="trace"):
        super_channel(n, n, S)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_super_channel_honours_tol_on_trace(tol):
    # (1 + d) rho keeps positivity and misses trace 1 by d
    super_channel(2, 2, (1 + 0.5 * tol) * np.eye(4), tol)
    with pytest.raises(InvalidChannel, match="trace"):
        super_channel(2, 2, (1 + 2 * tol) * np.eye(4), tol)


@pytest.mark.parametrize("dims", [(0, 2), (2, 0), (0, 0), (-1, 2)])
def test_super_channel_rejects_empty_dimensions(dims):
    dim_in, dim_out = dims
    with pytest.raises(InvalidChannel, match=">= 1"):
        super_channel(dim_in, dim_out, np.zeros((max(dim_out, 0) ** 2, max(dim_in, 0) ** 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [1, -1])
def test_super_channel_rejects_huge_entries_without_warning(sign):
    with pytest.raises(InvalidChannel):
        super_channel(2, 2, np.full((4, 4), sign * 1e308))


@pytest.mark.filterwarnings("error")
def test_super_channel_rejects_a_non_finite_image():
    # Trace-preserving, but the off-diagonal output entries are
    # h (1 +- 2 Re rho_01): one of them overflows for every pure state.
    h = np.finfo(float).max
    M = np.array([[1, 0, 0, 0], [h, h, h, h], [h, -h, -h, h], [0, 0, 0, 1]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(5):
            assert not np.isfinite(M @ sample(OperatorKind.DENSITY, 2, seed).reshape(-1)).all()
    with pytest.raises(InvalidChannel, match="positivity"):
        super_channel(2, 2, M)


# --- super_channel: the Choi certificate and the sampled fallback -------------------


@pytest.fixture
def eigensolves(monkeypatch):
    """One entry per hermitian_eig call made by a kind check."""
    calls = []
    real = operators.hermitian_eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "hermitian_eig", counted)
    return calls


def _kraus_channel(dim_in, dim_out, rank, seed):
    """The superoperator of rho |-> sum_k K_k rho K_k^dagger, the rank Kraus
    operators cut from one random isometry, so that sum_k K_k^dagger K_k = I."""
    rng = np.random.default_rng(seed)
    shape = (rank * dim_out, dim_in)
    Q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    return sum(np.kron(K, K.conj()) for K in Q.reshape(rank, dim_out, dim_in))


def _choi_min(M, n):
    """Smallest eigenvalue of the Choi matrix sum_cd |c><d| kron f(|c><d|) of
    an n x n map, built from its definition."""
    J = sum(
        np.kron(outer_unit(c, d, n), (M @ outer_unit(c, d, n).reshape(-1)).reshape(n, n))
        for c in range(n)
        for d in range(n)
    )
    return np.linalg.eigvalsh(J)[0]


def _straddling_map(n, seed, theta, tol):
    """A trace-preserving map whose Choi matrix has smallest eigenvalue
    -theta * tol (from above, within 1e-15): a channel of full Kraus rank
    mixed with the transpose after a unitary.  The smallest Choi eigenvalue
    is concave in the mixing weight, positive at 0 and -1 at 1, so bisection
    finds the weight."""
    channel = _kraus_channel(n, n, n * n, seed)
    U = sample_unitary(n, seed)
    transpose = transpose_super(n) @ np.kron(U, U.conj())
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if _choi_min((1 - mid) * channel + mid * transpose, n) >= -theta * tol:
            lo = mid
        else:
            hi = mid
    return (1 - lo) * channel + lo * transpose


def _per_image_verdict(M, dim_in, dim_out, tol, seed=0):
    """The InvalidChannel message super_channel owes M, or None, found without
    any certificate: the trace check, then in_kind on the image of each of the
    VALIDATION_SAMPLES seeded pure states in turn."""
    residual = max_norm(identity(dim_out).reshape(-1) @ M - identity(dim_in).reshape(-1))
    if not residual <= tol:
        return f"trace not preserved: max residual {residual:.3e}"
    rng = np.random.default_rng(seed)
    shape = (VALIDATION_SAMPLES, dim_in)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    images = _act(M, v[:, :, None] * v[:, None, :].conj(), dim_out)
    for i, out in enumerate(images):
        if not in_kind(out, OperatorKind.POSITIVE, tol):
            return f"positivity violated on sampled pure state #{i}"
    return None


def _verdict(M, dim_in, dim_out, tol):
    try:
        super_channel(dim_in, dim_out, M, tol)
    except InvalidChannel as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_is_accepted_through_the_sampled_states(eigensolves, n):
    # positive but, for n >= 2, not completely positive: the certificate
    # fails and each sampled image is classified
    ch = super_channel(n, n, transpose_super(n))
    assert len(eigensolves) == (VALIDATION_SAMPLES if n >= 2 else 0)
    rho = sample(OperatorKind.DENSITY, n, 3)
    assert np.array_equal(apply_channel(ch, rho), rho.T)


def _completely_positive_channels(n):
    U, V = unitary_channel(sample_unitary(n, 11)), unitary_channel(sample_unitary(n, 12))
    mix = mixture_channel(["1/3", "2/3"], [U, V])
    return {"unitary": U, "mixture": mix, "composed": compose(V, mix)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["unitary", "mixture", "composed"])
def test_completely_positive_channels_need_no_eigensolve(eigensolves, name, n):
    M = to_super(_completely_positive_channels(n)[name])
    eigensolves.clear()
    assert np.array_equal(super_channel(n, n, M).matrix, M)
    assert eigensolves == []


@pytest.mark.parametrize("theta, solves", [(0.45, 0), (0.55, VALIDATION_SAMPLES)])
def test_choi_certificate_holds_down_to_minus_half_tol(eigensolves, theta, solves):
    M = _straddling_map(3, 5, theta, 1e-9)
    eigensolves.clear()
    super_channel(3, 3, M, 1e-9)
    assert len(eigensolves) == solves


@pytest.mark.parametrize("tol, solves", [(CHOI_TOL_FLOOR, 0), (CHOI_TOL_FLOOR / 2, VALIDATION_SAMPLES)])
def test_choi_certificate_is_not_used_below_its_floor(eigensolves, tol, solves):
    super_channel(2, 2, np.eye(4), tol)
    assert len(eigensolves) == solves


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**16), theta=st.floats(0.4, 1.1))
def test_choi_certificate_agrees_with_per_image_check_near_minus_tol(n, seed, theta):
    M = _straddling_map(n, seed, theta, 1e-9)
    assert _verdict(M, n, n, 1e-9) == _per_image_verdict(M, n, n, 1e-9)


@st.composite
def _rank_deficient_channel(draw):
    dim_in, dim_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    least = -(-dim_in // dim_out)  # an isometry needs rank * dim_out >= dim_in
    rank = draw(st.integers(least, max(least, dim_in * dim_out - 1)))
    return dim_in, dim_out, _kraus_channel(dim_in, dim_out, rank, draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=_rank_deficient_channel(), tol=st.sampled_from([1e-15, 1e-16]))
def test_rank_deficient_channels_agree_with_per_image_check_at_tiny_tol(case, tol):
    dim_in, dim_out, M = case
    assert _verdict(M, dim_in, dim_out, tol) == _per_image_verdict(M, dim_in, dim_out, tol)


def test_choi_certificate_needs_hermitian_images():
    # rho |-> rho + 1e-6 i tr(rho) Z preserves the trace, and the Hermitian
    # part of its Choi matrix is the identity channel's, which is positive;
    # but no image is Hermitian, so the first sample is rejected
    Z = np.diag([1.0, -1.0])
    M = np.eye(4) + 1e-6j * np.outer(Z.reshape(-1), identity(2).reshape(-1))
    assert _verdict(M, 2, 2, 1e-9) == _per_image_verdict(M, 2, 2, 1e-9)
    with pytest.raises(InvalidChannel, match="#0$"):
        super_channel(2, 2, M)


@pytest.mark.filterwarnings("error")
def test_choi_certificate_declines_huge_entries_without_warning():
    # J + J^dagger would overflow here; the Hermitian part is formed from halves
    images = np.broadcast_to(identity(2) / 2, (VALIDATION_SAMPLES, 2, 2))
    assert not _choi_certifies(np.full((4, 4), 1e308, dtype=complex), images, 2, 2, 1e-9)


def test_apply_channel_returns_an_array_of_its_own():
    out = apply_channel(_x_channel(), sample(OperatorKind.DENSITY, 2, 0))
    assert out.base is None and out.flags.writeable


# --- mixture weights: refused before an expensive exact parse -----------------------


@pytest.mark.parametrize(
    "weight",
    ["1e-999999999", "1E+999999999", "1e-1_000_000", "0." + "0" * 10**7 + "1"],
    ids=["exponent", "exponent upper case", "exponent with underscores", "long string"],
)
def test_mixture_refuses_a_huge_weight_in_constant_time(weight):
    start = time.perf_counter()
    with pytest.raises(InvalidChannel, match="too long"):
        mixture_channel([weight, "1"], [_id_channel(2), _x_channel()])
    assert time.perf_counter() - start < 1.0


def test_mixture_parses_a_weight_exponent_up_to_the_limit():
    mix = mixture_channel(["1e0", "0e1000"], [_id_channel(2), _x_channel()])
    assert np.array_equal(mix.matrix, to_super(_id_channel(2)))
    with pytest.raises(InvalidChannel, match="too long"):
        mixture_channel(["1e0", "0e1001"], [_id_channel(2), _x_channel()])
