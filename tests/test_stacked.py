"""Stacked and per-probe evaluation of a functional give one inversion.

hs_inverse hands each probe set to ``Functional.on_stack``: one call of a
stacked evaluator, or one ``eval`` call per probe.  The two paths must see
the same probes in the same order, reconstruct the same operator, and reject
the same dishonest functionals with the same exception class.  Kind checks
that need no spectrum must not run the eigensolver, and those that need one
must not ask it for eigenvectors: only pos_neg_split does.
"""

import numpy as np
import pytest

from hsdual import operators
from hsdual.duality import (
    DUAL_KINDS,
    ContractViolation,
    Functional,
    NotInKind,
    hs_forward,
    hs_inverse,
)
from hsdual.linalg import DimensionMismatch, identity, max_norm, trace
from hsdual.operators import OperatorKind, sample
from hsdual.wp import mixture_channel, super_channel, to_super, unitary_channel, wp

B = OperatorKind.BOUNDED
SA = OperatorKind.SELF_ADJOINT
POS = OperatorKind.POSITIVE
EF = OperatorKind.EFFECT
DM = OperatorKind.DENSITY


def _per_probe_only(B):
    raise AssertionError("a stacked functional must not be evaluated probe by probe")


def _both_paths(kind, dim, fn):
    """fn as a stacked Functional and as a plain one, each logging its probes."""
    stacked_seen, single_seen = [], []

    def stacked(Bs):
        stacked_seen.extend(np.array(Bs))
        return [fn(Bm) for Bm in Bs]

    def single(Bm):
        single_seen.append(np.array(Bm))
        return fn(Bm)

    return (
        Functional(kind, dim, _per_probe_only, stacked=stacked),
        Functional(kind, dim, single),
        stacked_seen,
        single_seen,
    )


@pytest.mark.parametrize("kind", DUAL_KINDS, ids=lambda k: k.value)
def test_stacked_and_per_probe_paths_agree(kind):
    for dim in range(1, 9):
        f = hs_forward(kind, sample(kind, dim, dim))
        g_stacked, g_single, stacked_seen, single_seen = _both_paths(kind, dim, f)
        A_stacked = hs_inverse(kind, g_stacked)
        A_single = hs_inverse(kind, g_single)
        assert len(stacked_seen) == len(single_seen) == (17 if kind == DM else 16) + dim * dim
        assert all(np.array_equal(x, y) for x, y in zip(stacked_seen, single_seen)), (kind, dim)
        assert max_norm(A_stacked - A_single) <= 1e-15, (kind, dim)
        # hs_forward's own stacked evaluator against its per-probe one
        assert max_norm(hs_inverse(kind, f) - A_single) <= 1e-15, (kind, dim)


@pytest.mark.parametrize("kind", [B, SA], ids=lambda k: k.value)
def test_large_dimension_reconstructs_in_bounded_stacks(kind):
    # dim^2 probes of dim^2 entries each exceed one stack's 2^16 entries from
    # dim 17 on; the reconstruction probes then come in several stacks.
    dim = 17
    A = sample(kind, dim, 0)
    f = hs_forward(kind, A)
    shapes = []

    def stacked(Bs):
        shapes.append(Bs.shape)
        return f.stacked(Bs)

    R = hs_inverse(kind, Functional(kind, dim, _per_probe_only, stacked=stacked))
    assert max_norm(R - A) <= 1e-12
    assert len(shapes) > 2 and all(np.prod(shape) <= 1 << 16 for shape in shapes)
    assert sum(shape[0] for shape in shapes) == 16 + dim * dim


_DISHONEST = [
    (SA, 2, lambda Bm: trace(Bm @ Bm)),
    (EF, 2, lambda rho: 2.0 * trace(rho)),
    (DM, 2, lambda E: trace(2 * identity(2) @ E)),
    (DM, 2, lambda E: trace(E) / (1.0 + max_norm(E))),
    *[
        (DM, dim, lambda E, r=sample(DM, dim, 5): 0.5 + 0.5 * trace(r @ E))
        for dim in (2, 3, 4)
    ],
    (B, 3, lambda Bm, A=sample(B, 3, 4): 0.3 + trace(A @ Bm.conj().T)),
]


@pytest.mark.parametrize("kind, dim, fn", _DISHONEST)
def test_both_paths_reject_a_dishonest_functional_alike(kind, dim, fn):
    g_stacked, g_single, _, _ = _both_paths(kind, dim, fn)
    with pytest.raises((ContractViolation, NotInKind)) as single:
        hs_inverse(kind, g_single)
    with pytest.raises(type(single.value)):
        hs_inverse(kind, g_stacked)


def test_stacked_evaluator_of_wrong_shape_is_a_contract_violation():
    f = Functional(EF, 2, _per_probe_only, stacked=lambda Bs: np.zeros(len(Bs) + 1))
    with pytest.raises(ContractViolation):
        hs_inverse(EF, f)


def test_forward_stack_checks_shape_and_finiteness_once():
    f = hs_forward(SA, sample(SA, 3, 0))
    probes = np.stack([sample(SA, 3, s) for s in range(4)])
    assert max_norm(f.stacked(probes) - np.array([f(Bm) for Bm in probes])) <= 1e-15
    with pytest.raises(DimensionMismatch):
        f.stacked(probes[:, :2, :2])
    with pytest.raises(DimensionMismatch):
        f.stacked(probes[0])
    bad = probes.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(ValueError):
        f.stacked(bad)


def test_wp_stacked_pre_expectation_matches_per_probe():
    for dim in (1, 2, 3, 4):
        parts = [unitary_channel(operators.sample_unitary(dim, s)) for s in range(3)]
        mix = mixture_channel(["1/2", "1/3", "1/6"], parts)
        for ch in (parts[0], mix, super_channel(dim, dim, to_super(mix))):
            A, S = sample(EF, dim, dim), to_super(ch)
            plain = Functional(
                EF, dim, lambda rho: trace((S @ rho.reshape(-1)).reshape(dim, dim) @ A)
            )
            assert max_norm(wp(ch, A) - hs_inverse(EF, plain)) <= 1e-15, (dim, ch)


@pytest.fixture
def eigensolves(monkeypatch):
    calls = []
    real = operators.hermitian_eig

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "hermitian_eig", counted)
    return calls


@pytest.mark.parametrize(
    "kind, solves", [(B, 0), (SA, 0), (POS, 1), (EF, 1), (DM, 1)], ids=lambda x: str(x)
)
def test_round_trip_eigensolves_only_for_spectral_kinds(eigensolves, kind, solves):
    for dim in (1, 3, 5):
        A = sample(kind, dim, dim)
        eigensolves.clear()
        f = hs_forward(kind, A)
        assert len(eigensolves) == solves, ("hs_forward", kind, dim)
        eigensolves.clear()
        hs_inverse(kind, f)
        assert len(eigensolves) == solves, ("hs_inverse", kind, dim)


@pytest.fixture
def vector_requests(monkeypatch):
    """The ``vectors`` flag of every hermitian_eig call, in call order."""
    requests = []
    real = operators.hermitian_eig

    def recorded(A, tol=operators.DEFAULT_TOL, *, vectors=True):
        requests.append(vectors)
        return real(A, tol, vectors=vectors)

    monkeypatch.setattr(operators, "hermitian_eig", recorded)
    return requests


def _kind_checks():
    A = sample(SA, 3, 1)
    ch = unitary_channel(operators.sample_unitary(3, 2))
    return {
        "classify": lambda: operators.classify(A),
        "in_kind": lambda: [operators.in_kind(A, k) for k in (POS, EF, DM)],
        "loewner_leq": lambda: operators.loewner_leq(sample(EF, 3, 3), identity(3)),
        "sample(EFFECT)": lambda: sample(EF, 3, 4),
        "super_channel": lambda: super_channel(3, 3, to_super(ch)),
        "wp": lambda: wp(ch, sample(EF, 3, 5)),
        "round trips": lambda: [hs_inverse(k, hs_forward(k, sample(k, 3, 6))) for k in DUAL_KINDS],
    }


@pytest.mark.parametrize("name", sorted(_kind_checks()))
def test_kind_checks_never_request_eigenvectors(vector_requests, name):
    _kind_checks()[name]()
    assert vector_requests and not any(vector_requests), name


def test_pos_neg_split_requests_eigenvectors(vector_requests):
    P, N = operators.pos_neg_split(sample(SA, 3, 7))
    assert vector_requests == [True]
    assert max_norm(P - N - sample(SA, 3, 7)) <= 1e-12
