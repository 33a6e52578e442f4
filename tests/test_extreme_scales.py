"""Spectra and kind checks at magnitudes far from 1.

The eigensolver sweeps a copy of the Hermitian part scaled by an exact power
of two, so scaling the input by 2**k scales the eigenvalues by 2**k bit for
bit and leaves the eigenvectors alone, wherever the values stay normal
floats.  Entries near the top of the float range must not overflow into a
wrong spectrum or a warning, and entries near the bottom must not underflow
into a premature convergence.  numpy.linalg.eigvalsh serves as the oracle.
"""

import warnings

import numpy as np
import pytest

from hsdual.linalg import (
    LinalgError,
    NoConvergence,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
)
from hsdual.operators import OperatorKind, classify

from conftest import mat

B = OperatorKind.BOUNDED
SA = OperatorKind.SELF_ADJOINT
POS = OperatorKind.POSITIVE

TINY = np.finfo(np.float64).tiny


def _hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return G + G.conj().T


def _normal(x: np.ndarray) -> bool:
    """Every real and imaginary part is zero or a finite normal float."""
    parts = np.abs(np.asarray(x, dtype=np.complex128).view(np.float64))
    return bool(np.all(np.isfinite(parts) & ((parts == 0) | (parts >= TINY))))


@pytest.mark.parametrize("sign", [1, -1])
def test_power_of_two_scaling_is_exact(sign):
    checked = 0
    for dim in range(1, 9):
        H = _hermitian(dim, seed=100 + dim)
        ref = hermitian_eig(H)
        for k in (300, 600, 1000):
            scale = 2.0 ** (sign * k)
            scaled = scale * H
            if not (_normal(scaled / 2) and _normal(scale * ref.eigenvalues)):
                continue
            dec = hermitian_eig(scaled)
            assert np.array_equal(dec.eigenvalues, scale * ref.eigenvalues), (dim, sign * k)
            assert np.array_equal(dec.vectors, ref.vectors), (dim, sign * k)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize(
    "A, tol",
    [
        (mat([[1e160, 2e160], [2e160, 1e160]]), 1e-9),
        (mat([[1, 2], [2, 1]]) * 1e-170, 5e-324),
    ],
    ids=["1e160", "1e-170"],
)
def test_indefinite_matrix_at_extreme_scale_is_only_self_adjoint(A, tol):
    report = classify(A, tol)
    assert report.kinds == (B, SA)
    expected = np.linalg.eigvalsh(A)[::-1]
    np.testing.assert_allclose(report.eigenvalues, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "A, kinds",
    [
        (mat([[1, 0], [0, 1e308]]), (B, SA, POS)),
        (mat([[0, 1e308], [-1e308, 0]]), (B,)),
    ],
    ids=["diag-1e308", "antihermitian-1e308"],
)
def test_huge_entries_classify_without_warning(A, kinds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = classify(A)
    assert report.kinds == kinds


def test_eigenvalue_beyond_float_range_raises_linalg_error():
    A = mat([[1.5e308, 1e308], [1e308, -1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinalgError, match="float range") as info:
            hermitian_eig(A)
    assert not isinstance(info.value, NoConvergence)


def test_hermitian_part_and_residual_on_a_huge_stack():
    stack = np.stack([mat([[1e308, 1e308j], [-1e308j, 1e308]]), mat([[0, 1e308], [-1e308, 0]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = hermitian_part(stack)
        assert is_hermitian(stack[:1])
        assert not is_hermitian(stack)
    assert np.array_equal(H[0], stack[0])
    assert np.array_equal(H[1], np.zeros((2, 2)))
