"""Matrix layer: trace/dagger arithmetic, the Jacobi eigensolver, JSON codec.

Expected eigensystems for 2x2 inputs come from the characteristic polynomial
worked by hand (lambda^2 - tr*lambda + det = 0); larger random cases are
cross-checked against numpy.linalg.eigh, which plays no role in the library
itself.
"""

import warnings

import numpy as np
import pytest

from hsdual.linalg import (
    DEFAULT_TOL,
    EIG_TOL,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    approx_eq,
    as_matrix,
    dagger,
    hermitian_eig,
    identity,
    matrix_from_json,
    matrix_to_json,
    max_norm,
    outer_unit,
    trace,
)

from conftest import mat


# --- trace -------------------------------------------------------------------


def test_trace_identity_dim2():
    assert trace(identity(2)) == 2.0


def test_trace_offdiagonal_unit_is_zero():
    assert trace(outer_unit(0, 1, 2)) == 0.0


def test_trace_mixed_entries():
    assert trace(mat([[1, 2j], [0, 3]])) == 4.0


def test_trace_is_linear():
    rng = np.random.default_rng(11)
    A = mat(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    B = mat(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    z = 0.7 - 1.3j
    assert abs(trace(z * A + B) - (z * trace(A) + trace(B))) < 1e-12


def test_trace_cyclic_property():
    rng = np.random.default_rng(12)
    for dim in (2, 3, 6):
        A = mat(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        B = mat(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        scale = max(1.0, abs(trace(A @ B)))
        assert abs(trace(A @ B) - trace(B @ A)) <= 1e-9 * scale


def test_trace_of_dagger_is_conjugate():
    rng = np.random.default_rng(13)
    A = mat(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert abs(trace(dagger(A)) - trace(A).conjugate()) < 1e-12


# --- dagger / outer_unit -------------------------------------------------------


def test_dagger_identity():
    assert approx_eq(dagger(identity(3)), identity(3), 0.0)


def test_dagger_of_unit_outer_product():
    assert approx_eq(dagger(outer_unit(0, 1, 2)), outer_unit(1, 0, 2), 0.0)


def test_dagger_explicit_entries():
    assert approx_eq(dagger(mat([[0, 1j], [0, 0]])), mat([[0, 0], [-1j, 0]]), 0.0)


def test_dagger_is_conjugate_linear_involution():
    rng = np.random.default_rng(14)
    A = mat(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    z = 1.2 + 0.3j
    assert approx_eq(dagger(dagger(A)), A, 0.0)
    assert approx_eq(dagger(z * A), z.conjugate() * dagger(A), 1e-12)


def test_outer_unit_examples():
    assert approx_eq(outer_unit(0, 0, 1), mat([[1]]), 0.0)
    assert approx_eq(outer_unit(0, 1, 2), mat([[0, 1], [0, 0]]), 0.0)
    assert approx_eq(outer_unit(1, 0, 2), mat([[0, 0], [1, 0]]), 0.0)


def test_outer_unit_rejects_out_of_range():
    with pytest.raises(IndexError):
        outer_unit(2, 0, 2)
    with pytest.raises(IndexError):
        outer_unit(0, -1, 2)


# --- approx_eq / as_matrix -----------------------------------------------------


def test_approx_eq_basics():
    assert approx_eq(identity(2), identity(2), 1e-9)
    assert not approx_eq(identity(2), np.zeros((2, 2)), 1e-9)
    A = mat([[0.3, 0], [0, -1]])
    assert approx_eq(A, A + 1e-12 * identity(2), 1e-9)


def test_approx_eq_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        approx_eq(identity(2), identity(3))


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[1, complex(0, np.inf)], [0, 1]])


# --- hermitian_eig -------------------------------------------------------------


def test_eig_identity():
    dec = hermitian_eig(identity(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    assert approx_eq(dec.reconstruct(), identity(2), 1e-12)


def test_eig_pauli_x_matches_characteristic_polynomial():
    # lambda^2 - 1 = 0 -> eigenvalues (1, -1); eigenvectors (1,1)/sqrt2 and
    # (1,-1)/sqrt2 up to phase.
    X = mat([[0, 1], [1, 0]])
    dec = hermitian_eig(X, tol=1e-12)
    assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    # compare up to a global phase via |<v, ref>| = 1
    assert abs(abs(dec.vectors[:, 0].conj() @ plus) - 1.0) < 1e-10
    assert abs(abs(dec.vectors[:, 1].conj() @ minus) - 1.0) < 1e-10


def test_eig_complex_offdiagonal():
    # [[1, i], [-i, 1]]: (1-lambda)^2 - 1 = 0 -> eigenvalues (2, 0).
    H = mat([[1, 1j], [-1j, 1]])
    dec = hermitian_eig(H, tol=1e-12)
    assert np.allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-12)
    assert approx_eq(dec.reconstruct(), H, 1e-12)


def test_eig_diagonal_input_sorts_descending():
    dec = hermitian_eig(mat([[3, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
    # permutation eigenvectors: each column is a standard basis vector
    assert np.allclose(np.abs(dec.vectors), np.abs(dec.vectors) ** 2, atol=1e-12)


def test_eig_agrees_with_numpy_on_random_hermitian():
    rng = np.random.default_rng(21)
    for dim in (2, 3, 5, 8):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (G + G.conj().T) / 2
        dec = hermitian_eig(H, tol=1e-12)
        expected = np.linalg.eigvalsh(H)[::-1]
        assert np.allclose(dec.eigenvalues, expected, atol=1e-10)


def test_eig_invariants_on_random_input():
    rng = np.random.default_rng(22)
    for dim in (2, 4, 7):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (G + G.conj().T) / 2
        dec = hermitian_eig(H, tol=1e-12)
        V = dec.vectors
        assert max_norm(V.conj().T @ V - identity(dim)) < 1e-10
        assert max_norm(dec.reconstruct() - H) <= 1e-9 * max(1.0, max_norm(H))
        assert all(x >= y - 1e-12 for x, y in zip(dec.eigenvalues, dec.eigenvalues[1:]))


def test_eig_owns_symmetrization_and_convergence_target():
    # A looser tol relaxes only the Hermiticity check: the iteration still
    # runs to EIG_TOL on (A + A^dagger)/2, so callers pass A and tol as is.
    rng = np.random.default_rng(23)
    for dim in (2, 4, 7):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (G + G.conj().T) / 2
        A = H + 1e-9 * (G - G.conj().T)
        tight = hermitian_eig((A + A.conj().T) / 2, tol=EIG_TOL)
        for tol in (1e-7, 1e-4):
            loose = hermitian_eig(A, tol=tol)
            assert np.array_equal(loose.eigenvalues, tight.eigenvalues)
            assert np.array_equal(loose.vectors, tight.vectors)
        with pytest.raises(NotHermitian):
            hermitian_eig(A, tol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(mat([[0, 1], [0, 0]]))


def test_eig_dim1():
    dec = hermitian_eig(mat([[-2.5]]))
    assert dec.eigenvalues[0] == -2.5
    assert dec.vectors[0, 0] == 1.0


@pytest.mark.filterwarnings("error")
def test_eig_convergence_target_is_floored_at_machine_epsilon():
    # No tol below one rounding unit can tighten the iteration: the smallest
    # float converges, without overflow, to the same result as epsilon.
    rng = np.random.default_rng(29)
    eps = float(np.finfo(np.float64).eps)
    for dim in (2, 3, 5, 8):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (G + G.conj().T) / 2
        tiny = hermitian_eig(H, tol=5e-324)
        floor = hermitian_eig(H, tol=eps)
        assert np.array_equal(tiny.eigenvalues, floor.eigenvalues)
        assert np.array_equal(tiny.vectors, floor.vectors)
        assert max_norm(tiny.reconstruct() - H) <= 1e-13


def _spectrum_cases():
    """512 seeded Hermitian matrices, dims 1-8: general, positive semidefinite,
    rank-deficient and diagonal (with repeated entries)."""
    rng = np.random.default_rng(31)
    cases = []
    for dim in range(1, 9):
        for _ in range(16):
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            cols = G[:, : int(rng.integers(0, dim))]
            for H in (G, G @ G.conj().T / dim, cols @ cols.conj().T):
                # exactly Hermitian, so that even tol = 5e-324 admits it
                cases.append((H + H.conj().T) / 2)
            cases.append(np.diag(rng.integers(-2, 3, size=dim) / 2).astype(np.complex128))
    return cases


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 5e-324])
def test_eig_without_vectors_has_bit_identical_eigenvalues(tol):
    cases = _spectrum_cases()
    assert len(cases) >= 500
    for H in cases:
        full = hermitian_eig(H, tol)
        spectrum = hermitian_eig(H, tol, vectors=False)
        assert spectrum.vectors is None
        assert np.array_equal(spectrum.eigenvalues, full.eigenvalues)


def test_eig_without_vectors_rejects_non_hermitian_alike():
    A = mat([[0, 1], [0, 0]])
    with pytest.raises(NotHermitian) as full:
        hermitian_eig(A)
    with pytest.raises(NotHermitian) as spectrum:
        hermitian_eig(A, vectors=False)
    assert str(spectrum.value) == str(full.value)


def test_eig_vectors_flag_is_keyword_only():
    with pytest.raises(TypeError):
        hermitian_eig(identity(2), DEFAULT_TOL, False)


def test_reconstruct_needs_vectors():
    with pytest.raises(ValueError, match="vectors=False"):
        hermitian_eig(identity(2), vectors=False).reconstruct()


def test_noconvergence_is_raisable():
    # The solver converges on everything well-conditioned we can build, so
    # just pin the exception type into the public contract.
    assert issubclass(NoConvergence, Exception)


# --- JSON codec ----------------------------------------------------------------


def test_matrix_json_round_trip():
    rng = np.random.default_rng(23)
    A = mat(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert approx_eq(matrix_from_json(matrix_to_json(A)), A, 0.0)


def test_matrix_json_shape_and_order():
    obj = matrix_to_json(mat([[1, 2j], [3, 4]]))
    assert obj["dim"] == 2
    assert obj["data"] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "data": [[1, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 0, "data": []})
    with pytest.raises(ValueError):
        matrix_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "data": [[1, 0, 0]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"dim": 2.7, "data": [[1, 0]] * 4},
        {"dim": True, "data": [[1, 0]]},
        {"dim": "2", "data": [[1, 0]] * 4},
        {"dim": float("inf"), "data": []},
        {"dim": 1, "data": [[{}, 0]]},
        {"data": [[1, 0]]},
        {"dim": 2, "data": [["0.5", False], [0, 0], [0, 0], [True, "0"]]},
        {"dim": 1, "data": [[True, 0]]},
        {"dim": 1, "data": [[0, "1"]]},
        {"dim": 1, "data": [[10**400, 0]]},
    ],
    ids=[
        "fractional-dim",
        "bool-dim",
        "string-dim",
        "infinite-dim",
        "non-numeric-entry",
        "no-dim",
        "string-and-bool-entries",
        "bool-entry",
        "string-entry",
        "integer-past-float-range",
    ],
)
def test_matrix_from_json_rejects_non_integer_dim_and_bad_entries(obj):
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_matrix_from_json_accepts_integral_float_dim():
    assert approx_eq(matrix_from_json({"dim": 1.0, "data": [[2, 0]]}), mat([[2]]), 0.0)


def test_default_tol_value():
    assert DEFAULT_TOL == 1e-9


@pytest.mark.parametrize("data", [object(), {}, {"dim": 2}, [[object()]], [[1, {}], [0, 1]]])
def test_as_matrix_refuses_entries_that_are_not_numbers(data):
    with pytest.raises(ValueError, match="must be finite numbers"):
        as_matrix(data)


def test_hermitian_eig_counts_subnormal_scaled_entries_as_zero():
    # scaled by 2**-1024, the unit entries are subnormal, and 1/|entry| overflows
    A = mat([[0, 1, 1e308], [1, 1, 1], [1e308, 1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigs = hermitian_eig(A, vectors=False).eigenvalues
    assert np.allclose(eigs, np.linalg.eigvalsh(A)[::-1], rtol=1e-15, atol=0.0)
