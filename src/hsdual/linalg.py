"""Dense complex matrices and a self-contained Hermitian eigensolver.

Operators are square numpy arrays of dtype complex128, treated as immutable
values: every function returns a fresh array and never mutates its input.
The eigensolver is a cyclic Jacobi iteration with complex 2x2 rotations; it
is deliberately written out in full rather than delegated, so its numerical
behaviour (convergence criterion, sweep budget, eigenvalue ordering) is
pinned down by this module alone.  ``hermitian_eig`` is the package's only
way to ask for a spectrum: it checks Hermiticity at the caller's tolerance,
symmetrizes its input and converges to min(tol, EIG_TOL), floored at machine
epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default tolerance for membership and equality predicates (absolute,
#: max-norm).  All samplers in this package emit O(1)-normalized operators,
#: which keeps an absolute threshold meaningful.
DEFAULT_TOL = 1e-9

#: Ceiling on ``hermitian_eig``'s convergence target, which is
#: min(tol, EIG_TOL) but never below machine epsilon.  Kept well below
#: DEFAULT_TOL so that solver noise never decides a membership question.
EIG_TOL = 1e-12

#: Floor on the convergence target: a relative off-diagonal mass below one
#: rounding unit is not reachable, and chasing it overflows the rotations.
_EIG_FLOOR = float(np.finfo(np.float64).eps)

_MAX_SWEEPS = 100


class LinalgError(Exception):
    """Base class for errors raised by the matrix layer."""


class DimensionMismatch(LinalgError):
    """Operands have incompatible shapes."""


class NotHermitian(LinalgError):
    """A Hermitian-only operation received a non-Hermitian matrix."""


class NoConvergence(LinalgError):
    """The Jacobi iteration exhausted its sweep budget."""


def as_matrix(data) -> np.ndarray:
    """Coerce to a square complex128 matrix, validating shape and finiteness."""
    A = np.asarray(data, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise DimensionMismatch("matrices must have dimension >= 1")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("matrix entries must be finite")
    return A


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def zeros(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=np.complex128)


def max_norm(A: np.ndarray) -> float:
    """Entrywise max-norm, the repo-wide yardstick for approximate equality."""
    return float(np.abs(A).max())


def trace(A: np.ndarray) -> complex:
    return complex(np.trace(A))


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return A.conj().T.copy()


def outer_unit(j: int, k: int, dim: int) -> np.ndarray:
    """The matrix unit |j><k|: a single 1 in row j, column k."""
    if not (0 <= j < dim and 0 <= k < dim):
        raise IndexError(f"outer_unit indices ({j}, {k}) out of range for dim {dim}")
    E = zeros(dim)
    E[j, k] = 1.0
    return E


def approx_eq(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the max-norm of A - B is at most tol."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch: {A.shape} vs {B.shape}")
    return max_norm(A - B) <= tol


def is_hermitian(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return max_norm(A - A.conj().T) <= tol


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` is real and sorted in descending order; column j of
    ``vectors`` is a unit eigenvector for ``eigenvalues[j]``, and the columns
    are mutually orthonormal.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.vectors
        return (V * self.eigenvalues) @ V.conj().T


def _offdiag_mass(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def _diag_mass(A: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(np.diag(A)) ** 2)))


def hermitian_eig(A: np.ndarray, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    The input must be Hermitian within tol (max-norm), else NotHermitian is
    raised; callers pass their matrix as it is, and the solver works on its
    exactly Hermitian part (A + A^dagger)/2.  Sweeps over all index pairs
    apply 2x2 unitary rotations until the off-diagonal Frobenius mass drops to
    min(tol, EIG_TOL) times the diagonal mass, so solver noise never decides a
    threshold at tol; the target is floored at machine epsilon, which a tighter
    tol cannot improve on.  If 100 sweeps do not get there, NoConvergence is
    raised.
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        raise NotHermitian(
            f"matrix is not self-adjoint within {tol} (residual {max_norm(A - A.conj().T):.3e})"
        )
    n = A.shape[0]
    tol = max(min(tol, EIG_TOL), _EIG_FLOOR)
    H = (A + A.conj().T) / 2.0
    V = np.eye(n, dtype=np.complex128)

    if n == 1:
        return EigenDecomposition(np.array([H[0, 0].real]), V)

    converged = False
    for _ in range(_MAX_SWEEPS):
        if _offdiag_mass(H) <= tol * _diag_mass(H):
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = H[p, q]
                absb = abs(beta)
                if absb == 0.0:
                    continue
                app = H[p, p].real
                aqq = H[q, q].real
                # Zero H[p,q] with the unitary J = [[c, -conj(s)], [s, c]],
                # s = conj(phase(beta)) * sigma.  Writing t = sigma/c, the
                # (p,q) entry vanishes when t^2 - 2*tau*t - 1 = 0 for
                # tau = (aqq - app) / (2|beta|); take the smaller-magnitude
                # root t = -sign(tau) / (|tau| + sqrt(1 + tau^2)).
                tau = (aqq - app) / (2.0 * absb)
                if tau >= 0.0:
                    t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = (beta.conjugate() / absb) * (t * c)

                # H <- J^dagger H J, touching only rows/columns p and q.
                rowp = c * H[p, :] + s.conjugate() * H[q, :]
                rowq = -s * H[p, :] + c * H[q, :]
                H[p, :] = rowp
                H[q, :] = rowq
                colp = c * H[:, p] + s * H[:, q]
                colq = -s.conjugate() * H[:, p] + c * H[:, q]
                H[:, p] = colp
                H[:, q] = colq
                # Enforce the invariants the rotation establishes exactly.
                H[p, q] = 0.0
                H[q, p] = 0.0
                H[p, p] = H[p, p].real
                H[q, q] = H[q, q].real

                vcolp = c * V[:, p] + s * V[:, q]
                vcolq = -s.conjugate() * V[:, p] + c * V[:, q]
                V[:, p] = vcolp
                V[:, q] = vcolq
    else:
        converged = _offdiag_mass(H) <= tol * _diag_mass(H)

    if not converged:
        raise NoConvergence(
            f"Jacobi iteration did not reach tolerance {tol} in {_MAX_SWEEPS} sweeps"
        )

    eigs = np.diag(H).real.copy()
    order = np.argsort(-eigs, kind="stable")
    return EigenDecomposition(eigs[order].copy(), V[:, order].copy())


# --- JSON encoding ----------------------------------------------------------
#
# Matrices travel as {"dim": n, "data": [[re, im], ...]} with the entries in
# row-major order (data has length n*n).


def matrix_to_json(A: np.ndarray) -> dict:
    A = as_matrix(A)
    n = A.shape[0]
    flat = A.reshape(n * n)
    return {"dim": n, "data": [[float(z.real), float(z.imag)] for z in flat]}


def int_from_json(value, what: str) -> int:
    """An integer field of a JSON document: an int or an integral float.

    Booleans, strings and fractional or non-finite floats raise ValueError
    naming ``what``.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def entries_from_json(data, count: int, what: str) -> np.ndarray:
    """``count`` complex entries from a JSON list of [re, im] number pairs.

    Each part must be a JSON number (int or float); booleans and strings
    raise ValueError naming ``what``, as do integers too large for a float.
    """
    if not isinstance(data, list) or len(data) != count:
        raise ValueError(f"{what} data must list {count} [re, im] pairs")
    flat = []
    for pair in data:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what} entries must be [re, im] pairs")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
            raise ValueError(f"{what} entries must be numbers, got {pair!r}")
        try:
            flat.append(complex(float(pair[0]), float(pair[1])))
        except OverflowError as exc:
            raise ValueError(f"{what} entry {pair!r} is out of range: {exc}") from exc
    return np.array(flat, dtype=np.complex128)


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object with 'dim' and 'data'")
    try:
        dim = obj["dim"]
        data = obj["data"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix JSON: missing {exc}") from exc
    dim = int_from_json(dim, "matrix JSON dim")
    if dim < 1:
        raise ValueError("matrix JSON must have dim >= 1")
    return as_matrix(entries_from_json(data, dim * dim, "matrix JSON").reshape(dim, dim))
