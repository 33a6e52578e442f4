"""Shared fixtures: the small operators every test file keeps reaching for."""

import numpy as np
import pytest


def mat(rows):
    return np.array(rows, dtype=np.complex128)


def transpose_super(n):
    """The superoperator of rho |-> rho^T on row-major vectorized n x n matrices.

    The transpose is positive and trace-preserving but, for n >= 2, not
    completely positive: its Choi matrix is the swap, with eigenvalue -1.
    """
    return np.eye(n * n, dtype=np.complex128)[[b * n + a for a in range(n) for b in range(n)]]


@pytest.fixture
def pauli():
    return {
        "I": mat([[1, 0], [0, 1]]),
        "X": mat([[0, 1], [1, 0]]),
        "Y": mat([[0, -1j], [1j, 0]]),
        "Z": mat([[1, 0], [0, -1]]),
    }


@pytest.fixture
def p0():
    return mat([[1, 0], [0, 0]])


@pytest.fixture
def p1():
    return mat([[0, 0], [0, 1]])
