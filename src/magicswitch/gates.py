"""Named gates and fiducial state vectors used throughout the package,
and the Heisenberg-Weyl displacement operators of odd prime dimensions."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)


def basis_state(d: int, j: int) -> np.ndarray:
    vec = np.zeros(d, dtype=complex)
    vec[j] = 1.0
    return vec


def plus_state(d: int) -> np.ndarray:
    """Uniform superposition (|0> + ... + |d-1>)/sqrt(d)."""
    return np.ones(d, dtype=complex) / np.sqrt(d)


def fourier_gate(d: int) -> np.ndarray:
    """Discrete Fourier transform unitary, entries omega**(jk)/sqrt(d)."""
    omega = np.exp(2j * np.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return omega ** (j * k) / np.sqrt(d)


def qutrit_t_gate() -> np.ndarray:
    """Non-Clifford diagonal qutrit gate diag(zeta, 1, 1/zeta), zeta = e^{2 pi i/9}."""
    zeta = np.exp(2j * np.pi / 9)
    return np.diag([zeta, 1.0, 1.0 / zeta]).astype(complex)


def check_odd_prime(d: int) -> None:
    """Refuse, with ``ValueError``, a ``d`` that is not an odd prime: the
    package's one primality check."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"dimension d={d} must be an odd prime")
    if any(d % k == 0 for k in range(2, int(d**0.5) + 1)):
        raise ValueError(f"dimension d={d} must be prime")


@lru_cache(maxsize=None)
def heisenberg_weyl_operators(d: int) -> tuple:
    """Displacement operators T_u = tau^(-a1 a2) Z^a1 X^a2 over Z_d x Z_d.

    Returned as ((a1, a2), operator) pairs in row-major point order.  A
    ``d`` that is not an odd prime raises ``ValueError`` (``check_odd_prime``).
    """
    check_odd_prime(d)
    omega = np.exp(2j * np.pi / d)
    tau = np.exp(1j * np.pi * (d + 1) / d)
    boost = np.diag([omega**j for j in range(d)]).astype(complex)
    rows = np.arange(d)
    out = []
    for a1 in range(d):
        # Z^a1 is diagonal, and X^a2 moves column j to row j + a2 mod d, so
        # Z^a1 X^a2 holds row i's phase of Z^a1 at column i - a2 mod d.
        phases = np.linalg.matrix_power(boost, a1).diagonal()
        for a2 in range(d):
            op = np.zeros((d, d), dtype=complex)
            op[rows, (rows - a2) % d] = tau ** (-a1 * a2) * phases
            op.setflags(write=False)
            out.append(((a1, a2), op))
    return tuple(out)
