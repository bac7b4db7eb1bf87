"""Named gates and fiducial state vectors used throughout the package."""

from __future__ import annotations

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
