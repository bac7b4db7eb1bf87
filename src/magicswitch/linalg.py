"""Dense complex-matrix primitives shared by all quantum objects.

Operators are plain ``numpy.ndarray`` matrices with ``complex128`` entries;
this module supplies the multilinear pieces numpy does not ship directly
(tensor products of many factors, partial trace, tolerance-aware checks)
plus the orthonormal Pauli-string basis used for real vectorization.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .gates import PAULI_X, PAULI_Y, PAULI_Z


class DimensionMismatchError(ValueError):
    """Operator shapes are incompatible with the requested operation."""


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator of a stack
    (the last two axes)."""
    return np.asarray(op).conj().swapaxes(-1, -2)


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, left to right."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(op: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Parameters
    ----------
    op : ndarray
        Square matrix on the full product space.
    dims : sequence of int
        Factor dimensions; their product must match ``op``.
    keep : int or sequence of int
        Indices (into ``dims``) of the factors to keep, in original order.
    """
    dims = [int(d) for d in dims]
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(int(k) for k in keep)
    total = int(np.prod(dims))
    op = np.asarray(op, dtype=complex)
    if op.shape != (total, total):
        raise DimensionMismatchError(f"operator shape {op.shape} != product of dims {dims}")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    reshaped = op.reshape(dims + dims)
    # Row/col axes of traced factors are contracted pairwise.
    traced = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(traced):
        axis = i - offset
        reshaped = np.trace(reshaped, axis1=axis, axis2=axis + (n - offset))
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reshaped.reshape(d_keep, d_keep)


def assert_psd(op: np.ndarray, tol: float, what: str) -> None:
    """Raise unless every eigenvalue of the Hermitian ``op`` is at least
    ``-tol``; eigenvalues in [-tol, 0) count as rounding residue."""
    low = np.linalg.eigvalsh(op).min(initial=0.0)
    if low < -tol:
        raise ValueError(f"{what} has negative eigenvalue {low:.3e} below -{tol:g}")


# ---------------------------------------------------------------------------
# Pauli-string basis and real vectorization of Hermitian operators
# ---------------------------------------------------------------------------

_PAULI_1Q = {"I": np.eye(2, dtype=complex), "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_strings(n_qubits: int) -> list[tuple[str, np.ndarray]]:
    """All 4**n Pauli strings on ``n_qubits`` qubits as (label, operator) pairs.

    Ordering is lexicographic over the alphabet I, X, Y, Z, so it is stable
    across runs and usable as a canonical basis order.
    """
    out = []
    for combo in itertools.product("IXYZ", repeat=n_qubits):
        label = "".join(combo)
        out.append((label, tensor(*[_PAULI_1Q[c] for c in combo])))
    return out


@lru_cache(maxsize=None)
def pauli_basis(n_qubits: int) -> np.ndarray:
    """The operators of ``pauli_strings(n_qubits)`` stacked once, in the same
    order, as one read-only ``(4**n, 2**n, 2**n)`` array."""
    stacked = np.array([pauli for _, pauli in pauli_strings(n_qubits)])
    stacked.flags.writeable = False
    return stacked


def pauli_vectorize(op: np.ndarray, paulis: np.ndarray) -> np.ndarray:
    """Expand a Hermitian operator, or a stack of them along leading axes,
    over the orthonormal Pauli basis.

    ``paulis`` is the ``pauli_basis`` stack.  The basis elements are Pauli
    strings divided by sqrt(d), so the map is an isometry: Hilbert-Schmidt
    inner products equal Euclidean dot products of the returned real
    vectors, one along the last axis per operator.
    """
    op = np.asarray(op, dtype=complex)
    # tr(P_k op) = sum_ij (P_k)_ij op_ji, for every string k at once.
    return np.einsum("kij,...ji->...k", paulis, op).real * (1.0 / np.sqrt(op.shape[-1]))
