import numpy as np
import pytest

from magicswitch.gates import PAULI_X, PAULI_Z, plus_state
from magicswitch.linalg import (
    DimensionMismatchError,
    dagger,
    partial_trace,
    pauli_basis,
    pauli_strings,
    pauli_vectorize,
    tensor,
)

from conftest import operators_close, random_density_matrix


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_three_factors():
    out = tensor(PAULI_X, np.eye(2), PAULI_Z)
    assert out.shape == (8, 8)
    assert operators_close(out, np.kron(PAULI_X, np.kron(np.eye(2), PAULI_Z)))


def test_partial_trace_product_state():
    plus = np.outer(plus_state(2), plus_state(2).conj())
    zero = np.diag([1.0, 0.0]).astype(complex)
    joint = tensor(plus, zero)
    assert operators_close(partial_trace(joint, [2, 2], keep=0), plus)
    assert operators_close(partial_trace(joint, [2, 2], keep=1), zero)


def test_partial_trace_scales_by_traced_trace(rng):
    a = random_density_matrix(2, rng)
    b = 3.7 * random_density_matrix(3, rng)
    joint = tensor(a, b)
    assert np.abs(partial_trace(joint, [2, 3], keep=0) - np.trace(b) * a).max() < 1e-10


def test_partial_trace_keep_both_and_none(rng):
    a = random_density_matrix(2, rng)
    b = random_density_matrix(2, rng)
    joint = tensor(a, b)
    assert operators_close(partial_trace(joint, [2, 2], keep=[0, 1]), joint)
    full = partial_trace(joint, [2, 2], keep=[])
    assert abs(full[0, 0] - np.trace(joint)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(6), [2, 2], keep=0)


def test_dagger():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)


def test_dagger_of_a_stack_is_the_dagger_of_each_operator(rng):
    # Only the last two axes swap: a stack, or a grid of stacks, keeps its
    # leading axes in order.
    ops = rng.normal(size=(3, 2, 4, 5)) + 1j * rng.normal(size=(3, 2, 4, 5))
    got = dagger(ops)
    assert got.shape == (3, 2, 5, 4)
    for index in np.ndindex(3, 2):
        assert np.array_equal(got[index], ops[index].conj().T)


def test_pauli_strings_counts_and_order():
    one = pauli_strings(1)
    two = pauli_strings(2)
    assert [lbl for lbl, _ in one] == ["I", "X", "Y", "Z"]
    assert len(two) == 16
    assert two[0][0] == "II" and two[-1][0] == "ZZ"


def test_pauli_vectorization_is_isometry(rng):
    # Hilbert-Schmidt inner products must equal dot products of the vectors.
    paulis = pauli_basis(2)
    for _ in range(20):
        a = random_density_matrix(4, rng) - np.eye(4) / 3
        b = random_density_matrix(4, rng)
        va, vb = pauli_vectorize(a, paulis), pauli_vectorize(b, paulis)
        hs = np.trace(a.conj().T @ b).real
        assert abs(hs - va @ vb) < 1e-12


def pauli_unvectorize(vec, paulis):
    """Inverse of ``pauli_vectorize``: sum_k vec_k P_k / sqrt(d)."""
    d = paulis[0][1].shape[0]
    out = np.zeros((d, d), dtype=complex)
    scale = 1.0 / np.sqrt(d)
    for coeff, (_, pauli) in zip(vec, paulis):
        out += coeff * scale * pauli
    return out


def test_pauli_vectorization_roundtrip(rng):
    m = random_density_matrix(2, rng)
    assert np.abs(pauli_unvectorize(pauli_vectorize(m, pauli_basis(1)), pauli_strings(1)) - m).max() < 1e-12


def trace_loop_vectorize(op, paulis):
    """Reference: one tr(P op) per Pauli string, the loop ``pauli_vectorize``
    replaced with a single contraction."""
    scale = 1.0 / np.sqrt(op.shape[0])
    return np.array([(np.trace(pauli @ op) * scale).real for _, pauli in paulis])


def test_pauli_vectorize_matches_trace_loop(rng):
    # The contraction sums in another order, so agreement is to rounding.
    for n_qubits in (1, 2):
        d = 2**n_qubits
        for _ in range(10):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            op = g + g.conj().T
            got = pauli_vectorize(op, pauli_basis(n_qubits))
            assert got.shape == (4**n_qubits,) and got.dtype == np.float64
            assert np.abs(got - trace_loop_vectorize(op, pauli_strings(n_qubits))).max() < 1e-14
