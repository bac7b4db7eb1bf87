import numpy as np
import pytest

from magicswitch import DensityOperator, enumerate_stabilizer_states, rom_state
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, T_GATE, basis_state, plus_state
from magicswitch.linalg import DimensionMismatchError, partial_trace, pauli_strings, tensor
from magicswitch.stabilizers import cspo_choi_atoms

from conftest import CNOT_01, CNOT_10, PHASE_S, drop_a_generating_set, operators_close


def clifford_generators(n_qubits):
    if n_qubits == 1:
        return [HADAMARD, PHASE_S]
    eye = np.eye(2, dtype=complex)
    return [
        tensor(HADAMARD, eye),
        tensor(eye, HADAMARD),
        tensor(PHASE_S, eye),
        tensor(eye, PHASE_S),
        CNOT_01,
        CNOT_10,
    ]


def reference_orbit_dictionary(n_qubits):
    """Reference: the stabilizer states as the breadth-first orbit of
    |0..0><0..0| under the Clifford generators, de-duplicated to 1e-8, each
    labeled by its group members, found as the Pauli strings with overlap
    trace +-1, of which the n smallest by Pauli label generate it.  Returns
    (labels, projectors), sorted by label."""
    start = basis_state(2**n_qubits, 0)
    found = [np.outer(start, start.conj())]
    frontier = list(found)
    while frontier:
        fresh = []
        for proj in frontier:
            for g in clifford_generators(n_qubits):
                cand = g @ proj @ g.conj().T
                if not any(np.abs(cand - known).max() <= 1e-8 for known in found):
                    found.append(cand)
                    fresh.append(cand)
        frontier = fresh
    labeled = []
    for proj in found:
        members = []
        for label, pauli in pauli_strings(n_qubits)[1:]:
            coeff = np.trace(proj @ pauli).real
            if abs(abs(coeff) - 1.0) <= 1e-8:
                members.append(("+" if coeff > 0 else "-") + label)
        members.sort(key=lambda s: s[1:] + s[0])
        labeled.append((",".join(members[:n_qubits]), proj))
    labeled.sort(key=lambda pair: pair[0])
    return tuple(lbl for lbl, _ in labeled), tuple(proj for _, proj in labeled)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_matches_reference_orbit(n_qubits):
    labels, projectors = reference_orbit_dictionary(n_qubits)
    dictionary = enumerate_stabilizer_states(n_qubits)
    assert dictionary.labels == labels
    for got, want in zip(dictionary.projectors, projectors):
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_projectors_are_exact(n_qubits):
    # Built from Pauli matrices with dyadic arithmetic, so no rounding enters.
    for proj in enumerate_stabilizer_states(n_qubits).projectors:
        assert np.array_equal(proj @ proj, proj)
        assert np.array_equal(proj, proj.conj().T)
        assert np.trace(proj) == 1.0
        assert not proj.flags.writeable


def test_counts_match_closed_formula(qubit_dict, twoq_dict):
    # 2^n prod_{k<=n} (2^k + 1): 6 for one qubit, 60 for two.
    assert len(qubit_dict) == 6
    assert len(twoq_dict) == 60


def test_single_qubit_states_are_pauli_eigenstates(qubit_dict):
    expected = []
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        for sign in (1, -1):
            expected.append((np.eye(2) + sign * pauli) / 2)
    for exp in expected:
        assert any(np.array_equal(exp, p) for p in qubit_dict.projectors)


def test_projectors_are_rank_one_and_distinct(twoq_dict):
    for proj in twoq_dict.projectors:
        assert np.abs(proj @ proj - proj).max() < 1e-10
        assert abs(np.trace(proj).real - 1.0) < 1e-10
        assert np.abs(proj - proj.conj().T).max() < 1e-10
    projs = twoq_dict.projectors
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            assert np.abs(projs[i] - projs[j]).max() > 1e-8


def test_labels_are_sorted_and_unique(qubit_dict, twoq_dict):
    for dct in (qubit_dict, twoq_dict):
        assert list(dct.labels) == sorted(dct.labels)
        assert len(set(dct.labels)) == len(dct.labels)
    assert qubit_dict.labels == ("+X", "+Y", "+Z", "-X", "-Y", "-Z")


def test_dictionary_closed_under_clifford_generators(twoq_dict):
    for proj in twoq_dict.projectors:
        for g in clifford_generators(2):
            image = g @ proj @ g.conj().T
            assert any(np.abs(image - q).max() <= 1e-8 for q in twoq_dict.projectors)


def test_uniform_mixture_is_maximally_mixed(qubit_dict, twoq_dict):
    for dct in (qubit_dict, twoq_dict):
        avg = sum(dct.projectors) / len(dct)
        assert np.abs(avg - np.eye(dct.dim) / dct.dim).max() < 1e-12


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(3)


def test_enumeration_counts_its_states(monkeypatch):
    # One generating set short, the enumeration lacks its two sign choices.
    drop_a_generating_set(monkeypatch)
    with pytest.raises(RuntimeError, match="^enumerated 4 states, expected 6$"):
        enumerate_stabilizer_states.__wrapped__(1)  # past the cache, which keeps the full dictionary


def is_stabilizer_state(rho, dictionary, tol=DEFAULT_TOL.lp_value):
    """Membership through the robustness LP: free iff the value is 1."""
    solution = rom_state(rho, dictionary)
    assert solution.status == "optimal"
    return solution.value <= 1.0 + tol


def test_membership(qubit_dict):
    assert is_stabilizer_state(DensityOperator.pure(np.array([1, 0])), qubit_dict)
    assert is_stabilizer_state(DensityOperator.maximally_mixed(2), qubit_dict)
    t_state = DensityOperator.pure(T_GATE @ plus_state(2))
    assert not is_stabilizer_state(t_state, qubit_dict)


class TestChoiAtoms:
    def test_count_and_marginals(self, twoq_dict, choi_atoms):
        assert len(choi_atoms) == 60
        for atom in choi_atoms:
            expected = partial_trace(atom.projector, [2, 2], keep=0)
            assert operators_close(atom.marginal, expected, tol=1e-12)

    def test_known_marginals(self, choi_atoms):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        bell_proj = np.outer(bell, bell.conj())
        zero_proj = np.zeros((4, 4), dtype=complex)
        zero_proj[0, 0] = 1.0
        found_bell = found_zero = False
        for atom in choi_atoms:
            if operators_close(atom.projector, bell_proj, tol=1e-8):
                found_bell = True
                assert operators_close(atom.marginal, np.eye(2) / 2, tol=1e-10)
            if operators_close(atom.projector, zero_proj, tol=1e-8):
                found_zero = True
                assert operators_close(atom.marginal, np.diag([1.0, 0.0]), tol=1e-10)
        assert found_bell and found_zero

    def test_requires_two_qubit_dictionary(self, qubit_dict):
        with pytest.raises(DimensionMismatchError):
            cspo_choi_atoms(qubit_dict)
