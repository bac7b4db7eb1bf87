import itertools

import numpy as np
import pytest

from magicswitch import (
    DensityOperator,
    apply_channel,
    channel_robustness,
    choi_of_channel,
    compose_channels,
    depolarizing_channel,
    noisy_th_channel,
    rom_state,
    unitary_channel,
)
from magicswitch import lp
from magicswitch.gates import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, T_GATE, plus_state
from magicswitch.linalg import partial_trace, pauli_strings, pauli_vectorize
from magicswitch.lp import _assemble_standard_form, solve_l1

from conftest import PHASE_S, extend_with_reference, fig2_fig3_channels, random_density_matrix

SQRT2 = np.sqrt(2.0)


def exhaustive_rom(rho_matrix, dictionary, tol=1e-9):
    """Independent oracle for qubit robustness: an optimal basic solution
    uses at most dim(=4) signed atoms, so enumerate all 4-column bases of
    the signed atom matrix and keep the best feasible one."""
    paulis = pauli_strings(dictionary.n_qubits)
    atom_vecs = np.array([pauli_vectorize(P, paulis) for P in dictionary.projectors])
    columns = np.vstack([atom_vecs, -atom_vecs]).T  # (4, 12)
    target = pauli_vectorize(rho_matrix, paulis)
    best = None
    for cols in itertools.combinations(range(columns.shape[1]), 4):
        sub = columns[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        weights = np.linalg.solve(sub, target)
        if weights.min() < -tol:
            continue
        value = weights.sum()
        if best is None or value < best:
            best = value
    return best


class TestSolveL1:
    def test_single_atom_target(self, rng):
        atoms = rng.normal(size=(5, 4))
        sol = solve_l1(_assemble_standard_form(atoms), atoms[2].copy())
        assert sol.status == "optimal"
        assert abs(sol.value - 1.0) < 1e-10
        assert (np.abs(sol.plus - sol.minus) > 1e-9).sum() == 1

    def test_convex_combination(self, rng):
        atoms = rng.normal(size=(6, 5))
        target = 0.5 * atoms[0] + 0.5 * atoms[3]
        sol = solve_l1(_assemble_standard_form(atoms), target)
        assert abs(sol.value - 1.0) < 1e-9

    def test_infeasible_marginal_right_hand_side(self, rng):
        # All-zero marginal rows cannot meet a nonzero right-hand side.
        atoms = rng.normal(size=(3, 2))
        A = _assemble_standard_form(atoms, np.zeros((1, 3)))
        sol = solve_l1(A, np.concatenate([atoms[0], [1.0, 0.0]]))
        assert sol.status == "infeasible"

    def test_deterministic(self, rng):
        atoms = rng.normal(size=(8, 4))
        target = rng.normal(size=4)
        a = solve_l1(_assemble_standard_form(atoms), target)
        b = solve_l1(_assemble_standard_form(atoms), target)
        assert a.value == b.value
        assert np.array_equal(a.plus, b.plus) and np.array_equal(a.minus, b.minus)


class TestStateRobustness:
    def test_t_state_value(self, qubit_dict):
        # Exhaustive basis search and the LP agree on sqrt(2).
        rho = DensityOperator.pure(T_GATE @ plus_state(2))
        oracle = exhaustive_rom(rho.matrix, qubit_dict)
        assert abs(oracle - SQRT2) < 1e-9
        sol = rom_state(rho, qubit_dict)
        assert sol.status == "optimal"
        assert abs(sol.value - SQRT2) < 1e-9
        assert sol.residual < 1e-7

    def test_matches_oracle_on_random_states(self, qubit_dict, rng):
        for _ in range(15):
            rho = random_density_matrix(2, rng)
            oracle = exhaustive_rom(rho, qubit_dict)
            sol = rom_state(DensityOperator(rho), qubit_dict)
            assert abs(sol.value - oracle) < 1e-7

    def test_faithful_on_atoms(self, qubit_dict, twoq_dict):
        for dct in (qubit_dict, twoq_dict):
            for proj in dct.projectors:
                sol = rom_state(DensityOperator(np.array(proj)), dct)
                assert abs(sol.value - 1.0) < 1e-7

    def test_faithful_on_random_mixtures(self, twoq_dict, rng):
        projs = twoq_dict.projectors
        for _ in range(10):
            weights = rng.dirichlet(np.ones(6))
            picks = rng.choice(len(projs), size=6, replace=False)
            mix = sum(w * projs[k] for w, k in zip(weights, picks))
            sol = rom_state(DensityOperator(mix), twoq_dict)
            assert abs(sol.value - 1.0) < 1e-7

    def test_clifford_invariance(self, qubit_dict, rng):
        cliffords = [HADAMARD, PHASE_S, HADAMARD @ PHASE_S @ HADAMARD]
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            base = rom_state(DensityOperator(rho), qubit_dict).value
            for u in cliffords:
                conj = u @ rho @ u.conj().T
                val = rom_state(DensityOperator(conj), qubit_dict).value
                assert abs(val - base) < 1e-7

    def test_renormalization_reported(self, qubit_dict, rng):
        mat = random_density_matrix(2, rng)
        scaled = DensityOperator(0.37 * mat, normalized=False)
        sol = rom_state(scaled, qubit_dict)
        ref = rom_state(DensityOperator(mat), qubit_dict)
        assert abs(sol.value - ref.value) < 1e-9
        assert abs(sol.renorm_factor - 0.37) < 1e-9

    def test_dual_gap_small(self, qubit_dict, rng):
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            sol = rom_state(DensityOperator(rho), qubit_dict)
            assert sol.dual_gap < 1e-8
            assert 0.0 <= sol.dual_violation < 1e-8


def highs_channel_robustness(ch, choi_atoms):
    """Independent oracle: the channel-robustness LP (Seddon & Campbell,
    Proc. R. Soc. A 475, 20190251, 2019) written over complex matrix
    entries and solved by HiGHS.  min sum(a + b) over a, b >= 0 with
    sum (a_i - b_i) atom_i = Choi(ch), and each side's reference marginal
    proportional to the identity."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    projectors = np.array([atom.projector for atom in choi_atoms]).reshape(len(choi_atoms), -1)
    marginals = np.array([atom.marginal for atom in choi_atoms])
    flat = np.vstack([projectors.real.T, projectors.imag.T])  # (32, n)
    target = choi_of_channel(ch).matrix.reshape(-1)
    b_choi = np.concatenate([target.real, target.imag])
    # Off-diagonal entry and diagonal difference of the marginal vanish.
    marg_rows = np.array([
        marginals[:, 0, 1].real,
        marginals[:, 0, 1].imag,
        (marginals[:, 0, 0] - marginals[:, 1, 1]).real,
    ])
    zeros = np.zeros_like(marg_rows)
    A_eq = np.vstack([
        np.hstack([flat, -flat]),
        np.hstack([marg_rows, zeros]),
        np.hstack([zeros, marg_rows]),
    ])
    b_eq = np.concatenate([b_choi, np.zeros(6)])
    n_cols = 2 * len(choi_atoms)
    result = linprog(np.ones(n_cols), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return result.fun


def test_channel_robustness_matches_highs(choi_atoms):
    for ch in fig2_fig3_channels():
        sol = channel_robustness(ch, choi_atoms)
        assert sol.status == "optimal"
        assert abs(sol.value - highs_channel_robustness(ch, choi_atoms)) < 1e-9


def test_qubit_rom_matches_closed_form(qubit_dict, rng):
    # Howard & Campbell, PRL 118, 090501 (2017): a qubit state with Bloch
    # vector r has robustness max(1, |r_x| + |r_y| + |r_z|).
    for _ in range(50):
        direction = rng.normal(size=3)
        r = direction / np.linalg.norm(direction) * rng.uniform() ** (1 / 3)
        rho = (np.eye(2) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2
        sol = rom_state(DensityOperator(rho), qubit_dict)
        assert abs(sol.value - max(1.0, np.abs(r).sum())) < 1e-9


class TestChannelRobustness:
    def test_clifford_channels_are_free(self, choi_atoms):
        for gate in (HADAMARD, PHASE_S, np.eye(2)):
            sol = channel_robustness(unitary_channel(gate), choi_atoms)
            assert abs(sol.value - 1.0) < 1e-6

    def test_t_gate_value(self, choi_atoms):
        # sqrt(2); the embedded simplex and an external solver agreed on
        # this figure during development.
        sol = channel_robustness(unitary_channel(T_GATE), choi_atoms)
        assert abs(sol.value - SQRT2) < 1e-9

    def test_noisy_th_low_noise_is_resourceful(self, choi_atoms):
        sol = channel_robustness(noisy_th_channel(0.1), choi_atoms)
        assert sol.value > 1.0 + 1e-6

    def test_zero_noise_equals_bare_t_gate(self, choi_atoms):
        # At p=0 the channel is the unitary T H; composing with the
        # Clifford H cannot change the robustness, so it matches T alone.
        th_val = channel_robustness(noisy_th_channel(0.0), choi_atoms).value
        t_val = channel_robustness(unitary_channel(T_GATE), choi_atoms).value
        assert th_val > 1.0 + 1e-6
        assert abs(th_val - t_val) < 1e-9

    def test_noisy_th_high_noise_is_free(self, choi_atoms):
        sol = channel_robustness(noisy_th_channel(0.5), choi_atoms)
        assert abs(sol.value - 1.0) < 1e-6

    def test_depolarized_t_at_threshold_edge(self, choi_atoms):
        noise = depolarizing_channel(2, 0.30)
        seq = compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))
        sol = channel_robustness(seq, choi_atoms)
        assert abs(sol.value - 1.0) < 1e-6

    def test_decomposition_structure(self, choi_atoms):
        # The split solution must rebuild the Choi state, keep each side's
        # marginal proportional to I/2, and price out at 1 + 2p.
        ch = noisy_th_channel(0.1)
        sol = channel_robustness(ch, choi_atoms)
        plus_side = sum(a * atom.projector for a, atom in zip(sol.plus, choi_atoms))
        minus_side = sum(bb * atom.projector for bb, atom in zip(sol.minus, choi_atoms))
        choi = choi_of_channel(ch)
        assert np.abs(plus_side - minus_side - choi.matrix).max() < 1e-7
        p_weight = sol.minus.sum()
        assert abs(sol.value - (1 + 2 * p_weight)) < 1e-9
        marg_plus = partial_trace(plus_side, [2, 2], keep=0)
        assert np.abs(marg_plus - (1 + p_weight) * np.eye(2) / 2).max() < 1e-7
        marg_minus = partial_trace(minus_side, [2, 2], keep=0)
        assert np.abs(marg_minus - p_weight * np.eye(2) / 2).max() < 1e-7

    def test_cspo_consistency_sample(self, qubit_dict, twoq_dict, choi_atoms, rng):
        # A channel with value 1 must keep reference-extended atoms free.
        ch = noisy_th_channel(0.5)
        assert abs(channel_robustness(ch, choi_atoms).value - 1.0) < 1e-6
        extended = extend_with_reference(ch, 2)
        picks = rng.choice(len(twoq_dict.projectors), size=10, replace=False)
        for k in picks:
            atom_state = DensityOperator(np.array(twoq_dict.projectors[k]))
            out = apply_channel(extended, atom_state)
            sol = rom_state(out, twoq_dict)
            assert abs(sol.value - 1.0) < 1e-7

    def test_dual_gap_small(self, choi_atoms):
        for p in (0.0, 0.2, 0.4):
            sol = channel_robustness(noisy_th_channel(p), choi_atoms)
            assert sol.dual_gap < 1e-8
            assert 0.0 <= sol.dual_violation < 1e-8
            assert sol.iterations > 2 and sol.basis.shape == (22,)


def reference_state_lp(rho, dictionary):
    """Reference: the state program assembled per solve in plain numpy,
    the way ``rom_state`` built it before its constraint matrix was cached.
    Returns (A, b)."""
    paulis = pauli_strings(dictionary.n_qubits)
    atoms = np.array([pauli_vectorize(P, paulis) for P in dictionary.projectors])
    return np.hstack([atoms.T, -atoms.T]), pauli_vectorize(rho.matrix, paulis)


def reference_channel_lp(ch, choi_atoms):
    """Reference: the channel program assembled per solve in plain numpy:
    the Choi reconstruction rows, then for each of X, Y, Z one marginal row
    over the plus columns and one over the minus columns.  Returns (A, b)."""
    paulis = pauli_strings(2)
    atoms = np.array([pauli_vectorize(a.projector, paulis) for a in choi_atoms])
    zeros = np.zeros(len(choi_atoms))
    rows = [np.hstack([atoms.T, -atoms.T])]
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        row = np.array([np.trace(pauli @ a.marginal).real for a in choi_atoms])
        rows += [np.concatenate([row, zeros])[None], np.concatenate([zeros, row])[None]]
    target = pauli_vectorize(choi_of_channel(ch).matrix, paulis)
    return np.vstack(rows), np.concatenate([target, np.zeros(6)])


def assert_same_solution(got, want):
    assert got.value == want.value and got.iterations == want.iterations
    for field in ("plus", "minus", "basis"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (got.residual, got.dual_gap, got.dual_violation) == (
        want.residual, want.dual_gap, want.dual_violation
    )


class TestConstraintCache:
    """The constraint matrix is assembled once per atom set; a solve builds
    only its right-hand side, and the results are bit-identical."""

    def test_channel_matrix_is_shared_and_read_only(self, choi_atoms):
        first = channel_robustness(noisy_th_channel(0.1), choi_atoms)
        second = channel_robustness(noisy_th_channel(0.4), choi_atoms)
        A = first.standard_form[0]
        assert second.standard_form[0] is A and not A.flags.writeable
        assert not np.array_equal(first.standard_form[1], second.standard_form[1])

    def test_state_matrix_is_shared_and_read_only(self, qubit_dict):
        first = rom_state(DensityOperator.pure(T_GATE @ plus_state(2)), qubit_dict)
        second = rom_state(DensityOperator.pure(plus_state(2)), qubit_dict)
        assert second.standard_form[0] is first.standard_form[0]
        assert not first.standard_form[0].flags.writeable

    def test_matrices_match_reference_assembly(self, qubit_dict, twoq_dict, choi_atoms):
        A, _ = reference_channel_lp(noisy_th_channel(0.2), choi_atoms)
        assert np.array_equal(lp._channel_constraints(choi_atoms), A)
        for dictionary in (qubit_dict, twoq_dict):
            A, _ = reference_state_lp(DensityOperator.maximally_mixed(dictionary.dim), dictionary)
            assert np.array_equal(lp._state_constraints(dictionary), A)

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.3, 0.6])
    def test_channel_solve_matches_per_problem_assembly(self, choi_atoms, p):
        ch = noisy_th_channel(p)
        got = channel_robustness(ch, choi_atoms)
        assert_same_solution(got, solve_l1(*reference_channel_lp(ch, choi_atoms)))

    def test_state_solve_matches_per_problem_assembly(self, qubit_dict, rng):
        for _ in range(5):
            rho = DensityOperator(random_density_matrix(2, rng))
            assert_same_solution(rom_state(rho, qubit_dict), solve_l1(*reference_state_lp(rho, qubit_dict)))
