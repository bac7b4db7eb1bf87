import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import (
    DensityOperator,
    KrausChannel,
    apply_channel,
    channel_robustness,
    choi_of_channel,
    compose_channels,
    cspo_choi_atoms,
    depolarizing_channel,
    noisy_th_channel,
    rom_state,
    unitary_channel,
)
from magicswitch import experiments
from magicswitch._simplex import STATUS_OPTIMAL, SimplexResult, Starts, solve_standard_form
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, T_GATE, plus_state
from magicswitch.linalg import DimensionMismatchError, partial_trace, pauli_basis, pauli_vectorize
from magicswitch.lp import _assemble_standard_form, _channel_constraints, _state_constraints, solve_l1
from magicswitch.stabilizers import StabilizerDictionary

from conftest import (PHASE_S, assert_entries_are_lone_calls, channel_program, clear_program_caches,
                      extend_with_reference, fig2_fig3_channels, grid_of, pivots_by_caller, random_density_matrix,
                      random_kraus_channel, state_program)

SQRT2 = np.sqrt(2.0)


def exhaustive_rom(rho_matrix, dictionary, tol=1e-9):
    """Independent oracle for qubit robustness: an optimal basic solution
    uses at most dim(=4) signed atoms, so enumerate all 4-column bases of
    the signed atom matrix and keep the best feasible one."""
    paulis = pauli_basis(dictionary.n_qubits)
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

    def test_infeasible_entry_mid_block(self, rng):
        # An infeasible right-hand side between feasible ones in one block
        # reads NaN with no basis, and every entry, it too, is its lone
        # call: from no start (cold), and from the basis of the first entry.
        atoms = rng.normal(size=(3, 2))
        A = _assemble_standard_form(atoms, np.zeros((1, 3)))
        feasible = [np.concatenate([atoms[0] + shift, [0.0, 0.0]]) for shift in (0.0, 0.01, 0.02, 0.03)]
        bad = np.concatenate([atoms[0], [1.0, 0.0]])
        block = np.array([*feasible[:2], bad, *feasible[2:]])
        start = solve_l1(A, feasible[0]).warm_start
        for starts in (None, Starts(A, np.ones(A.shape[1]), (start,))):
            solved = solve_l1(A, block, starts)
            assert solved.status == ["optimal", "optimal", "infeasible", "optimal", "optimal"]
            assert np.isnan([solved.value[2], solved.residual[2], solved.dual_gap[2], solved.dual_violation[2]]).all()
            assert np.isnan(solved.plus[2]).all() and np.isnan(solved.minus[2]).all()
            assert solved.warm_start[2] is None
            assert_entries_are_lone_calls(solved, starts)
        assert solved.iterations[0] == 0 and solved.warm_start[0] is start

    @pytest.mark.parametrize("certificate, record", [
        ("residual", ([2.0, 0.0], 1.0, [1.0])),
        ("dual_gap", ([1.0, 0.0], 2.0, [1.0])),
        ("dual_violation", ([1.0, 0.0], 2.0, [2.0])),
    ])
    def test_an_optimal_entry_past_a_certificate_reads_check_failed(self, monkeypatch, certificate, record):
        # min x0 + x1 subject to x0 - x1 = 1 has the optimum x = (1, 0),
        # y = 1, with every certificate 0.  Each record is off it by 1 in
        # one certificate alone: x off the row, the value off b.y, or y
        # past the unit costs.
        A, b = _assemble_standard_form(np.array([[1.0]])), np.array([1.0])
        certificates = ["residual", "dual_gap", "dual_violation"]
        good, block = solve_l1(A, b), solve_l1(A, np.array([b, b]))
        assert good.status == "optimal" and [getattr(good, name) for name in certificates] == [0.0] * 3
        # A solution rebuilt with dataclasses.replace decides its status again.
        tol = DEFAULT_TOL.lp_residual
        assert replace(good, **{certificate: tol}).status == "optimal"
        assert replace(good, **{certificate: 10 * tol}).status == "check_failed"
        assert replace(block, **{certificate: np.array([0.0, 10 * tol])}).status == ["optimal", "check_failed"]
        # A pivoted entry keeps the simplex's record as it stands.
        x, objective, dual = record
        result = SimplexResult(STATUS_OPTIMAL, np.array(x), objective, np.array(dual), 1)
        monkeypatch.setattr("magicswitch.lp.solve_standard_form", lambda *args: result)
        lone, block = solve_l1(A, b), solve_l1(A, np.array([b, b]))
        assert lone.status == "check_failed" and block.status == ["check_failed"] * 2
        for name in certificates:
            assert getattr(lone, name) == (name == certificate)
            assert (getattr(block, name) == (name == certificate)).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_is_refused(self, rng, bad):
        # Checked before any solve, in a lone right-hand side or in any
        # entry of a block.
        atoms = rng.normal(size=(5, 4))
        A, b = _assemble_standard_form(atoms), atoms[2].copy()
        b[1] = bad
        for rhs in (b, np.array([atoms[0], b])):
            with pytest.raises(ValueError, match="^LP right-hand side is not finite$"):
                solve_l1(A, rhs)

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
        scaled = DensityOperator(0.37 * mat)
        sol = rom_state(scaled, qubit_dict)
        ref = rom_state(DensityOperator(mat), qubit_dict)
        assert abs(sol.value - ref.value) < 1e-9
        assert abs(sol.renorm_factor - 0.37) < 1e-9

    def test_state_of_another_dimension_is_refused(self, qubit_dict):
        with pytest.raises(DimensionMismatchError, match=r"^state dim 4 != dictionary dim 2$"):
            rom_state(DensityOperator.maximally_mixed(4), qubit_dict)

    def test_state_outside_the_span_of_the_dictionary_is_refused(self):
        # |0><0| and |1><1| span the diagonal operators alone, so no
        # combination of them is the valid state |+><+|.
        diagonal = StabilizerDictionary(1, tuple(np.diag(row).astype(complex) for row in np.eye(2)), ("+Z", "-Z"))
        with pytest.raises(ValueError) as refused:
            rom_state(DensityOperator.pure(plus_state(2)), diagonal)
        assert str(refused.value) == (
            "robustness LP infeasible: the state lies outside the linear span of the dictionary's projectors"
        )

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
        # Noisy TH at 0, 0.2 and 0.4 is read off a reference start with no
        # pivot.  The same right-hand sides solved cold, and H T, which no
        # reference serves, are solved by pivots.
        for p in (0.0, 0.2, 0.4):
            sol = channel_robustness(noisy_th_channel(p), choi_atoms)
            cold = solve_l1(*sol.standard_form)
            assert sol.iterations == 0 and cold.iterations > 2
            for s in (sol, cold):
                assert s.dual_gap < 1e-8
                assert 0.0 <= s.dual_violation < 1e-8
                assert s.warm_start.basis.shape == (19,)
                assert s.warm_start.inverse.shape == (19, 19) and not s.warm_start.inverse.flags.writeable
        sol = channel_robustness(unitary_channel(HADAMARD @ T_GATE), choi_atoms)
        assert sol.iterations > 2 and sol.dual_gap < 1e-8 and 0.0 <= sol.dual_violation < 1e-8
        assert sol.warm_start.basis.shape == (19,)
        assert sol.warm_start.inverse.shape == (19, 19) and not sol.warm_start.inverse.flags.writeable


def reference_state_lp(rho, dictionary):
    """Reference: the state program assembled per solve in plain numpy,
    the way ``rom_state`` built it before its constraint matrix was cached.
    Returns (A, b)."""
    paulis = pauli_basis(dictionary.n_qubits)
    atoms = np.array([pauli_vectorize(P, paulis) for P in dictionary.projectors])
    return np.hstack([atoms.T, -atoms.T]), pauli_vectorize(rho.matrix, paulis)


# The reconstruction rows X (x) I, Y (x) I and Z (x) I of the channel program,
# which its marginal rows imply.
IMPLIED_CHOI_ROWS = [4, 8, 12]


def reference_channel_lp(ch, choi_atoms, left_out=IMPLIED_CHOI_ROWS):
    """Reference: the channel program assembled per solve in plain numpy:
    the Choi reconstruction rows but ``left_out``, then for each of X, Y, Z
    one marginal row over the plus columns and one over the minus columns.
    Returns (A, b)."""
    paulis = pauli_basis(2)
    atoms = np.array([pauli_vectorize(a.projector, paulis) for a in choi_atoms])
    atoms = np.delete(atoms, left_out, axis=1)
    zeros = np.zeros(len(choi_atoms))
    rows = [np.hstack([atoms.T, -atoms.T])]
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        row = np.array([np.trace(pauli @ a.marginal).real for a in choi_atoms])
        rows += [np.concatenate([row, zeros])[None], np.concatenate([zeros, row])[None]]
    target = np.delete(pauli_vectorize(choi_of_channel(ch).matrix, paulis), left_out)
    return np.vstack(rows), np.concatenate([target, np.zeros(6)])


def assert_same_solution(got, want):
    assert got.value == want.value and got.iterations == want.iterations
    for field in ("plus", "minus"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    for got_part, want_part in zip(got.warm_start, want.warm_start):
        assert np.array_equal(got_part, want_part)
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
        assert np.array_equal(channel_program(choi_atoms)[0], A)
        for dictionary in (qubit_dict, twoq_dict):
            A, _ = reference_state_lp(DensityOperator.maximally_mixed(dictionary.dim), dictionary)
            assert np.array_equal(state_program(dictionary)[0], A)

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.3, 0.6])
    def test_channel_solve_matches_per_problem_assembly(self, choi_atoms, p):
        ch = noisy_th_channel(p)
        got = channel_robustness(ch, choi_atoms)
        starts = channel_program(choi_atoms)[1]
        assert_same_solution(got, solve_l1(*reference_channel_lp(ch, choi_atoms), starts))

    def test_state_solve_matches_per_problem_assembly(self, qubit_dict, rng):
        starts = state_program(qubit_dict)[1]
        for _ in range(5):
            rho = DensityOperator(random_density_matrix(2, rng))
            assert_same_solution(rom_state(rho, qubit_dict), solve_l1(*reference_state_lp(rho, qubit_dict), starts))


class TestFullRowRank:
    """Both programs have full row rank: the channel program leaves out the
    three reconstruction rows its marginal rows imply."""

    def test_constraint_matrices_have_full_row_rank(self, qubit_dict, twoq_dict, choi_atoms):
        for A, _ in (state_program(qubit_dict), state_program(twoq_dict), channel_program(choi_atoms)):
            assert np.linalg.matrix_rank(A) == A.shape[0]
        assert channel_program(choi_atoms)[0].shape == (19, 120)

    def test_left_out_rows_are_half_the_marginal_difference(self, choi_atoms):
        # Rebuilt in full, the program has 22 rows of rank 19: the Choi row
        # of P (x) I is half the plus side's P marginal row minus half the
        # minus side's, for each of X, Y, Z.
        full, _ = reference_channel_lp(unitary_channel(np.eye(2)), choi_atoms, left_out=[])
        for i, k in enumerate(IMPLIED_CHOI_ROWS):
            assert np.abs(full[k] - 0.5 * (full[16 + 2 * i] - full[17 + 2 * i])).max() <= 1e-15
        assert full.shape == (22, 120) and np.linalg.matrix_rank(full) == 19


def same_outcome(got, want):
    """Equal status, iterations and value (NaN where neither is optimal)."""
    return (got.status, got.iterations) == (want.status, want.iterations) and np.array_equal(
        got.value, want.value, equal_nan=True)


class TestReferenceStarts:
    """A caller that holds no basis starts from its program's reference
    starts: the optimal bases at fixed right-hand sides of the same program,
    which stay dual feasible at every right-hand side."""

    def test_starts_are_the_cold_optima_at_the_references(self, qubit_dict, twoq_dict, choi_atoms):
        # In the order they are tried: both ends of the T gate behind two
        # depolarizing passes on fig3's grid, and of noisy TH, then fig3's
        # minus branch, composed as the sweep composes them: the closed-form
        # Choi matrix in the table reaches the same start, bit for bit.  The
        # qubit state program's references are I/2, then the eight T-type
        # states; the two-qubit one's is I/4.
        ends = (experiments.CHANNELS["depol-squared-t"](0.45), unitary_channel(T_GATE), noisy_th_channel(1.0),
                noisy_th_channel(0.0), experiments.CHANNELS["switch-minus-t"](0.3))
        programs = [(channel_program(choi_atoms), [reference_channel_lp(ch, choi_atoms)[1] for ch in ends])]
        t_type = [DensityOperator((np.eye(2) + (x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / np.sqrt(3)) / 2)
                  for x, y, z in itertools.product((-1, 1), repeat=3)]
        for dictionary, magic in ((qubit_dict, t_type), (twoq_dict, [])):
            states = [DensityOperator.maximally_mixed(dictionary.dim), *magic]
            programs.append((state_program(dictionary), [reference_state_lp(rho, dictionary)[1] for rho in states]))
        for (A, starts), references in programs:
            assert isinstance(starts, Starts)
            assert len(starts) == len(references)
            for b, start in zip(references, starts):
                cold = solve_l1(A, b)
                assert np.array_equal(cold.warm_start.basis, start.basis)
                assert np.array_equal(cold.warm_start.inverse, start.inverse)
                assert not (start.basis.flags.writeable or start.inverse.flags.writeable)

    def test_each_call_starts_from_the_references(self, qubit_dict, choi_atoms):
        # rom_state and channel_robustness start from their program's
        # reference starts; solve_l1 knows no program, and with no starts
        # solves cold.
        rho = DensityOperator.pure(T_GATE @ plus_state(2))
        no_basis = rom_state(rho, qubit_dict)
        A, starts = state_program(qubit_dict)
        assert_same_solution(no_basis, solve_l1(A, no_basis.standard_form[1], starts))
        ch = noisy_th_channel(0.2)
        no_basis = channel_robustness(ch, choi_atoms)
        A, starts = channel_program(choi_atoms)
        assert_same_solution(no_basis, solve_l1(A, no_basis.standard_form[1], starts))
        assert solve_l1(A, no_basis.standard_form[1]).iterations > no_basis.iterations

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4), th_weight=st.sampled_from([0.0, 0.5, 1.0]))
    def test_channel_matches_the_cold_solve(self, choi_atoms, seed, n_ops, th_weight):
        # A random channel mixed with a noisy TH channel: at weight 1 a
        # channel the references mostly serve, at weight 0 one they mostly
        # do not.
        rng = np.random.default_rng(seed)
        th = noisy_th_channel(rng.uniform(0.0, 1.0)).kraus_ops
        ops = np.concatenate([np.sqrt(1 - th_weight) * random_kraus_channel(2, n_ops, rng).kraus_ops,
                              np.sqrt(th_weight) * th])
        sol = channel_robustness(KrausChannel(ops), choi_atoms)
        A, b = sol.standard_form
        cold = solve_standard_form(A, b, np.ones(A.shape[1]))
        assert sol.status == "optimal" and abs(sol.value - cold.objective) <= 1e-12
        assert max(sol.residual, sol.dual_gap, sol.dual_violation) <= DEFAULT_TOL.lp_residual

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 2), mixed_weight=st.sampled_from([0.0, 0.5, 0.9]))
    def test_state_matches_the_cold_solve(self, qubit_dict, seed, rank, mixed_weight):
        rng = np.random.default_rng(seed)
        rho = (1 - mixed_weight) * random_density_matrix(2, rng, rank=rank) + mixed_weight * np.eye(2) / 2
        sol = rom_state(DensityOperator(rho), qubit_dict)
        A, b = sol.standard_form
        cold = solve_standard_form(A, b, np.ones(A.shape[1]))
        assert sol.status == "optimal" and abs(sol.value - cold.objective) <= 1e-12
        assert max(sol.residual, sol.dual_gap, sol.dual_violation) <= DEFAULT_TOL.lp_residual

    def test_served_and_unserved_channels(self, choi_atoms, reference_starts):
        # Noisy TH at 0.5 is read off the measure-and-prepare reference with
        # no pivot, the T gate and fig3's minus branch each off its own; H T
        # is served by none of the references and pivots.
        served = channel_robustness(noisy_th_channel(0.5), choi_atoms)
        assert served.iterations == 0 and served.warm_start is reference_starts[2]
        served = channel_robustness(unitary_channel(T_GATE), choi_atoms)
        assert served.iterations == 0 and served.warm_start is reference_starts[1]
        served = channel_robustness(experiments.CHANNELS["switch-minus-t"](0.3), choi_atoms)
        assert served.iterations == 0 and served.warm_start is reference_starts[4]
        unserved = channel_robustness(unitary_channel(HADAMARD @ T_GATE), choi_atoms)
        assert unserved.iterations > 0 and all(unserved.warm_start is not s for s in reference_starts)
        assert abs(unserved.value - SQRT2) <= 1e-12

    def test_lone_calls_on_the_families_make_no_pivot(self, monkeypatch, choi_atoms, reference_starts):
        # The references sit at both ends of each family's scored range: a
        # lone call anywhere on fig2's grid of noisy TH, or on fig3's grid of
        # the T gate behind sequential or switched (plus branch) depolarizing
        # noise, is read off one of them.
        fig3 = experiments.default_config("fig3").grid()
        families = ((noisy_th_channel, experiments.default_config("fig2").grid()),
                    (experiments.CHANNELS["depol-squared-t"], fig3), (experiments.CHANNELS["switch-plus-t"], fig3))
        for family, grid in families:
            for p in grid:
                sol, pivots = pivots_by_caller(monkeypatch, lambda: channel_robustness(family(p), choi_atoms))
                assert not pivots and sol.iterations == 0 and sol.status == "optimal", p

    def test_each_entry_of_a_block_is_read_off_the_first_start_that_serves_it(self, choi_atoms, reference_starts):
        # Noisy TH at 0.2 is read off the T H reference.  At 0.4, past the
        # crossing, that basis no longer serves, but the measure-and-prepare
        # reference, tried before it, does: neither entry pivots.
        walk = channel_robustness(noisy_th_channel(np.array([0.2, 0.4])), choi_atoms)
        assert walk.iterations.tolist() == [0, 0]
        assert walk.warm_start[0] is reference_starts[3] and walk.warm_start[1] is reference_starts[2]
        assert abs(walk.value[0] - 1.6 * SQRT2 / 2) <= 1e-12 and abs(walk.value[1] - 1.0) <= 1e-12

    def test_fewer_dual_pivots_than_cold_on_the_sweep_channels(self, monkeypatch, choi_atoms, reference_starts):
        # 23 noisy TH channels on [0.05, 0.6] and 23 T gates behind two
        # depolarizing passes on [0.05, 0.45]: each takes fewer dual pivots
        # from the references than from the all-artificial basis.
        channels = ([noisy_th_channel(p) for p in np.linspace(0.05, 0.6, 23)]
                    + [experiments.CHANNELS["depol-squared-t"](p) for p in np.linspace(0.05, 0.45, 23)])
        totals = [0, 0]
        for ch in channels:
            sol, pivots = pivots_by_caller(monkeypatch, lambda: channel_robustness(ch, choi_atoms))
            cold, cold_pivots = pivots_by_caller(monkeypatch, lambda: solve_l1(*sol.standard_form))
            assert pivots["dual_pivot_loop"] < cold_pivots["dual_pivot_loop"]
            assert abs(sol.value - cold.value) <= 1e-12
            totals[0] += pivots["dual_pivot_loop"]
            totals[1] += cold_pivots["dual_pivot_loop"]
        assert 5 * totals[0] < totals[1]

    def test_two_calls_in_either_order_are_bit_identical(self, qubit_dict, choi_atoms):
        # The references depend on the atom set alone, not on which call
        # builds them, so neither call's solution depends on the other: a
        # channel read off a reference or one that pivots, in either order.
        channels = (noisy_th_channel(0.2), unitary_channel(HADAMARD @ T_GATE))
        states = (DensityOperator.pure(T_GATE @ plus_state(2)), DensityOperator.maximally_mixed(2))
        runs = []
        for order in (slice(None), slice(None, None, -1)):
            clear_program_caches()
            runs.append(([channel_robustness(ch, choi_atoms) for ch in channels[order]][order],
                         [rom_state(rho, qubit_dict) for rho in states[order]][order]))
        for got, want in zip(sum(runs[0], []), sum(runs[1], [])):
            assert_same_solution(got, want)

    def test_a_foreign_atom_set_keeps_only_the_references_it_solves(self, choi_atoms):
        # The first half of the atoms solve two of the four references; the
        # second half solve none, so a solve over them starts cold, as
        # solve_l1 with no basis does.
        for atoms, kept in ((choi_atoms[:30], 2), (choi_atoms[30:], 0)):
            A, starts = channel_program(atoms)
            assert len(starts) == kept
            for ch in (unitary_channel(T_GATE), unitary_channel(np.eye(2))):
                got = channel_robustness(ch, atoms)
                assert same_outcome(got, solve_l1(A, got.standard_form[1], starts))
                if not starts:
                    assert same_outcome(got, solve_l1(A, got.standard_form[1]))


def test_an_off_family_block_is_its_lone_calls(monkeypatch, choi_atoms, reference_starts):
    # The 51 channels (cos t I - i sin t X) T, t in [0, 0.5], lie off both
    # channel families, so few of them are read off a reference.  Nothing
    # passes from one entry of a block to the next: each entry is its lone
    # call, bit for bit, and the block makes the pivots of the lone calls.
    t = np.linspace(0.0, 0.5, 51)[:, None, None]
    gates = (np.cos(t) * np.eye(2) - 1j * np.sin(t) * PAULI_X) @ T_GATE
    block, pivots = pivots_by_caller(monkeypatch, lambda: channel_robustness(grid_of(KrausChannel, gates[:, None]),
                                                                             choi_atoms))
    assert block.status == ["optimal"] * 51
    assert_entries_are_lone_calls(block, channel_program(choi_atoms)[1])
    lone_pivots = 0
    for k, gate in enumerate(gates):
        alone, lone = pivots_by_caller(monkeypatch, lambda: channel_robustness(unitary_channel(gate), choi_atoms))
        assert abs(block.value[k] - alone.value) <= 1e-12, k
        lone_pivots += sum(lone.values())
    assert sum(pivots.values()) == lone_pivots and 0 < block.iterations.sum()


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), n_ops=st.integers(1, 3))
def test_random_blocks_are_their_lone_calls(qubit_dict, choi_atoms, seed, size, n_ops):
    # Random qubit states and Kraus channels, each mixed with a state or a
    # channel the references serve by a weight of 0, 0.5 or 1, so that
    # entries read off a reference and entries that pivot mix in a block.
    rng = np.random.default_rng(seed)
    weights = rng.choice([0.0, 0.5, 1.0], size=size)
    states = [(1 - w) * random_density_matrix(2, rng, rank=1) + w * np.eye(2) / 2 for w in weights]
    solution = rom_state(grid_of(DensityOperator, np.array(states)), qubit_dict)
    assert_entries_are_lone_calls(solution, state_program(qubit_dict)[1])
    ops = [np.concatenate([np.sqrt(1 - w) * random_kraus_channel(2, n_ops, rng).kraus_ops,
                           np.sqrt(w) * noisy_th_channel(rng.uniform(0.0, 1.0)).kraus_ops]) for w in weights]
    solution = channel_robustness(grid_of(KrausChannel, np.array(ops)), choi_atoms)
    assert_entries_are_lone_calls(solution, channel_program(choi_atoms)[1])


def test_program_caches_keep_a_bounded_number_of_atom_sets(qubit_dict, twoq_dict, choi_atoms):
    # The two program caches and the Choi atom cache are keyed by the
    # identity of a dictionary or an atom set, so equal ones built apart
    # are apart in them; each keeps at most a fixed number.  A program
    # built again for an equal set is the same program: each value equals
    # the canonical set's bit for bit.  The canonical sets are used on
    # every round, so they stay cached.
    caches = (_state_constraints, _channel_constraints, cspo_choi_atoms)
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    rng = np.random.default_rng(11)
    states = grid_of(DensityOperator, np.array([random_density_matrix(2, rng, rank=r) for r in (1, 2, 1, 2)]))
    channel = noisy_th_channel(np.array([0.1, 0.4, 0.8]))
    for _ in range(max(cache.cache_info().maxsize for cache in caches) + 2):
        qubit = StabilizerDictionary(qubit_dict.n_qubits, qubit_dict.projectors, qubit_dict.labels)
        twoq = StabilizerDictionary(twoq_dict.n_qubits, twoq_dict.projectors, twoq_dict.labels)
        assert np.array_equal(rom_state(states, qubit).value, rom_state(states, qubit_dict).value)
        assert np.array_equal(channel_robustness(channel, cspo_choi_atoms(twoq)).value,
                              channel_robustness(channel, cspo_choi_atoms(twoq_dict)).value)
        assert all(cache.cache_info().currsize <= cache.cache_info().maxsize for cache in caches)
    assert all(cache.cache_info().currsize == cache.cache_info().maxsize for cache in caches)
    assert cspo_choi_atoms(twoq_dict) is choi_atoms


# ---------------------------------------------------------------------------
# Clifford covariance (Seddon & Campbell 2019): a Clifford permutes the
# stabilizer atoms, so it cannot change a robustness.  The oracle shares no
# code with the solver; each dressed LP is given the optimal basis of a
# neighbouring LP as its one start, so the reused-basis path is under the
# oracle too.
# ---------------------------------------------------------------------------

def single_qubit_cliffords():
    """The 24 single-qubit Cliffords up to a global phase: the closure of
    {H, S} under products, each scaled to a real positive first nonzero
    entry."""
    def phase_fixed(u):
        lead = u.flat[np.flatnonzero(np.abs(u) > 1e-9)[0]]
        return u * (abs(lead) / lead)

    group, frontier = [np.eye(2, dtype=complex)], [np.eye(2, dtype=complex)]
    while frontier:
        grown = []
        for u in frontier:
            for g in (HADAMARD, PHASE_S):
                v = phase_fixed(g @ u)
                if not any(np.allclose(v, w, atol=1e-12) for w in group):
                    group.append(v)
                    grown.append(v)
        frontier = grown
    return group


CLIFFORDS = single_qubit_cliffords()

# How far a neighbouring problem is mixed toward the maximally mixed state
# or the identity channel.
NEIGHBOUR_MIX = 1e-3


def test_there_are_24_cliffords():
    assert len(CLIFFORDS) == 24
    for u in CLIFFORDS:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rom_state_is_clifford_invariant(qubit_dict, seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(2, rng, rank=int(rng.integers(1, 3)))
    near = (1 - NEIGHBOUR_MIX) * rho + NEIGHBOUR_MIX * np.eye(2) / 2
    base = rom_state(DensityOperator(rho), qubit_dict).value
    reused = 0
    for u in CLIFFORDS:
        start = rom_state(DensityOperator(u @ near @ u.conj().T), qubit_dict).warm_start
        A, b = rom_state(DensityOperator(u @ rho @ u.conj().T), qubit_dict).standard_form
        sol = solve_l1(A, b, Starts(A, np.ones(A.shape[1]), (start,)))
        assert sol.status == "optimal" and abs(sol.value - base) <= 1e-9
        reused += sol.iterations == 0
    assert reused >= len(CLIFFORDS) // 2


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pre=st.integers(0, 23), post=st.integers(0, 23))
def test_channel_robustness_is_clifford_invariant(choi_atoms, seed, pre, post):
    # Pre- and post-composing Clifford unitaries keeps the CSPO atom set.
    rng = np.random.default_rng(seed)
    ch = random_kraus_channel(2, int(rng.integers(1, 4)), rng)
    near = KrausChannel(np.concatenate([
        np.sqrt(1 - NEIGHBOUR_MIX) * ch.kraus_ops, [np.sqrt(NEIGHBOUR_MIX) * np.eye(2)]
    ]))

    def dressed(c):
        inner = compose_channels(c, unitary_channel(CLIFFORDS[pre]))
        return compose_channels(unitary_channel(CLIFFORDS[post]), inner)

    base = channel_robustness(ch, choi_atoms)
    start = channel_robustness(dressed(near), choi_atoms).warm_start
    A, b = channel_robustness(dressed(ch), choi_atoms).standard_form
    sol = solve_l1(A, b, Starts(A, np.ones(A.shape[1]), (start,)))
    assert base.status == sol.status == "optimal"
    assert abs(sol.value - base.value) <= 1e-9


# ---------------------------------------------------------------------------
# Laws of the robustness monotones (Howard & Campbell 2017; Seddon &
# Campbell 2019), on seeded random qubit channels and one- and two-qubit
# states.  No reference start serves such a channel, so each channel LP is
# solved from the all-artificial basis.  Each law holds to lp_residual.
# ---------------------------------------------------------------------------

def random_channel_and_state(seed):
    """A seeded random qubit Kraus channel (1-3 operators) and a random
    qubit state of rank 1 or 2."""
    rng = np.random.default_rng(seed)
    return random_kraus_channel(2, int(rng.integers(1, 4)), rng), random_density_matrix(2, rng, int(rng.integers(1, 3)))


def certified_value(solution):
    assert solution.status == "optimal"
    return solution.value


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_channel_robustness_is_submultiplicative(choi_atoms, seed):
    # R(E o F) <= R(E) R(F): the stabilizer-preserving decompositions of E
    # and F compose to one of E o F.
    (outer, _), (inner, _) = random_channel_and_state(seed), random_channel_and_state(seed + 1)
    composed = certified_value(channel_robustness(compose_channels(outer, inner), choi_atoms))
    product = certified_value(channel_robustness(outer, choi_atoms)) * certified_value(
        channel_robustness(inner, choi_atoms))
    assert composed <= product + DEFAULT_TOL.lp_residual


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_robustness_of_an_output_state_is_at_most_the_product(qubit_dict, choi_atoms, seed):
    # R(E(rho)) <= R(E) R(rho): a stabilizer-preserving channel maps each
    # stabilizer state of rho's decomposition to a stabilizer state.
    channel, rho = random_channel_and_state(seed)
    output = certified_value(rom_state(apply_channel(channel, DensityOperator(rho)), qubit_dict))
    product = certified_value(channel_robustness(channel, choi_atoms)) * certified_value(
        rom_state(DensityOperator(rho), qubit_dict))
    assert output <= product + DEFAULT_TOL.lp_residual


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_mixture_of_cliffords_is_free(choi_atoms, seed):
    # A random mixture of the 24 single-qubit Cliffords is stabilizer
    # preserving, so its robustness is 1.
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(CLIFFORDS)))
    mixture = KrausChannel(np.sqrt(weights)[:, None, None] * np.array(CLIFFORDS))
    assert abs(certified_value(channel_robustness(mixture, choi_atoms)) - 1.0) <= DEFAULT_TOL.lp_residual


@pytest.mark.parametrize("n_qubits", [1, 2])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rom_state_is_convex(qubit_dict, twoq_dict, n_qubits, seed):
    # R(p rho + (1 - p) sigma) <= p R(rho) + (1 - p) R(sigma): the optimal
    # decompositions of rho and sigma, mixed, decompose the mixture.
    dictionary, d = {1: (qubit_dict, 2), 2: (twoq_dict, 4)}[n_qubits]
    rng = np.random.default_rng(seed)
    rho, sigma = (random_density_matrix(d, rng, int(rng.integers(1, d + 1))) for _ in range(2))
    p = rng.uniform()
    mixed, first, second = (certified_value(rom_state(DensityOperator(matrix), dictionary))
                            for matrix in (p * rho + (1 - p) * sigma, rho, sigma))
    assert mixed <= p * first + (1 - p) * second + DEFAULT_TOL.lp_residual


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_channel_robustness_is_convex(choi_atoms, seed):
    # R(p E + (1 - p) F) <= p R(E) + (1 - p) R(F): the Kraus operators of E
    # and F, weighted by sqrt(p) and sqrt(1 - p), are those of the mixture,
    # whose Choi matrix is the mixture of theirs.
    (first, _), (second, _) = random_channel_and_state(seed), random_channel_and_state(seed + 1)
    p = np.random.default_rng(seed).uniform()
    mixture = KrausChannel(np.concatenate([np.sqrt(p) * first.kraus_ops, np.sqrt(1 - p) * second.kraus_ops]))
    mixed = certified_value(channel_robustness(mixture, choi_atoms))
    bound = p * certified_value(channel_robustness(first, choi_atoms)) + (1 - p) * certified_value(
        channel_robustness(second, choi_atoms))
    assert mixed <= bound + DEFAULT_TOL.lp_residual
