"""The Kraus-stack kernels against the per-operator loops they replace, and
the once-per-object checks.

Each kernel must give the same bits as its loop: the reference loops below
are the earlier implementations, kept here as oracles.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import (
    ChoiState,
    DensityOperator,
    KrausChannel,
    apply_channel,
    build_frame,
    build_switch,
    channel_robustness,
    choi_of_channel,
    compose_channels,
    conditional_outputs,
    depolarizing_channel,
    measure_control,
    noisy_th_channel,
    qutrit_noisy_th_channel,
    unitary_channel,
    wigner_of_channel,
)
from magicswitch import channels, cli, experiments
from magicswitch._simplex import Starts
from magicswitch.channels import ChannelCompletenessError, apply_kraus, plus_density
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import T_GATE, plus_state
from magicswitch.linalg import DimensionMismatchError, tensor
from magicswitch.lp import solve_l1
from magicswitch.phasespace import wigner_of_operator

from conftest import apply_chunk_bytes, completeness_checks, grid_of, joint_input, random_density_matrix, spy

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def loop_apply(kraus_ops, matrix):
    out = np.zeros((kraus_ops[0].shape[0], kraus_ops[0].shape[0]), dtype=complex)
    for K in kraus_ops:
        out += K @ matrix @ K.conj().T
    return out


def loop_compose(outer, inner):
    return [O @ I for O in outer.kraus_ops for I in inner.kraus_ops]


def loop_choi(ch):
    d_in, d_out = ch.d_in, ch.d_out
    J = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for K in ch.kraus_ops:
        v = np.zeros(d_in * d_out, dtype=complex)
        for i in range(d_in):
            v[i * d_out : (i + 1) * d_out] = K[:, i]
        J += np.outer(v, v.conj())
    return J / d_in


def loop_switch(a, b):
    d = a.d_in
    ops = []
    for E in a.kraus_ops:
        for F in b.kraus_ops:
            op = np.zeros((2 * d, 2 * d), dtype=complex)
            op[:d, :d] = E @ F
            op[d:, d:] = F @ E
            ops.append(op)
    return ops


def loop_measure(matrix, sign):
    """The control projection, block by block from zero: (c_a* X_ab) c_b in
    the order (0, 0), (0, 1), (1, 0), (1, 1)."""
    d = matrix.shape[0] // 2
    ctrl = np.array([1.0, sign], dtype=complex) / np.sqrt(2)
    out = np.zeros((d, d), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            out += ctrl[a].conj() * matrix[a * d : (a + 1) * d, b * d : (b + 1) * d] * ctrl[b]
    return 0.5 * (out + out.conj().T)


def loop_wigner(ch, frame):
    """The Choi-route contraction, one (u, v) entry at a time."""
    n, d = frame.d**2, frame.d
    j4 = choi_of_channel(ch).matrix.reshape(d, d, d, d)
    wig = np.empty((n, n))
    for u in range(n):
        for v in range(n):
            entry = np.einsum("ji,ab,jbia->", frame.phase_points[u], frame.phase_points[v], j4)
            wig[v, u] = entry.real
    return wig


def loop_residual(ch):
    total = sum(K.conj().T @ K for K in ch.kraus_ops)
    return float(np.abs(total - np.eye(ch.d_in)).max())


# ---------------------------------------------------------------------------
# Random channels: k Kraus operators cut from a random (k d, d) isometry
# ---------------------------------------------------------------------------

def isometry_channel(d, k, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(q.reshape(k, d, d))


seeds = st.integers(0, 2**32 - 1)
kraus_counts = st.integers(1, 9)
qubit_or_qutrit = st.sampled_from([2, 3])


class TestKernelsMatchLoops:
    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds)
    def test_apply(self, d, k, k_other, seed):
        ch = isometry_channel(d, k, seed)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(apply_kraus(ch.kraus_ops, m), loop_apply(list(ch.kraus_ops), m))
        # The switch's (2d x 2d) stacks on a (2d x 2d) matrix, as
        # conditional_outputs applies them, alone and as a grid of three.
        m = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
        switched = build_switch(ch, isometry_channel(d, k_other, seed + 1)).kraus_ops
        assert np.array_equal(apply_kraus(switched, m), loop_apply(list(switched), m))
        grid = build_switch(depolarizing_channel(d, rng.uniform(0.0, 1.0, 3)), ch).kraus_ops
        got = apply_kraus(grid, m)
        assert got.shape == (3, 2 * d, 2 * d)
        assert all(np.array_equal(g, loop_apply(list(ops), m)) for g, ops in zip(got, grid))
        # One matrix maps through the channels; a stack of them is refused.
        with pytest.raises(DimensionMismatchError, match="one matrix"):
            apply_kraus(grid, np.stack([m] * 3))

    @pytest.mark.parametrize("zoo, d", [(noisy_th_channel, 2), (qutrit_noisy_th_channel, 3)])
    def test_apply_on_a_sweep_block(self, zoo, d):
        # A default sweep's switch block is applied a chunk of grid entries
        # at a time: every entry keeps the loop's bits.
        ch = zoo(np.linspace(0.0, 1.0, 101))
        grid = build_switch(ch, ch).kraus_ops
        m = joint_input(plus_density(d)).matrix
        assert grid.nbytes > 2 * apply_chunk_bytes()
        got = apply_kraus(grid, m)
        assert all(np.array_equal(g, loop_apply(list(ops), m)) for g, ops in zip(got, grid))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds)
    def test_compose(self, d, k_outer, k_inner, seed):
        outer, inner = isometry_channel(d, k_outer, seed), isometry_channel(d, k_inner, seed + 1)
        got = compose_channels(outer, inner).kraus_ops
        want = loop_compose(outer, inner)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # A grid composed with one channel, one channel with a grid, and two
        # grids, as sequential_t_channel and effective_t_channels compose:
        # each entry has the bits the loop gives it alone.
        rng = np.random.default_rng(seed)
        grid, other = (depolarizing_channel(d, rng.uniform(0.0, 1.0, 3)) for _ in range(2))
        entries = [KrausChannel(ops) for ops in grid.kraus_ops]
        others = [KrausChannel(ops) for ops in other.kraus_ops]
        for composed, pairs in (
            (compose_channels(grid, inner), [(e, inner) for e in entries]),
            (compose_channels(outer, grid), [(outer, e) for e in entries]),
            (compose_channels(grid, other), list(zip(entries, others))),
        ):
            assert composed.kraus_ops.shape[0] == 3
            for ops, (o, i) in zip(composed.kraus_ops, pairs):
                want = loop_compose(o, i)
                assert len(ops) == len(want) and all(np.array_equal(g, w) for g, w in zip(ops, want))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, seeds)
    def test_choi(self, d, k, seed):
        ch = isometry_channel(d, k, seed)
        assert np.array_equal(choi_of_channel(ch).matrix, loop_choi(ch))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, seeds)
    def test_completeness_residual(self, d, k, seed):
        ch = isometry_channel(d, k, seed)
        assert ch.completeness_residual() == loop_residual(ch)

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds)
    def test_switch(self, d, k_a, k_b, seed):
        a, b = isometry_channel(d, k_a, seed), isometry_channel(d, k_b, seed + 1)
        # The switch of (b, a) is the other order of the same pairs.
        for x, y in ((a, b), (b, a)):
            switched = build_switch(x, y)
            want = loop_switch(x, y)
            assert len(switched.kraus_ops) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(switched.kraus_ops, want))
            assert switched.completeness_residual() < 1e-9

    @PROPERTY
    @given(kraus_counts, seeds)
    def test_channel_wigner(self, k, seed):
        # The loop sums the one contraction the two matrix products replaced,
        # in another order, so the two agree to rounding, not to the bit.
        frame = build_frame(3)
        wig = wigner_of_channel(isometry_channel(3, k, seed), frame)
        assert np.abs(wig - loop_wigner(isometry_channel(3, k, seed), frame)).max() <= 1e-15
        assert np.abs(wig.sum(axis=0) - 1.0).max() < 1e-10

    @PROPERTY
    @given(st.sampled_from([3, 5, 7]), kraus_counts, seeds)
    def test_wigner_grid_entries_match_lone_calls(self, d, k, seed):
        frame = build_frame(d)
        lone = [isometry_channel(d, k, seed + i) for i in range(4)]
        grid = grid_of(KrausChannel, np.stack([ch.kraus_ops for ch in lone]))
        hermitian = grid.kraus_ops + grid.kraus_ops.conj().swapaxes(-1, -2)  # a (4, k) grid of operators
        wig, wig_ops = wigner_of_channel(grid, frame), wigner_of_operator(hermitian, frame)
        for i, ch in enumerate(lone):
            assert np.array_equal(wig[i], wigner_of_channel(ch, frame))
            for j in range(k):
                assert np.array_equal(wig_ops[i, j], wigner_of_operator(hermitian[i, j], frame))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds)
    def test_measure_control(self, d, k_a, k_b, seed):
        a, b = isometry_channel(d, k_a, seed), isometry_channel(d, k_b, seed + 1)
        rho = DensityOperator(random_density_matrix(d, np.random.default_rng(seed)))
        out = apply_channel(build_switch(a, b), joint_input(rho))
        for outcome, sign in (("plus", 1.0), ("minus", -1.0)):
            assert np.array_equal(measure_control(out, outcome)[0].matrix, loop_measure(out.matrix, sign))


class TestApplyMemory:
    """``apply_kraus`` forms its products a chunk of grid entries at a time,
    so what it holds at once is its output and a few chunks, whatever the
    grid's length.  numpy reports its array memory to tracemalloc."""

    @staticmethod
    def traced_apply(n):
        """The output of ``apply_kraus`` on figs1's switch block of ``n``
        noise values, and the most traced bytes the call held at once."""
        ch = qutrit_noisy_th_channel(np.linspace(0.01, 1.0, n))
        grid, m = build_switch(ch, ch).kraus_ops, joint_input(plus_density(3)).matrix
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = apply_kraus(grid, m)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_on_the_default_figs1_block(self):
        # figs1's default grid has 100 points; the block's K_i M alone is
        # 921,600 bytes, which forming them all at once would hold.
        out, peak = self.traced_apply(100)
        assert peak <= out.nbytes + 4 * apply_chunk_bytes()

    def test_peak_grows_by_the_output_alone(self):
        small, small_peak = self.traced_apply(100)
        large, large_peak = self.traced_apply(1000)
        # The slack is for the loop's chunk offsets: ints above 256 are
        # fresh objects, a few dozen bytes each, where 100 entries' are cached.
        assert large_peak - small_peak <= large.nbytes - small.nbytes + 1024


class TestSwitchBranches:
    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds, st.floats(0.01, 1.0))
    def test_branches_match_the_sliced_output(self, d, k_a, k_b, seed, scale):
        # The switch output R on |+><+| (x) rho, built by the loops, sliced
        # into its control blocks: the branches are (R00 +- R01 +- R10 + R11)/2.
        a, b = isometry_channel(d, k_a, seed), isometry_channel(d, k_b, seed + 1)
        rho = DensityOperator(scale * random_density_matrix(d, np.random.default_rng(seed)))
        plus = np.outer(plus_state(2), plus_state(2).conj())
        R = loop_apply(loop_switch(a, b), tensor(plus, rho.matrix))
        blocks = [[R[i * d : (i + 1) * d, j * d : (j + 1) * d] for j in (0, 1)] for i in (0, 1)]
        rho_plus, rho_minus, p_plus, p_minus = conditional_outputs(build_switch(a, b), rho)
        for branch, prob, sign in ((rho_plus, p_plus, 1), (rho_minus, p_minus, -1)):
            assert np.array_equal(branch.matrix, branch.matrix.conj().T)
            assert prob == branch.trace
            want = (blocks[0][0] + sign * (blocks[0][1] + blocks[1][0]) + blocks[1][1]) / 2
            assert np.abs(branch.matrix - want).max() <= 1e-14
        assert abs(p_plus + p_minus - rho.trace) <= 1e-12


class TestDerivedStates:
    """Derived states, Choi states and channels skip the constructors'
    checks; these properties stand in for them."""

    @staticmethod
    def assert_fresh(derived, source):
        array = derived.kraus_ops if isinstance(derived, KrausChannel) else derived.matrix
        assert not array.flags.writeable
        assert not np.shares_memory(array, source)

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds, st.floats(0.01, 1.0))
    def test_derived_objects_pass_the_public_checks(self, d, k_a, k_b, seed, scale):
        a, b = isometry_channel(d, k_a, seed), isometry_channel(d, k_b, seed + 1)
        rho = DensityOperator(scale * random_density_matrix(d, np.random.default_rng(seed)))
        states = []
        out = apply_channel(a, rho)
        self.assert_fresh(out, rho.matrix)
        states.append(out)
        joint = joint_input(rho)
        self.assert_fresh(joint, rho.matrix)
        states.append(joint)
        switched = apply_channel(build_switch(a, b), joint)
        for outcome in ("plus", "minus"):
            branch, _ = measure_control(switched, outcome)
            self.assert_fresh(branch, switched.matrix)
            states.append(branch)
        for state in list(states):
            renorm, factor = state.renormalized()
            if factor != 1.0:
                self.assert_fresh(renorm, state.matrix)
                states.append(renorm)
        for state in states:
            DensityOperator(state.matrix)
        J = choi_of_channel(a)
        assert not J.matrix.flags.writeable
        ChoiState(J.matrix, J.d_in, J.d_out)

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds, st.floats(0.0, 1.0))
    def test_derived_channels_pass_the_public_check(self, d, k_a, k_b, seed, p):
        a, b = isometry_channel(d, k_a, seed), isometry_channel(d, k_b, seed + 1)
        zoo = qutrit_noisy_th_channel(p) if d == 3 else noisy_th_channel(p)
        p_max = d * d / (d * d - 1)
        for ch in (
            compose_channels(a, b),
            build_switch(a, b),
            depolarizing_channel(d, p * p_max),
            zoo,
            build_switch(zoo, depolarizing_channel(d, p)),
        ):
            self.assert_fresh(ch, a.kraus_ops)
            KrausChannel(ch.kraus_ops)


# ---------------------------------------------------------------------------
# One stack per channel, checked once
# ---------------------------------------------------------------------------

class TestCheckedOnce:
    def test_residual_computed_once_per_public_channel(self, monkeypatch, tmp_path):
        # A channel derived from checked channels, or written down complete
        # by a zoo formula, is complete by construction: only the public
        # constructor sums the operators, once per channel it builds.
        seen = completeness_checks(monkeypatch)
        a, b = qutrit_noisy_th_channel(0.3), noisy_th_channel(0.6)
        noise = depolarizing_channel(2, 0.4)
        derived = [compose_channels(noise, b), build_switch(b, noise), build_switch(a, a)]
        choi_of_channel(derived[-1])
        wigner_of_channel(a, build_frame(3))
        assert seen == []
        public = [KrausChannel(a.kraus_ops), unitary_channel(T_GATE), KrausChannel(tuple(b.kraus_ops))]
        assert len(seen) == len(public) and all(call.args[0] is ch.kraus_ops for call, ch in zip(seen, public))
        seen.clear()
        out = tmp_path / "fig2.csv"
        assert cli.main(["-q", "fig2", "--grid", "0:0.1:0.01", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 12
        assert seen == []

    def test_incomplete_channel_raises_everywhere(self):
        # Refused where it enters the package, in any form it comes in.
        bad = 0.5 * qutrit_noisy_th_channel(0.3).kraus_ops
        for ops in (bad, tuple(bad), list(bad)):
            with pytest.raises(ChannelCompletenessError, match="exceeds"):
                KrausChannel(ops)

    def test_stack_is_read_only_copy(self):
        ops = np.stack([np.eye(2, dtype=complex)])
        ch = KrausChannel(ops)
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 2.0
        ops[0, 0, 0] = 2.0  # the caller's array is not the channel's
        assert ch.kraus_ops[0, 0, 0] == 1.0

    def test_tuple_input_and_shape(self):
        ch = KrausChannel((np.eye(3), np.zeros((3, 3))))
        assert ch.kraus_ops.shape == (2, 3, 3) and ch.kraus_ops.dtype == complex
        assert (ch.d_out, ch.d_in) == (3, 3) and len(ch.kraus_ops) == 2
        assert [K.shape for K in ch.kraus_ops] == [(3, 3), (3, 3)]
        rect = KrausChannel((np.eye(3, 2),))  # an isometry from C^2 into C^3
        assert (rect.d_out, rect.d_in) == (3, 2)
        with pytest.raises(DimensionMismatchError):
            KrausChannel(np.eye(2))  # one matrix, not a stack of them
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(np.zeros((0, 2, 2)))

    def test_switch_of_channels_at_the_completeness_bound(self, choi_atoms):
        # Each factor's residual, 6e-10, passes the constructor; a channel
        # built from two of them has their sum, 1.2e-9, which is not a
        # reason to refuse it, its Choi state or its robustness.
        a = KrausChannel([np.sqrt(1 + 0.6e-9) * np.eye(2)])
        switched = build_switch(a, a)
        assert switched.completeness_residual() > DEFAULT_TOL.completeness
        choi_of_channel(switched)
        _, _, p_plus, p_minus = conditional_outputs(switched, plus_density(2))
        assert abs(p_plus + p_minus - 1.0) < 1e-8
        twice = compose_channels(a, a)
        assert twice.completeness_residual() > DEFAULT_TOL.completeness
        sol = channel_robustness(twice, choi_atoms)
        assert sol.status == "optimal" and abs(sol.value - 1.0) < 1e-8

    @pytest.mark.parametrize("eps", [1e-10, 4e-10])
    def test_traceless_completeness_defect_keeps_the_robustness(self, choi_atoms, eps):
        # Amplitude damping with K1 off by eps: sum K^dag K - I is
        # diag(0, 2 eps sqrt(gamma)), which passes the constructor and has a
        # traceless part.  That part is the Choi components P (x) I, whose
        # rows the marginal rows imply and the program leaves out, so it
        # does not reach the LP: a tolerated defect, not an infeasible LP.
        gamma = 0.3
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
        exact = channel_robustness(KrausChannel([k0, [[0.0, np.sqrt(gamma)], [0.0, 0.0]]]), choi_atoms)
        defective = KrausChannel([k0, [[0.0, np.sqrt(gamma) + eps], [0.0, 0.0]]])
        assert 10 * DEFAULT_TOL.primal < defective.completeness_residual() <= DEFAULT_TOL.completeness
        sol = channel_robustness(defective, choi_atoms)
        assert sol.status == exact.status == "optimal"
        assert abs(sol.value - exact.value) < 1e-8

    def test_traceless_completeness_defect_keeps_the_basis(self, choi_atoms):
        # Such a defect does not reach the LP, so a walk over gamma reads
        # every LP but the first, which starts cold, off the basis before
        # it.
        starts, reused = None, 0
        for gamma in np.linspace(0.1, 0.5, 41):
            k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
            channel = KrausChannel([k0, [[0.0, np.sqrt(gamma) + 1e-10], [0.0, 0.0]]])
            A, b = channel_robustness(channel, choi_atoms).standard_form
            sol = solve_l1(A, b, starts)
            assert sol.status == "optimal"
            reused += sol.iterations == 0
            starts = Starts(A, np.ones(A.shape[1]), (sol.warm_start,))
        assert reused >= 40

    def test_warm_sweeps_run_no_eigenvalue_check(self, monkeypatch):
        # Every state and Choi state of a sweep is derived from checked
        # inputs; only the cached |+> inputs are checked, on first use.
        configs = [experiments.default_config(name, stop=0.05) for name in ("fig2", "fig3", "figs1")]
        for config in configs:
            experiments.run_experiment(config)
        calls = spy(monkeypatch, channels, "assert_psd")
        for config in configs:
            assert experiments.run_experiment(config)
        assert calls == []

    def test_plus_input_built_once_per_sweep(self, monkeypatch):
        # Control (qubit) and target (qutrit) inputs, each built once for
        # the process; a sweep then builds no |+> state at all.
        plus_density(2), plus_density(3)
        calls = spy(monkeypatch, channels.DensityOperator, "pure")
        experiments.run_experiment(experiments.default_config("figs1", stop=0.05))
        assert calls == []
        assert plus_density(3) is plus_density(3)
