import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import (
    DensityOperator,
    KrausChannel,
    apply_channel,
    build_switch,
    channel_robustness,
    conditional_outputs,
    depolarizing_channel,
    effective_t_channels,
    noisy_th_channel,
    qutrit_noisy_th_channel,
    unitary_channel,
)
from magicswitch import qswitch
from magicswitch.channels import ChannelCompletenessError, apply_kraus
from magicswitch.config import DEFAULT_TOL
from magicswitch.experiments import default_config, run_experiment
from magicswitch.gates import HADAMARD, T_GATE, basis_state, plus_state
from magicswitch.linalg import DimensionMismatchError, partial_trace, tensor
from magicswitch.qswitch import EffectiveDepolarizingSwitch

from conftest import (clear_joint_inputs, depolarizing_switch_closed_form, random_density_matrix, random_kraus_channel,
                      spy)


def both_order_average(a, b, rho):
    """Oracle for the incoherent-control marginal: (a.b + b.a)/2 on rho."""
    ab = apply_kraus(a.kraus_ops, apply_kraus(b.kraus_ops, rho))
    ba = apply_kraus(b.kraus_ops, apply_kraus(a.kraus_ops, rho))
    return 0.5 * (ab + ba)


def interference_branch(kraus_ops, psi):
    """Oracle for the plus branch on a pure target with a plus control:
    sum_i |a_ii><a_ii| + (1/2) sum_{i != j} (|a_ij><a_ij| + |a_ij><a_ji|)
    with a_ij = K_i K_j |psi>."""
    n = len(kraus_ops)
    alpha = {(i, j): kraus_ops[i] @ kraus_ops[j] @ psi for i in range(n) for j in range(n)}
    d = len(psi)
    out = np.zeros((d, d), dtype=complex)
    for i in range(n):
        out += np.outer(alpha[i, i], alpha[i, i].conj())
    for i in range(n):
        for j in range(n):
            if i != j:
                out += 0.5 * (
                    np.outer(alpha[i, j], alpha[i, j].conj())
                    + np.outer(alpha[i, j], alpha[j, i].conj())
                )
    return out


def kron_switch_kraus(a, b):
    """Reference: |0><0|_c (x) E F + |1><1|_c (x) F E, built with kron."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return [tensor(p0, E @ F) + tensor(p1, F @ E) for E in a.kraus_ops for F in b.kraus_ops]


class TestBuildSwitch:
    def test_identity_inner_channels(self, rng):
        switched = build_switch(unitary_channel(np.eye(2)), unitary_channel(np.eye(2)))
        joint = DensityOperator(
            tensor(random_density_matrix(2, rng), random_density_matrix(2, rng))
        )
        out = apply_channel(switched, joint)
        assert np.abs(out.matrix - joint.matrix).max() < 1e-12

    def test_kraus_construction_equation(self, rng):
        # build_switch writes the two orders into diagonal blocks; it must
        # equal the kron form of the defining equation entry for entry.
        pairs = [
            (noisy_th_channel(0.3), noisy_th_channel(0.7)),
            (random_kraus_channel(2, 3, rng), random_kraus_channel(2, 2, rng)),
            (qutrit_noisy_th_channel(0.4), qutrit_noisy_th_channel(0.1)),
            (random_kraus_channel(3, 2, rng), random_kraus_channel(3, 3, rng)),
        ]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                switched = build_switch(x, y)
                expected = kron_switch_kraus(x, y)
                assert len(switched.kraus_ops) == len(expected)
                for got, want in zip(switched.kraus_ops, expected):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)

    def test_completeness(self, rng):
        for d in (2, 3):
            a = random_kraus_channel(d, 3, rng)
            b = random_kraus_channel(d, 2, rng)
            switched = build_switch(a, b)
            assert switched.completeness_residual() < 1e-9

    def test_definite_order_branches(self, rng):
        t, h = unitary_channel(T_GATE), unitary_channel(HADAMARD)
        rho = random_density_matrix(2, rng)
        # Swapping the arguments swaps the orders the two branches apply.
        for switched, zero_branch, one_branch in (
            (build_switch(t, h), T_GATE @ HADAMARD, HADAMARD @ T_GATE),
            (build_switch(h, t), HADAMARD @ T_GATE, T_GATE @ HADAMARD),
        ):
            for ctrl_vec, first_then_second in (
                (basis_state(2, 0), zero_branch),   # |0> branch: second argument first
                (basis_state(2, 1), one_branch),    # |1> branch: first argument first
            ):
                joint = apply_kraus(switched.kraus_ops, tensor(np.outer(ctrl_vec, ctrl_vec.conj()), rho))
                target = partial_trace(joint, [2, 2], keep=1)
                expected = first_then_second @ rho @ first_then_second.conj().T
                assert np.abs(target - expected).max() < 1e-12

    def test_incoherent_control_marginal(self, rng):
        for d in (2, 3):
            a = random_kraus_channel(d, 2, rng)
            b = random_kraus_channel(d, 3, rng)
            switched = build_switch(a, b)
            rho = random_density_matrix(d, rng)
            plus = np.outer(plus_state(2), plus_state(2).conj())
            out = apply_kraus(switched.kraus_ops, tensor(plus, rho))
            marginal = partial_trace(out, [2, d], keep=1)
            assert np.abs(marginal - both_order_average(a, b, rho)).max() < 1e-10

    def test_rejects_mismatched_and_incomplete(self):
        with pytest.raises(DimensionMismatchError):
            build_switch(unitary_channel(np.eye(2)), unitary_channel(np.eye(3)))
        with pytest.raises(ChannelCompletenessError):
            build_switch(KrausChannel((0.5 * np.eye(2),)), unitary_channel(np.eye(2)))
        # Complete, from a qubit to a one-dimensional output.
        rectangular = KrausChannel(([[1, 0]], [[0, 1]]))
        with pytest.raises(DimensionMismatchError, match="^switch requires square inner channels$"):
            build_switch(rectangular, rectangular)


class TestConditionalOutputs:
    def test_identity_channels_pass_plus_through(self):
        switched = build_switch(unitary_channel(np.eye(2)), unitary_channel(np.eye(2)))
        target = DensityOperator.pure(plus_state(2))
        rho_plus, rho_minus, p_plus, p_minus = conditional_outputs(switched, target)
        assert abs(p_plus - 1.0) < 1e-12
        assert abs(p_minus) < 1e-12
        assert np.abs(rho_plus.matrix - target.matrix).max() < 1e-12

    def test_matches_interference_oracle(self):
        for p in (0.15, 0.45, 0.8):
            ch = noisy_th_channel(p)
            switched = build_switch(ch, ch)
            rho_plus, _, p_plus, p_minus = conditional_outputs(
                switched, DensityOperator.pure(plus_state(2))
            )
            expected = interference_branch(ch.kraus_ops, plus_state(2))
            assert np.abs(rho_plus.matrix - expected).max() < 1e-12
            assert abs(p_plus + p_minus - 1.0) < 1e-10

    def test_probabilities_sum_on_random_inputs(self, rng):
        ch = random_kraus_channel(3, 2, rng)
        switched = build_switch(ch, ch)
        target = DensityOperator(random_density_matrix(3, rng))
        _, _, p_plus, p_minus = conditional_outputs(switched, target)
        assert abs(p_plus + p_minus - 1.0) < 1e-10

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]), n_a=st.integers(1, 4), n_b=st.integers(1, 4))
    def test_kraus_freedom(self, seed, d, n_a, n_b):
        # The switch is a supermap of the channels, not of their Kraus
        # operators (Chiribella, D'Ariano, Perinotti & Valiron, PRA 88,
        # 022318 (2013)): mixing each channel's operators by a Haar unitary,
        # K'_i = sum_j U_ij K_j, leaves both branches and both probabilities
        # as they were, to a few ulps of the unit input trace, which bounds
        # every entry.
        rng = np.random.default_rng(seed)
        a, b = random_kraus_channel(d, n_a, rng), random_kraus_channel(d, n_b, rng)
        target = DensityOperator(random_density_matrix(d, rng))

        def mixed(channel):
            n = len(channel.kraus_ops)
            q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            haar = q * (np.diag(r) / np.abs(np.diag(r)))
            return KrausChannel(np.einsum("ij,jkl->ikl", haar, channel.kraus_ops))

        want = conditional_outputs(build_switch(a, b), target)
        got = conditional_outputs(build_switch(mixed(a), mixed(b)), target)
        tol = 8 * np.finfo(np.float64).eps
        for branch in range(2):
            assert np.abs(got[branch].matrix - want[branch].matrix).max() <= tol
            assert abs(got[2 + branch] - want[2 + branch]) <= tol

    def test_target_validation(self):
        switched = build_switch(unitary_channel(np.eye(2)), unitary_channel(np.eye(2)))
        with pytest.raises(DimensionMismatchError):
            conditional_outputs(switched, DensityOperator.maximally_mixed(3))

    def test_joint_input_formed_once_per_target(self, monkeypatch):
        calls = spy(monkeypatch, qswitch, "tensor")
        clear_joint_inputs()
        run_experiment(default_config("figs1", stop=0.05))
        assert [len(call.args) for call in calls] == [2]


class TestClosedForm:
    def test_noiseless_limit(self, rng):
        rho = DensityOperator(random_density_matrix(2, rng))
        plus, minus = depolarizing_switch_closed_form(2, 0.0, rho)
        assert np.abs(plus.matrix - rho.matrix).max() < 1e-12
        assert np.abs(minus.matrix).max() < 1e-12

    def test_frozen_values_at_full_noise(self):
        # Direct evaluation of the effective-strength formulas at d=2, p=1.
        eff = EffectiveDepolarizingSwitch.from_noise(2, 1.0)
        assert abs(eff.p_plus - 4 / 5) < 1e-12
        assert abs(eff.weight_minus - 3 / 8) < 1e-12
        assert abs(eff.weight_plus + eff.weight_minus - 1.0) < 1e-12

    def test_plus_branch_beats_sequential(self):
        eff = EffectiveDepolarizingSwitch.from_noise(2, 0.2)
        assert eff.p_plus < 2 * 0.2 - 0.2**2
        for d in (2, 3, 5, 10):
            for p in np.linspace(0.01, 1.0, 25):
                eff = EffectiveDepolarizingSwitch.from_noise(d, p)
                assert eff.p_plus < eff.sequential_strength()
                assert eff.factored_identity_residual() < 1e-12

    def test_minus_strength_independent_of_p(self):
        vals = {EffectiveDepolarizingSwitch.from_noise(3, p).p_minus for p in (0.1, 0.5, 0.9)}
        assert vals == {9 / 8}

    @pytest.mark.parametrize("bad", [1.5, math.nan], ids=["above-1", "nan"])
    def test_noise_out_of_range_names_the_first_bad_entry(self, bad):
        # One line naming the bad entry, not the whole array.
        p = np.linspace(0.0, 1.0, 40)
        p[17] = bad
        with pytest.raises(ValueError, match=rf"^noise strength p={bad} outside \[0, 1\]$"):
            EffectiveDepolarizingSwitch.from_noise(3, p)

    @pytest.mark.parametrize("d", [2.5, 3.0, 1, np.int64(1)], ids=["2.5", "3.0", "1", "int64-1"])
    def test_dimension_must_be_an_integer_of_at_least_2(self, d):
        # A 2.5-dimensional system would otherwise report the strict inequality.
        with pytest.raises(ValueError, match=rf"^dimension d={d} must be an integer of at least 2$"):
            EffectiveDepolarizingSwitch.from_noise(d, 0.3)
        three = EffectiveDepolarizingSwitch.from_noise(np.int64(3), 0.3)
        assert three == EffectiveDepolarizingSwitch.from_noise(3, 0.3)

    def test_huge_dimension_endpoint(self):
        eff = EffectiveDepolarizingSwitch.from_noise(1000, 1.0)
        assert eff.p_plus - 1.0 < 0.0

    def test_matches_generic_switch(self, rng):
        for d in (2, 3):
            for p in (0.0, 0.35, 0.7, 1.0):
                noise = depolarizing_channel(d, p)
                switched = build_switch(noise, noise)
                for _ in range(3):
                    rho = DensityOperator(random_density_matrix(d, rng))
                    got_plus, got_minus, _, _ = conditional_outputs(switched, rho)
                    want_plus, want_minus = depolarizing_switch_closed_form(d, p, rho)
                    assert np.abs(got_plus.matrix - want_plus.matrix).max() < 1e-10
                    assert np.abs(got_minus.matrix - want_minus.matrix).max() < 1e-10

    def test_plus_branch_explicit_expression(self, rng):
        # The measured plus branch in expanded form:
        # (4p-3p^2)/(2d) I + (1 - 2p + p^2 + p^2/(2d^2)) rho.
        for d in (2, 3):
            p = 0.4
            noise = depolarizing_channel(d, p)
            rho = DensityOperator(random_density_matrix(d, rng))
            got_plus, _, _, _ = conditional_outputs(build_switch(noise, noise), rho)
            expected = (4 * p - 3 * p * p) / (2 * d) * np.eye(d) + (
                1 - 2 * p + p * p + p * p / (2 * d * d)
            ) * rho.matrix
            assert np.abs(got_plus.matrix - expected).max() < 1e-12


class TestEffectiveTChannels:
    def test_noiseless_plus_branch_is_t_gate(self, rng):
        branch_plus, branch_minus = effective_t_channels(0.0)
        assert abs(branch_plus.weight - 1.0) < 1e-12
        assert abs(branch_minus.weight) < 1e-12
        rho = DensityOperator(random_density_matrix(2, rng))
        out = apply_channel(branch_plus.channel, rho)
        expected = T_GATE @ rho.matrix @ T_GATE.conj().T
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_minus_branch_channel_is_p_independent(self):
        low = effective_t_channels(0.1)[1].channel
        high = effective_t_channels(0.4)[1].channel
        for a, b in zip(low.kraus_ops, high.kraus_ops):
            assert np.array_equal(a, b)

    def test_branches_are_complete_channels(self):
        for p in (0.0, 0.3, 1.0):
            for branch in effective_t_channels(p):
                assert branch.channel.completeness_residual() <= DEFAULT_TOL.completeness

    def test_plus_branch_robustness_exceeds_sequential_at_crossover(self, choi_atoms):
        # Between the two thresholds the sequential channel is free while
        # the plus branch still is not.
        from magicswitch import compose_channels

        p = 0.27
        noise = depolarizing_channel(2, p)
        seq = compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))
        assert abs(channel_robustness(seq, choi_atoms).value - 1.0) < 1e-6
        plus_val = channel_robustness(effective_t_channels(p)[0].channel, choi_atoms).value
        assert plus_val > 1.0 + 1e-6
