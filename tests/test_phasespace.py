from types import SimpleNamespace

import numpy as np
import pytest

from magicswitch import (
    DensityOperator,
    build_frame,
    compose_channels,
    depolarizing_channel,
    identity_channel,
    mana_channel,
    mana_state,
    unitary_channel,
    wigner_of_channel,
    wigner_of_state,
)
from magicswitch import choi_of_channel
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import fourier_gate, plus_state, qutrit_t_gate
from magicswitch.linalg import tensor
from magicswitch.phasespace import _choi_route_wigner, heisenberg_weyl_operators, wigner_of_operator

from conftest import random_density_matrix, random_kraus_channel


def qutrit_phase_s():
    omega = np.exp(2j * np.pi / 3)
    return np.diag([1.0, 1.0, omega]).astype(complex)


def wigner_of_choi(choi, frame_in, frame_out):
    """Plain two-system Wigner function of a Choi state (no transpose)."""
    d_in, d_out = frame_in.d, frame_out.d
    out = np.empty((d_in**2, d_out**2))
    for u in range(d_in**2):
        for v in range(d_out**2):
            val = np.trace(tensor(frame_in.phase_points[u], frame_out.phase_points[v]) @ choi.matrix)
            out[u, v] = (val / (d_in * d_out)).real
    return out


def is_cpwp(ch, frame, tol=DEFAULT_TOL.mana_zero):
    """Oracle: whether the channel completely preserves Wigner positivity,
    with the minimum conditional Wigner value the verdict thresholds on."""
    min_val = float(wigner_of_channel(ch, frame).min())
    return min_val >= -tol, min_val


def direct_channel_wigner(ch, frame):
    """Oracle: W(v|u) = Tr[A_v N(A_u)] / d, with N(A_u) summed over the
    Kraus operators one at a time."""
    n = frame.d**2
    out = np.empty((n, n))
    for u in range(n):
        image = sum(K @ frame.phase_points[u] @ K.conj().T for K in ch.kraus_ops)
        for v in range(n):
            out[v, u] = (np.trace(frame.phase_points[v] @ image) / frame.d).real
    return out


def reference_choi_route(choi, frame_in, frame_out):
    """Reference: W(v|u) = Tr[(A_u^T (x) A_v) J] d_in / d_out, one kron and
    trace per (u, v) pair."""
    d_in, d_out = frame_in.d, frame_out.d
    out = np.empty((d_out**2, d_in**2))
    for u in range(d_in**2):
        au_t = frame_in.phase_points[u].T
        for v in range(d_out**2):
            val = np.trace(tensor(au_t, frame_out.phase_points[v]) @ choi.matrix)
            out[v, u] = (val * d_in / d_out).real
    return out


class TestFrame:
    def test_rejects_even_and_composite(self):
        for d in (2, 4, 9, 15):
            with pytest.raises(ValueError):
                build_frame(d)

    def test_displacement_at_pure_boost_is_z(self, frame3):
        # At the point (1, 0) the phase prefactor is tau^0 = 1, so the
        # displacement operator is exactly the boost diag(omega^j).
        omega = np.exp(2j * np.pi / 3)
        boost = np.diag([omega**j for j in range(3)]).astype(complex)
        idx = frame3.points.index((1, 0))
        assert idx == 1 * 3 + 0  # row-major point order: a1 d + a2
        assert np.abs(frame3.heisenberg_weyl[idx] - boost).max() == 0.0

    def test_phase_point_properties(self, frame3):
        d = 3
        a_ops = frame3.phase_points
        for A in a_ops:
            assert np.abs(A - A.conj().T).max() < 1e-12          # hermitian
            assert abs(np.trace(A) - 1.0) < 1e-12                 # unit trace
        assert np.abs(a_ops.sum(axis=0) / d - np.eye(d)).max() < 1e-12
        gram = np.einsum("uij,vji->uv", a_ops, a_ops)
        assert np.abs(gram - d * np.eye(d * d)).max() < 1e-10

    def test_transpose_closure(self, frame3):
        for A in frame3.phase_points:
            assert any(np.abs(A.T - B).max() < 1e-10 for B in frame3.phase_points)

    def test_operator_reconstruction(self, frame3, rng):
        # X = sum_u W_X(u) A_u for any Hermitian X.
        for _ in range(10):
            herm = random_density_matrix(3, rng) - 0.4 * np.eye(3)
            wig = wigner_of_operator(herm, frame3)
            rebuilt = np.einsum("u,uij->ij", wig.reshape(-1), frame3.phase_points)
            assert np.abs(rebuilt - herm).max() < 1e-9

    def test_d5_frame_builds(self):
        frame = build_frame(5)
        assert np.abs(frame.phase_points.sum(axis=0) / 5 - np.eye(5)).max() < 1e-12

    def test_hw_operators_are_orthogonal_unitaries(self):
        ops = [op for _, op in heisenberg_weyl_operators(3)]
        for i, a in enumerate(ops):
            assert np.abs(a @ a.conj().T - np.eye(3)).max() < 1e-12
            for j, b in enumerate(ops):
                overlap = np.trace(a.conj().T @ b)
                assert abs(overlap - (3.0 if i == j else 0.0)) < 1e-10


class TestStateWigner:
    def test_maximally_mixed_is_flat(self, frame3):
        wig = wigner_of_state(DensityOperator.maximally_mixed(3), frame3)
        assert np.abs(wig - 1.0 / 9).max() < 1e-12

    def test_basis_state_nonnegative(self, frame3):
        wig = wigner_of_state(DensityOperator.pure(np.array([1, 0, 0])), frame3)
        assert wig.min() >= -1e-12
        assert abs(wig.sum() - 1.0) < 1e-10

    def test_double_th_pass_goes_negative(self, frame3):
        # One TH pass maps |+> to a computational basis state (free); the
        # second pass lands on T|+>, which carries negative Wigner mass.
        th = qutrit_t_gate() @ fourier_gate(3)
        single = wigner_of_state(DensityOperator.pure(th @ plus_state(3)), frame3)
        double = wigner_of_state(DensityOperator.pure(th @ th @ plus_state(3)), frame3)
        assert single.min() > -1e-12
        assert double.min() < -0.05

    def test_mana_zero_on_free_states(self, frame3):
        assert mana_state(DensityOperator.maximally_mixed(3), frame3) == 0.0
        for j in range(3):
            vec = np.zeros(3)
            vec[j] = 1.0
            assert mana_state(DensityOperator.pure(vec), frame3) == 0.0
        plus = DensityOperator.pure(plus_state(3))
        assert mana_state(plus, frame3) < 1e-12

    def test_mana_positive_on_t_state(self, frame3):
        t_plus = DensityOperator.pure(qutrit_t_gate() @ plus_state(3))
        assert mana_state(t_plus, frame3) > 0.5

    def test_mana_renormalizes_unnormalized_input(self, frame3, rng):
        mat = random_density_matrix(3, rng)
        rho = DensityOperator(mat, normalized=True)
        scaled = DensityOperator(0.3 * mat, normalized=False)
        assert abs(mana_state(rho, frame3) - mana_state(scaled, frame3)) < 1e-12

    def test_mana_invariant_under_clifford(self, frame3, rng):
        cliffords = [fourier_gate(3), qutrit_phase_s()]
        for _ in range(5):
            rho = random_density_matrix(3, rng)
            base = mana_state(DensityOperator(rho), frame3)
            for u in cliffords:
                conj = DensityOperator(u @ rho @ u.conj().T)
                assert abs(mana_state(conj, frame3) - base) < 1e-10


class TestChannelWigner:
    def test_identity_channel_is_delta(self, frame3):
        wig = wigner_of_channel(identity_channel(3), frame3)
        assert np.abs(wig - np.eye(9)).max() < 1e-12

    def test_columns_sum_to_one(self, frame3, rng):
        ch = random_kraus_channel(3, 3, rng)
        wig = wigner_of_channel(ch, frame3)
        assert np.abs(wig.sum(axis=0) - 1.0).max() < 1e-10

    def test_clifford_channel_nonnegative(self, frame3):
        wig = wigner_of_channel(unitary_channel(fourier_gate(3)), frame3)
        assert wig.min() > -1e-12

    def test_t_gate_channel_negative(self, frame3):
        wig = wigner_of_channel(unitary_channel(qutrit_t_gate()), frame3)
        assert wig.min() < -0.05

    def test_matches_the_direct_kraus_formula_on_random_channels(self, frame3, rng):
        for _ in range(5):
            ch = random_kraus_channel(3, 2, rng)
            want = direct_channel_wigner(ch, frame3)
            assert np.abs(wigner_of_channel(ch, frame3) - want).max() < 1e-10

    def test_choi_route_matches_kron_loop(self, frame3, rng):
        for n_ops in (1, 2, 3, 4, 5):
            choi = choi_of_channel(random_kraus_channel(3, n_ops, rng))
            got = _choi_route_wigner(choi, frame3)
            want = reference_choi_route(choi, frame3, frame3)
            assert np.abs(got - want).max() < 1e-14

    def test_non_real_values_raise(self, frame3):
        # i I / 3 is not Hermitian: every W(v|u) it gives is i / 3.
        not_a_choi_state = SimpleNamespace(matrix=1j * np.eye(9) / 3)
        with pytest.raises(ValueError, match="non-real"):
            _choi_route_wigner(not_a_choi_state, frame3)

    def test_conditional_and_choi_wigner_share_values(self, frame3, rng):
        # Transposition permutes the phase-point set, so the conditional
        # Wigner values and d^2 times the plain Choi-state Wigner values
        # coincide as multisets.
        ch = random_kraus_channel(3, 2, rng)
        cond = np.sort(wigner_of_channel(ch, frame3).reshape(-1))
        plain = np.sort(9 * wigner_of_choi(choi_of_channel(ch), frame3, frame3).reshape(-1))
        assert np.abs(cond - plain).max() < 1e-10


class TestChannelMana:
    def test_identity_mana_zero(self, frame3):
        assert mana_channel(identity_channel(3), frame3) == 0.0

    def test_cpwp_classification(self, frame3):
        assert is_cpwp(unitary_channel(fourier_gate(3)), frame3)[0]
        ok, min_wig = is_cpwp(unitary_channel(qutrit_t_gate()), frame3)
        assert not ok and min_wig < -0.05

    def test_heavy_depolarizing_washes_out_t_gate(self, frame3):
        noisy_t = compose_channels(depolarizing_channel(3, 0.9), unitary_channel(qutrit_t_gate()))
        assert is_cpwp(noisy_t, frame3)[0]
        assert mana_channel(noisy_t, frame3) == 0.0
        light = compose_channels(depolarizing_channel(3, 0.1), unitary_channel(qutrit_t_gate()))
        assert mana_channel(light, frame3) > 0.1
