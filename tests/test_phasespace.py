from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import (
    DensityOperator,
    PhaseSpaceFrame,
    apply_channel,
    build_frame,
    build_switch,
    compose_channels,
    conditional_outputs,
    depolarizing_channel,
    mana_channel,
    mana_state,
    qutrit_noisy_th_channel,
    unitary_channel,
    wigner_of_channel,
    wigner_of_state,
)
from magicswitch import choi_of_channel
from magicswitch.channels import plus_density
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import fourier_gate, plus_state, qutrit_t_gate
from magicswitch.linalg import tensor
from magicswitch import phasespace
from magicswitch.phasespace import _choi_route_wigner, _gram, heisenberg_weyl_operators, wigner_of_operator

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


def _scaled(scales):
    """The d = 3 displacement operators, each times its entry of ``scales`` (1 if none)."""
    return [op * scales.get(u, 1) for u, op in heisenberg_weyl_operators(3)]


class TestFrame:
    def test_rejects_even_and_composite(self):
        for d in (2, 4, 9, 15):
            with pytest.raises(ValueError):
                build_frame(d)

    def test_displacement_at_pure_boost_is_z(self):
        # At the point (1, 0) the phase prefactor is tau^0 = 1, so the
        # displacement operator is exactly the boost diag(omega^j).
        omega = np.exp(2j * np.pi / 3)
        boost = np.diag([omega**j for j in range(3)]).astype(complex)
        hw = heisenberg_weyl_operators(3)
        idx = [u for u, _ in hw].index((1, 0))
        assert idx == 1 * 3 + 0  # row-major point order: a1 d + a2
        assert np.abs(hw[idx][1] - boost).max() == 0.0

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

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_gram_matches_the_trace_einsum(self, d):
        a_ops = build_frame(d).phase_points
        reference = np.einsum("uij,vji->uv", a_ops, a_ops)
        assert np.abs(_gram(a_ops) - reference).max() <= DEFAULT_TOL.eq

    @pytest.mark.parametrize(
        "ops, message",
        [
            # A complex identity makes A_0 = sum_u T_u / d non-Hermitian.
            (_scaled({(0, 0): 1 + 1e-6j}), r"^A_\(0, 0\) not Hermitian$"),
            # X and X^2 = X^dagger scaled alike keep A_0 Hermitian with unit
            # trace, and the first of them is the first point whose A_u is off.
            (_scaled({(0, 1): 1 + 1e-6, (0, 2): 1 + 1e-6}), r"^A_\(0, 1\) trace != 1$"),
            (_scaled({(1, 1): 1 + 1e-6, (2, 2): 1 + 1e-6}), r"^A_\(1, 1\) trace != 1$"),
            # diag(1, 1, -1), then eight phases e^(+-i theta) times I with
            # 8 cos(theta) = 2/3: A_0 = diag(5, 5, -1) / 9 is Hermitian with
            # unit trace, and every A_u is A_0, so sum_u A_u / d is 3 A_0, not I.
            ([np.diag([1.0, 1.0, -1.0]), *(np.exp(1j * sign * np.arccos(1 / 12)) * np.eye(3) for sign in [1, -1] * 4)],
             "^phase-point resolution of identity failed$"),
            # Nine phases times I that sum to 1: every A_u is I/3, which
            # resolves the identity, but Tr[A_u A_v] = 1/3 for every pair.
            ([phase * np.eye(3) for phase in (1, 1j, -1j, 1j, -1j, 1j, -1j, 1j, -1j)],
             "^phase-point orthogonality failed$"),
        ],
        ids=["hermitian", "trace-A01", "trace-A11", "resolution", "orthogonality"],
    )
    def test_perturbed_displacements_are_refused(self, monkeypatch, ops, message):
        labels = [u for u, _ in heisenberg_weyl_operators(3)]
        monkeypatch.setattr(phasespace, "heisenberg_weyl_operators", lambda d: tuple(zip(labels, ops)))
        with pytest.raises(RuntimeError, match=message):
            build_frame.__wrapped__(3)  # past the cache, which keeps the exact frame

    def test_hw_operators_are_orthogonal_unitaries(self):
        ops = [op for _, op in heisenberg_weyl_operators(3)]
        for i, a in enumerate(ops):
            assert np.abs(a @ a.conj().T - np.eye(3)).max() < 1e-12
            for j, b in enumerate(ops):
                overlap = np.trace(a.conj().T @ b)
                assert abs(overlap - (3.0 if i == j else 0.0)) < 1e-10

    @pytest.mark.parametrize("d", [3, 5, 7, 11, 23])
    def test_hw_operators_equal_the_dense_power_products(self, d):
        # The oracle: tau^(-a1 a2) times the dense products of matrix powers
        # Z^a1 X^a2, with X the cyclic shift |j> -> |j + 1>.  Equal entry for
        # entry; only the signs of some zeros may differ.
        omega, tau = np.exp(2j * np.pi / d), np.exp(1j * np.pi * (d + 1) / d)
        boost = np.diag([omega**j for j in range(d)]).astype(complex)
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        got = heisenberg_weyl_operators(d)
        assert [u for u, _ in got] == [(a1, a2) for a1 in range(d) for a2 in range(d)]
        for (a1, a2), op in got:
            want = tau ** (-a1 * a2) * np.linalg.matrix_power(boost, a1) @ np.linalg.matrix_power(shift, a2)
            assert np.array_equal(op, want) and not op.flags.writeable


class TestStateWigner:
    def test_maximally_mixed_is_flat(self, frame3):
        wig = wigner_of_state(DensityOperator.maximally_mixed(3), frame3)
        assert np.abs(wig - 1.0 / 9).max() < 1e-12

    def test_basis_state_nonnegative(self, frame3):
        wig = wigner_of_state(DensityOperator.pure(np.array([1, 0, 0])), frame3)
        assert wig.min() >= -1e-12
        assert abs(wig.sum() - 1.0) < 1e-10

    def test_sum_matches_a_normalized_trace_off_one(self, frame3):
        # The trace is 1 + 5e-10: normalized within the positivity tolerance,
        # but past the equality tolerance from 1, so the sum is read against
        # the trace.
        rho = DensityOperator(np.diag([1 / 3 + 5e-10, 1 / 3, 1 / 3]))
        assert rho.normalized
        wig = wigner_of_state(rho, frame3)
        assert abs(wig.sum() - rho.trace) < 1e-15

    def test_unnormalized_state_is_refused(self, frame3):
        with pytest.raises(ValueError, match="^wigner_of_state expects a normalized state$"):
            wigner_of_state(DensityOperator(np.eye(3) / 2), frame3)

    def test_frame_whose_values_miss_the_trace_is_caught(self, frame3):
        doubled = PhaseSpaceFrame(3, 2 * frame3.phase_points)
        with pytest.raises(RuntimeError) as caught:
            wigner_of_state(DensityOperator.maximally_mixed(3), doubled)
        assert str(caught.value) == "Wigner normalization drifted: sum = 2"

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
        rho = DensityOperator(mat)
        scaled = DensityOperator(0.3 * mat)
        assert abs(mana_state(rho, frame3) - mana_state(scaled, frame3)) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_mana_against_displaced_parities(self, d, rng):
        # The phase-point operators as D P D^dag, P the parity |j> -> |-j>
        # and D each Weyl displacement, built here without the frame's code.
        # Mana reads the set of values, so the order of the points is free.
        shift = np.roll(np.eye(d), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        parity = np.eye(d)[(-np.arange(d)) % d]
        points = []
        for a in range(d):
            for b in range(d):
                disp = np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b)
                points.append(disp @ parity @ disp.conj().T)
        for rank in (1, 2, d):
            rho = random_density_matrix(d, rng, rank=rank)
            want = np.log2(sum(abs(np.trace(A @ rho).real) for A in points) / d)
            assert want > 1e-3 and abs(mana_state(DensityOperator(rho), build_frame(d)) - want) < 1e-12

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
        wig = wigner_of_channel(unitary_channel(np.eye(3)), frame3)
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

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_matches_the_direct_kraus_formula_on_random_channels(self, d, rng):
        frame = build_frame(d)
        for _ in range(5):
            ch = random_kraus_channel(d, 2, rng)
            want = direct_channel_wigner(ch, frame)
            assert np.abs(wigner_of_channel(ch, frame) - want).max() < 1e-10

    @pytest.mark.parametrize("d, kraus_counts", [(3, (1, 2, 3, 4, 5)), (5, (1, 3)), (7, (2,))], ids=["3", "5", "7"])
    def test_choi_route_matches_kron_loop(self, d, kraus_counts, rng):
        frame = build_frame(d)  # the loop's d^4 krons cost d^6 each, so fewer channels at larger d
        for n_ops in kraus_counts:
            choi = choi_of_channel(random_kraus_channel(d, n_ops, rng))
            got = _choi_route_wigner(choi, frame)
            want = reference_choi_route(choi, frame, frame)
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
        assert mana_channel(unitary_channel(np.eye(3)), frame3) == 0.0

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


class TestExtendedPrecision:
    """Fine figs1 rows (steps 0.0005 and 0.0002 from 0.01) whose 12th
    printed digit depends on the order of the Wigner sums: each mana lies
    within rounding of its np.clongdouble value, from the same double Choi
    state or branch.  A mana near 0 is log2 of an l1 norm near 1, so its
    rounding is about eps / ln 2."""

    @pytest.mark.parametrize("p", [0.30720000000000003, 0.4625, 0.467])
    def test_channel_mana(self, frame3, p):
        ch = qutrit_noisy_th_channel(p)
        points = frame3.phase_points.astype(np.clongdouble)
        j4 = choi_of_channel(ch).matrix.astype(np.clongdouble).reshape(3, 3, 3, 3)
        wig = np.einsum("uji,vab,jbia->vu", points, points, j4).real
        want = np.log2(np.abs(wig).sum(axis=0).max())
        assert abs(mana_channel(ch, frame3) - want) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("p", [0.4625, 0.5640000000000001])
    def test_branch_mana(self, frame3, p):
        ch = qutrit_noisy_th_channel(p)
        branch = conditional_outputs(build_switch(ch, ch), plus_density(3))[0]
        rho = branch.matrix.astype(np.clongdouble)
        wig = np.einsum("uij,ji->u", frame3.phase_points.astype(np.clongdouble), rho / np.trace(rho).real).real / 3
        assert abs(mana_state(branch, frame3) - np.log2(np.abs(wig).sum())) <= 2 * np.finfo(float).eps


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 3))
def test_mana_is_weyl_covariant(frame3, seed, rank):
    # A Weyl displacement X^a Z^b shifts the discrete Wigner function over
    # phase space (Veitch et al. 2014), so it cannot change the mana.  The
    # displacements are built here, not from the frame's code.
    rho = random_density_matrix(3, np.random.default_rng(seed), rank=rank)
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    base = mana_state(DensityOperator(rho), frame3)
    for a in range(3):
        for b in range(3):
            d = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            assert abs(mana_state(DensityOperator(d @ rho @ d.conj().T), frame3) - base) <= 1e-9


# ---------------------------------------------------------------------------
# Laws of mana, on seeded random qutrit Kraus channels and states.  A
# channel's W(v|u) carries M(A_u) = sum_v W(v|u) A_v, so the Wigner matrix
# of a composition is the product of the factors'.  Mana is log2 of the
# largest column l1 norm of W, an induced norm, so it adds at most under
# composition and under applying a channel to a state.
# ---------------------------------------------------------------------------

def random_qutrit_channel(rng):
    """A seeded random qutrit Kraus channel of one to three operators."""
    return random_kraus_channel(3, int(rng.integers(1, 4)), rng)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_wigner_of_a_composition_is_the_product(frame3, seed):
    rng = np.random.default_rng(seed)
    outer, inner = random_qutrit_channel(rng), random_qutrit_channel(rng)
    composed = wigner_of_channel(compose_channels(outer, inner), frame3)
    product = wigner_of_channel(outer, frame3) @ wigner_of_channel(inner, frame3)
    assert np.abs(composed - product).max() <= 8 * np.finfo(float).eps


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mana_of_a_composition_is_at_most_the_sum(frame3, seed):
    rng = np.random.default_rng(seed)
    outer, inner = random_qutrit_channel(rng), random_qutrit_channel(rng)
    bound = mana_channel(outer, frame3) + mana_channel(inner, frame3)
    assert mana_channel(compose_channels(outer, inner), frame3) <= bound + DEFAULT_TOL.mana_zero


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mana_of_an_output_state_is_at_most_the_sum(frame3, seed):
    rng = np.random.default_rng(seed)
    channel = random_qutrit_channel(rng)
    rho = DensityOperator(random_density_matrix(3, rng, rank=int(rng.integers(1, 4))))
    bound = mana_channel(channel, frame3) + mana_state(rho, frame3)
    assert mana_state(apply_channel(channel, rho), frame3) <= bound + DEFAULT_TOL.mana_zero


@pytest.mark.parametrize("name", ["F", "S", "FS", "X"])
def test_qutrit_cliffords_have_no_mana(frame3, name):
    # The Fourier gate, the phase gate diag(1, 1, omega), their product and
    # the shift |j> -> |j + 1> map phase points to phase points.
    gates = {"F": fourier_gate(3), "S": qutrit_phase_s(), "FS": fourier_gate(3) @ qutrit_phase_s(),
             "X": np.roll(np.eye(3), 1, axis=0)}
    assert mana_channel(unitary_channel(gates[name]), frame3) == 0.0
