import re

import numpy as np
import pytest

from magicswitch import (
    ChoiState,
    DensityOperator,
    KrausChannel,
    apply_channel,
    build_frame,
    choi_of_channel,
    compose_channels,
    depolarizing_channel,
    mana_state,
    measure_control,
    noisy_th_channel,
    orthogonal_unitary_basis,
    qutrit_k2_variant_report,
    qutrit_noisy_th_channel,
    unitary_channel,
)
from magicswitch.channels import ChannelCompletenessError, StateValidationError, _completeness_residual
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import HADAMARD, T_GATE, basis_state, fourier_gate, plus_state, qutrit_t_gate
from magicswitch.linalg import DimensionMismatchError, tensor

from conftest import extend_with_reference, operators_close, random_density_matrix, random_kraus_channel


def channel_from_choi(choi, tol=DEFAULT_TOL.psd):
    """Oracle: Kraus operators read off the eigendecomposition of a Choi
    state, one per eigenvalue above ``tol``."""
    eigvals, eigvecs = np.linalg.eigh(choi.matrix * choi.d_in)
    assert eigvals[0] >= -tol
    return KrausChannel(
        [np.sqrt(lam) * vec.reshape(choi.d_in, choi.d_out).T for lam, vec in zip(eigvals, eigvecs.T) if lam > tol]
    )


class TestDensityOperator:
    def test_pure_and_mixed(self):
        rho = DensityOperator.pure(plus_state(2))
        assert rho.normalized and abs(rho.trace - 1) < 1e-12
        mix = DensityOperator.maximally_mixed(3)
        assert operators_close(mix.matrix, np.eye(3) / 3)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError):
            DensityOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("diagonal, message", [
        ([1.5, -0.5], "density operator has negative eigenvalue -5.000e-01 below -1e-10"),
        # Each eigenvalue sits on the rounding floor, but their sum is past it.
        ([-1e-10] * 11, "density operator has negative trace -1.100e-09"),
    ], ids=["eigenvalue", "trace"])
    def test_rejects_negative(self, diagonal, message):
        with pytest.raises(ValueError) as refused:
            DensityOperator(np.diag(diagonal).astype(complex))
        assert str(refused.value) == message

    def test_unnormalized_flagged(self):
        rho = DensityOperator(0.25 * np.eye(2))
        assert not rho.normalized
        renorm, factor = rho.renormalized()
        assert abs(factor - 0.5) < 1e-12
        assert renorm.normalized

    def test_unit_trace_renormalizes_to_itself(self):
        # Within the equality tolerance of trace 1 the state is kept as is;
        # beyond it, it is divided by its trace.
        rho = DensityOperator(np.diag([0.5 + 4e-11, 0.5]))
        assert rho.normalized and rho.renormalized() == (rho, 1.0)
        off = DensityOperator(np.diag([0.5 + 4e-10, 0.5]))
        renorm, factor = off.renormalized()
        assert off.normalized and factor == off.trace and abs(renorm.trace - 1.0) < 1e-15

    def test_zero_state_allowed_unnormalized(self):
        zero = DensityOperator(np.zeros((2, 2)))
        assert not zero.normalized
        with pytest.raises(StateValidationError):
            zero.renormalized()

    def test_stores_exact_hermitian_part(self):
        # An anti-Hermitian residue within tolerance is dropped, so it does
        # not reach the Wigner function as an imaginary part.
        near = np.eye(3, dtype=complex) / 3
        near[0, 1] = 5e-11j
        rho = DensityOperator(near)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert np.array_equal(rho.matrix, 0.5 * (near + near.conj().T))
        assert mana_state(rho, build_frame(3)) == 0.0

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,)])
    def test_rejects_a_matrix_that_is_not_square_and_nonempty(self, shape):
        message = rf"^density operator must be square and nonempty, got {re.escape(str(shape))}$"
        with pytest.raises(StateValidationError, match=message):
            DensityOperator(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_entries_that_are_not_finite(self, bad):
        # Refused before the Hermitian check, whose inf - inf would warn and
        # then misreport the state as not Hermitian.
        with pytest.raises(StateValidationError, match="^density operator has entries that are not finite$"):
            DensityOperator(np.array([[bad, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("vec", [[0.0, 0.0], [np.inf, 0.0], [np.nan, 1.0], []])
    def test_pure_needs_a_nonzero_finite_vector(self, vec):
        with pytest.raises(StateValidationError, match="^a pure state needs a nonzero finite vector"):
            DensityOperator.pure(vec)

    def test_maximally_mixed_of_no_dimension_is_refused(self):
        for d in (0, -1, 2.5, True):
            message = rf"^a maximally mixed state needs an integer dimension d >= 1, got d={d}$"
            with pytest.raises(StateValidationError, match=message):
                DensityOperator.maximally_mixed(d)

    def test_matrix_is_readonly(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestKrausChannel:
    def test_completeness_validation(self):
        ch = KrausChannel(noisy_th_channel(0.3).kraus_ops)
        assert ch.completeness_residual() <= DEFAULT_TOL.completeness
        with pytest.raises(ChannelCompletenessError, match="residual 7.500e-01 exceeds"):
            KrausChannel((0.5 * np.eye(2),))

    @pytest.mark.parametrize(
        "ops",
        [np.full((1, 2, 2), np.nan), np.array([[[1, np.inf], [0, 1]], [[0, 0], [0, 0]]])],
        ids=["nan-stack", "inf-entry"],
    )
    def test_non_finite_operators_are_refused(self, ops):
        # Refused before the residual is summed: a NaN residual would pass
        # any bound, and the sum itself would warn.
        with pytest.raises(ChannelCompletenessError, match="not finite"):
            KrausChannel(ops)

    def test_shape_consistency(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel((np.eye(2), np.eye(3)))


class TestApplyChannel:
    def test_identity(self, rng):
        rho = DensityOperator(random_density_matrix(3, rng))
        out = apply_channel(unitary_channel(np.eye(3)), rho)
        assert operators_close(out.matrix, rho.matrix)

    def test_full_depolarizing_sends_to_mixed(self):
        rho = DensityOperator.pure(basis_state(2, 0))
        out = apply_channel(depolarizing_channel(2, 1.0), rho)
        assert operators_close(out.matrix, np.eye(2) / 2, tol=1e-12)

    def test_noiseless_th_is_unitary(self):
        # At zero reset weight, the only Kraus operator left is T H.
        rho = DensityOperator.pure(plus_state(2))
        out = apply_channel(noisy_th_channel(0.0), rho)
        th = T_GATE @ HADAMARD
        expected = th @ rho.matrix @ th.conj().T
        assert operators_close(out.matrix, expected, tol=1e-12)

    def test_trace_preserved_on_random_channels(self, rng):
        for d in (2, 3):
            ch = random_kraus_channel(d, 3, rng)
            for _ in range(5):
                rho = DensityOperator(random_density_matrix(d, rng))
                out = apply_channel(ch, rho)
                assert abs(out.trace - rho.trace) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(unitary_channel(np.eye(3)), DensityOperator.maximally_mixed(2))


class TestChoi:
    def test_identity_choi_is_maximally_entangled(self):
        choi = choi_of_channel(unitary_channel(np.eye(2)))
        bell = (basis_state(4, 0) + basis_state(4, 3)) / np.sqrt(2)
        assert operators_close(choi.matrix, np.outer(bell, bell.conj()), tol=1e-12)

    def test_full_depolarizing_choi_is_flat(self):
        choi = choi_of_channel(depolarizing_channel(2, 1.0))
        assert operators_close(choi.matrix, np.eye(4) / 4, tol=1e-12)

    def test_t_gate_choi_rank_one(self):
        # Independent evaluation of the defining sum, element by element.
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                ket_ij = np.zeros((2, 2), dtype=complex)
                ket_ij[i, j] = 1.0
                expected += tensor(ket_ij, T_GATE @ ket_ij @ T_GATE.conj().T)
        expected /= 2
        choi = choi_of_channel(unitary_channel(T_GATE))
        assert operators_close(choi.matrix, expected, tol=1e-12)
        assert abs(choi.matrix[0, 3] - np.exp(-1j * np.pi / 4) / 2) < 1e-12
        eigs = np.linalg.eigvalsh(choi.matrix)
        assert (eigs > 1e-9).sum() == 1

    def test_choi_rejects_incomplete(self):
        with pytest.raises(ChannelCompletenessError):
            choi_of_channel(KrausChannel((0.3 * T_GATE,)))

    def test_reconstruction_roundtrip(self, rng):
        for d in (2, 3):
            ch = random_kraus_channel(d, 2, rng)
            rebuilt = channel_from_choi(choi_of_channel(ch))
            for _ in range(5):
                rho = DensityOperator(random_density_matrix(d, rng))
                a = apply_channel(ch, rho)
                b = apply_channel(rebuilt, rho)
                assert np.abs(a.matrix - b.matrix).max() < 1e-8

    def test_choistate_validates_marginal(self):
        with pytest.raises(StateValidationError):
            ChoiState(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), d_in=2, d_out=2)

    def test_choistate_validates_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"^Choi matrix shape \(3, 3\) != \(4, 4\)$"):
            ChoiState(np.eye(3) / 3, d_in=2, d_out=2)


class TestMeasureControl:
    def test_plus_control_passthrough(self, rng):
        rho = random_density_matrix(3, rng)
        plus = np.outer(plus_state(2), plus_state(2).conj())
        joint = DensityOperator(tensor(plus, rho))
        branch, prob = measure_control(joint, "plus")
        assert abs(prob - 1.0) < 1e-10
        assert np.abs(branch.matrix - rho).max() < 1e-10

    def test_orthogonal_outcome_vanishes(self, rng):
        rho = random_density_matrix(2, rng)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        joint = DensityOperator(tensor(np.outer(minus, minus.conj()), rho))
        branch, prob = measure_control(joint, "plus")
        assert prob < 1e-12
        assert np.abs(branch.matrix).max() < 1e-12

    def test_probabilities_sum_to_trace(self, rng):
        mat = random_density_matrix(6, rng)
        joint = DensityOperator(mat)
        _, p_plus = measure_control(joint, "plus")
        _, p_minus = measure_control(joint, "minus")
        assert abs(p_plus + p_minus - 1.0) < 1e-10

    def test_errors(self):
        joint = DensityOperator.maximally_mixed(4)
        with pytest.raises(ValueError):
            measure_control(joint, "sideways")
        with pytest.raises(DimensionMismatchError):
            measure_control(DensityOperator.maximally_mixed(3), "plus")


class TestChannelZoo:
    def test_depolarizing_action_over_full_range(self, rng):
        for d in (2, 3):
            p_max = d * d / (d * d - 1)
            for p in (0.0, 0.4, 1.0, p_max):
                ch = depolarizing_channel(d, p)
                assert ch.completeness_residual() <= DEFAULT_TOL.completeness
                rho = random_density_matrix(d, rng)
                out = apply_channel(ch, DensityOperator(rho))
                expected = p * np.eye(d) / d + (1 - p) * rho
                assert np.abs(out.matrix - expected).max() < 1e-12

    def test_depolarizing_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing_channel(2, 1.5)

    @pytest.mark.parametrize("d", [2.5, 3.0, 1])
    def test_depolarizing_dimension_must_be_an_integer_of_at_least_2(self, d):
        with pytest.raises(ValueError, match=rf"^dimension d={d} must be an integer of at least 2$"):
            depolarizing_channel(d, 0.2)
        assert np.array_equal(depolarizing_channel(np.int64(3), 0.2).kraus_ops, depolarizing_channel(3, 0.2).kraus_ops)

    def test_noisy_th_complete_for_all_p(self):
        for p in np.linspace(0, 1, 11):
            assert noisy_th_channel(p).completeness_residual() < 1e-12

    def test_qutrit_variants(self):
        report = qutrit_k2_variant_report(0.4)
        assert report["selected"] == "aligned"
        assert report["aligned"] < 1e-12
        assert report["cross"] > 1e-3
        KrausChannel(qutrit_noisy_th_channel(0.4).kraus_ops)

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.5, 1.0])
    def test_qutrit_variant_report_matches_the_two_row_sets(self, p):
        # Oracle: both reset-row sets written out entry by entry; the report
        # must give their residuals, summed over each raw stack, to the bit.
        omega, zeta, sq = np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 9), np.sqrt(p / 3)
        k0 = sq * zeta * np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)
        k1 = sq * np.array([[0, 0, 0], [1, omega, omega**2], [0, 0, 0]], dtype=complex)
        k3 = np.sqrt(1 - p) * (qutrit_t_gate() @ fourier_gate(3))
        third_rows = {
            "aligned": sq * zeta * np.array([[0, 0, 0], [0, 0, 0], [1, omega**2, omega]], dtype=complex),
            "cross": sq * zeta * np.array([[0, 0, 0], [0, omega**2, omega], [1, 0, 0]], dtype=complex),
        }
        want = {name: _completeness_residual(np.stack([k0, k1, k2, k3])) for name, k2 in third_rows.items()}
        assert qutrit_k2_variant_report(p) == {**want, "selected": "aligned"}
        assert np.array_equal(qutrit_noisy_th_channel(p).kraus_ops, np.stack([k0, k1, third_rows["aligned"], k3]))

    def test_compose_and_extend(self, rng):
        seq = compose_channels(unitary_channel(HADAMARD), unitary_channel(T_GATE))
        rho = DensityOperator(random_density_matrix(2, rng))
        ht = HADAMARD @ T_GATE
        assert operators_close(
            apply_channel(seq, rho).matrix, ht @ rho.matrix @ ht.conj().T, tol=1e-12
        )
        ext = extend_with_reference(unitary_channel(T_GATE), 2)
        assert ext.d_in == 4
        assert ext.completeness_residual() <= DEFAULT_TOL.completeness

    def test_compose_refuses_mismatched_dimensions(self):
        # A qubit channel cannot act on a qutrit channel's output.
        with pytest.raises(DimensionMismatchError, match=r"^cannot compose: inner output dim 3 != outer input dim 2$"):
            compose_channels(unitary_channel(np.eye(2)), unitary_channel(np.eye(3)))

    def test_orthogonal_unitary_basis_needs_d_2_or_an_odd_prime(self):
        with pytest.raises(DimensionMismatchError, match=r"^no orthogonal unitary basis implemented for d=4$"):
            orthogonal_unitary_basis(4)

    def test_two_depolarizing_passes_compose_strengths(self, rng):
        # D_q after D_p acts like a single pass with strength p + q - p q.
        p, q = 0.3, 0.45
        seq = compose_channels(depolarizing_channel(2, q), depolarizing_channel(2, p))
        rho = random_density_matrix(2, rng)
        out = apply_channel(seq, DensityOperator(rho))
        eff = p + q - p * q
        expected = eff * np.eye(2) / 2 + (1 - eff) * rho
        assert np.abs(out.matrix - expected).max() < 1e-12
