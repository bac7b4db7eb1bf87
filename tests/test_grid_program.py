"""The sweep as one array program per block, against the point-by-point
sweep it replaced (``conftest.oracle_rows``), and the grid kernels against
their single-object calls."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import (
    DensityOperator,
    build_frame,
    build_switch,
    choi_of_channel,
    conditional_outputs,
    cspo_choi_atoms,
    enumerate_stabilizer_states,
    find_threshold,
    noisy_th_channel,
    qutrit_noisy_th_channel,
    wigner_of_channel,
)
from magicswitch import lp
from magicswitch.channels import StateValidationError, plus_density
from magicswitch.experiments import default_config, run_experiment
from magicswitch.phasespace import wigner_of_operator

from conftest import (LP_BRACKETS, LP_THRESHOLDS, channel_program, compare_rows, completeness_checks, grid_of,
                      oracle_rows, sweep_rows)

FINE = {"fig2": dict(step=0.0005), "fig3": dict(step=0.0002)}


class TestAgainstThePointOracle:
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
    def test_default_grids(self, experiment, backward):
        grid = default_config(experiment).grid()
        grid = grid[::-1] if backward else grid
        equal, total = compare_rows(sweep_rows(experiment, grid, 1e-6), oracle_rows(experiment, grid))
        assert equal == total

    @pytest.mark.parametrize("experiment", list(FINE))
    def test_fine_grids(self, experiment):
        grid = default_config(experiment, **FINE[experiment]).grid()
        assert len(grid) == {"fig2": 2001, "fig3": 2251}[experiment]
        equal, total = compare_rows(sweep_rows(experiment, grid, 1e-6), oracle_rows(experiment, grid))
        assert equal == total

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        experiment=st.sampled_from(["fig2", "fig3", "figs1"]),
        start=st.floats(0.0, 0.6),
        step=st.floats(1e-3, 0.04),
        length=st.integers(1, 11),
        backward=st.booleans(),
    )
    def test_random_sub_grids_across_blocks(self, experiment, start, step, length, backward):
        grid = [min(start + k * step, 1.0) for k in range(length)]
        grid = grid[::-1] if backward else grid
        equal, total = compare_rows(sweep_rows(experiment, grid, 1e-6, block_points=3), oracle_rows(experiment, grid))
        assert equal == total


def test_fig3_builds_its_t_gate_once_per_channel_family(monkeypatch):
    # A default fig3 run measures the completeness of T_GATE's unitary
    # channel once for the sequential channel and once for the switch
    # branches, not once or twice per row.
    calls = completeness_checks(monkeypatch)
    run_experiment(default_config("fig3"))
    assert len(calls) <= 2


class TestTightToleranceThresholds:
    """A basis is reused only while x_B >= -Tolerances.primal, so a value
    read off a basis is never one a pivot tolerance below the optimum."""

    def test_fig2_channel_search_at_zero_lp_tol_holds_its_closed_form(self):
        res = find_threshold(
            "fig2_channel_robustness", 0.1676575941556429, 0.3676575941556429,
            lp_tol=0.0, threshold_tol=1.2940944123604168e-09,
        )
        assert res.bracket[0] <= 1 - 1 / math.sqrt(2) <= res.bracket[1]
        assert res.iterations == 3

    @pytest.mark.parametrize("name, exact", LP_THRESHOLDS.items())
    def test_seeded_searches_at_zero_lp_tol(self, name, exact):
        rng = np.random.default_rng(22)
        for shift, tol in zip(rng.uniform(-0.05, 0.05, size=6), 10 ** rng.uniform(-10, -8, size=6)):
            res = find_threshold(name, exact - 0.1 + shift, exact + 0.1 + shift, lp_tol=0.0, threshold_tol=tol)
            assert res.bracket[0] <= exact <= res.bracket[1] and res.iterations == 3
        # The root is read off the optimal basis, not bisected: a few ulps off.
        res = find_threshold(name, *LP_BRACKETS[name], lp_tol=0.0, threshold_tol=1e-10)
        assert abs(res.threshold - exact) <= 1e-12 and res.iterations == 3


class TestGridKernels:
    """Each grid entry gets the bits of the single-object call."""

    P = np.array([0.0, 0.05, 0.3, 0.71, 1.0])

    @pytest.mark.parametrize("family", [noisy_th_channel, qutrit_noisy_th_channel])
    def test_channel_switch_and_branches(self, family):
        grid = family(self.P)
        outputs = conditional_outputs(build_switch(grid, grid), plus_density(grid.d_in))
        for i, p in enumerate(self.P):
            single = family(p)
            assert np.array_equal(grid.kraus_ops[i], single.kraus_ops)
            assert np.array_equal(choi_of_channel(grid).matrix[i], choi_of_channel(single).matrix)
            want = conditional_outputs(build_switch(single, single), plus_density(single.d_in))
            for got_branch, want_branch in zip(outputs[:2], want[:2]):
                assert np.array_equal(got_branch.matrix[i], want_branch.matrix)
            assert (outputs[2][i], outputs[3][i]) == want[2:]

    def test_wigner_values(self):
        frame = build_frame(3)
        wig = wigner_of_channel(qutrit_noisy_th_channel(self.P), frame)
        for i, p in enumerate(self.P):
            assert np.array_equal(wig[i], wigner_of_channel(qutrit_noisy_th_channel(p), frame))

    def test_channel_robustness_walks_the_grid_in_order(self):
        atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
        walk = lp.channel_robustness(noisy_th_channel(self.P), atoms)
        assert isinstance(walk, lp.L1Solution) and len(walk.status) == len(walk.warm_start) == len(self.P)
        # Each entry walks as a lone solve from the bases the walk held
        # before it, and holds what that solve holds after it.
        held = ()
        for k, p in enumerate(self.P):
            alone = lp.channel_robustness(noisy_th_channel(p), atoms, basis=held)
            start, held = alone.warm_start, alone.held
            for field in ("value", "status", "iterations", "residual", "dual_gap", "dual_violation", "plus", "minus"):
                assert np.array_equal(getattr(walk, field)[k], getattr(alone, field)), (p, field)
            assert np.array_equal(walk.warm_start[k].basis, start.basis)
            assert np.array_equal(walk.warm_start[k].inverse, start.inverse)
        assert len(walk.held) == len(held)
        for got, want in zip(walk.held, held):
            assert np.array_equal(got.basis, want.basis) and np.array_equal(got.inverse, want.inverse)
        # The walk holds the very starts its entries reached, the last one
        # latest: reference starts it read entries off, or bases it pivoted to.
        reached = {id(start) for start in (*walk.warm_start, *channel_program(atoms)[1])}
        assert walk.held[0] is walk.warm_start[-1] and all(id(start) in reached for start in walk.held)
        assert walk.standard_form[1].shape == (len(self.P), walk.standard_form[0].shape[0])

    def test_rom_state_logs_each_renormalized_entry(self, caplog):
        rho = grid_of(DensityOperator, np.array([np.eye(2) / 2, np.eye(2) / 4, np.diag([0.3, 0.1])]))
        with caplog.at_level(logging.INFO, logger="magicswitch.lp"):
            walk = lp.rom_state(rho, enumerate_stabilizer_states(1))
        assert walk.renorm_factor.tolist() == [1.0, 0.5, 0.4]
        assert [r.getMessage() for r in caplog.records] == [
            "rom_state renormalized input by factor 0.5", "rom_state renormalized input by factor 0.4",
        ]

    def test_grid_checks_name_the_entry(self):
        with pytest.raises(ValueError, match="p=1.5 outside"):
            noisy_th_channel(np.array([0.2, 1.5, 0.3]))
        with pytest.raises(ValueError, match="p=nan outside"):
            qutrit_noisy_th_channel(np.array([0.2, np.nan]))
        with pytest.raises(StateValidationError, match="renormalize"):
            grid_of(DensityOperator, np.array([np.eye(2) / 2, np.zeros((2, 2))])).renormalized()
        bad = np.array([np.eye(3) / 3, np.eye(3) / 3 + 1e-3j * np.diag([1, 0, -1])])
        with pytest.raises(ValueError, match="non-real"):
            wigner_of_operator(bad, build_frame(3))
