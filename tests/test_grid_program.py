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

from conftest import (LP_BRACKETS, LP_THRESHOLDS, assert_entries_are_lone_calls, compare_rows, completeness_checks,
                      grid_of, oracle_rows, spy, sweep_rows)

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


@pytest.mark.parametrize("fine", [False, True], ids=["default", "fine"])
@pytest.mark.parametrize("experiment", list(FINE))
def test_each_lp_block_of_a_sweep_is_its_lone_calls(monkeypatch, experiment, fine):
    # A block's entries are each solved on their own, from the program's
    # reference starts: every field of every entry of every LP column has
    # the bits of its lone call.  fig2 solves each column but the minus
    # branch at p = 0, which is degenerate; fig3 solves the minus branch
    # once per block.
    config = default_config(experiment, **(FINE[experiment] if fine else {}))
    with monkeypatch.context() as patch:
        calls = spy(patch, lp, "solve_l1")
        sweep_rows(experiment, config.grid(), config.lp_tol)
    entries = {"fig2": (302, 6002), "fig3": (183, 4520)}[experiment][fine]
    assert sum(len(call.result.status) for call in calls) == entries
    for call in calls:
        assert_entries_are_lone_calls(call.result, call.args[2])


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

    def test_rom_state_logs_each_renormalized_entry(self, caplog):
        rho = grid_of(DensityOperator, np.array([np.eye(2) / 2, np.eye(2) / 4, np.diag([0.3, 0.1])]))
        with caplog.at_level(logging.DEBUG, logger="magicswitch.lp"):
            walk = lp.rom_state(rho, enumerate_stabilizer_states(1))
        assert walk.renorm_factor.tolist() == [1.0, 0.5, 0.4]
        assert [r.getMessage() for r in caplog.records if "renormalized" in r.getMessage()] == [
            "rom_state renormalized input by factor 0.5", "rom_state renormalized input by factor 0.4",
        ]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)

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
