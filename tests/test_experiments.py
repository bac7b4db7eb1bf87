import dataclasses
import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from magicswitch import experiments, lp
from magicswitch.channels import DensityOperator, noisy_th_channel, qutrit_noisy_th_channel, unitary_channel
from magicswitch.gates import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, T_GATE
from magicswitch.lp import channel_robustness, rom_state
from magicswitch.config import DEFAULT_TOL
from magicswitch.phasespace import mana_of_wigner
from magicswitch.qswitch import EffectiveDepolarizingSwitch
from magicswitch.stabilizers import cspo_choi_atoms, enumerate_stabilizer_states
from magicswitch.experiments import (
    MAX_GRID_POINTS,
    MEASURE_COLUMNS,
    MEASURES,
    BracketError,
    SweepConfig,
    ThresholdResult,
    default_config,
    find_threshold,
    parse_config_file,
    rows_to_csv,
    rows_to_json,
    run_appendix_c,
    run_experiment,
    run_fig2,
    run_fig3,
    run_figs1,
    write_rows,
)
from magicswitch.experiments import _certified_value, _floor_slack

from conftest import (LP_BRACKETS, LP_THRESHOLDS, basis_root, channel_program, channel_wigner_builds,
                      clear_program_caches, dispatched_rows, oracle_rows, pivots_by_caller, proposed_roots,
                      recorded_solves, run_state, scored_block, spy, state_program, sweep_rows, threshold_value_calls)


class TestSweepConfig:
    def test_default_grids(self):
        fig2 = default_config("fig2")
        grid = fig2.grid()
        assert len(grid) == 101 and grid[0] == 0.0 and abs(grid[-1] - 1.0) < 1e-12
        fig3 = default_config("fig3")
        assert len(fig3.grid()) == 91 and abs(fig3.grid()[-1] - 0.45) < 1e-12
        figs1 = default_config("figs1")
        assert figs1.start == 0.01 and abs(figs1.grid()[-1] - 1.0) < 1e-12

    def test_aliases(self):
        assert default_config("fig2_qubit_example").experiment == "fig2"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: default_config("appendix_c"),
            lambda: default_config("appendixC_inequality"),
            lambda: SweepConfig("appendix-c", start=0.0, stop=1.0, step=0.01),
            lambda: experiments.canonical_experiment("appendix_c"),
        ],
        ids=["default_config", "alias", "SweepConfig", "canonical_experiment"],
    )
    def test_the_appendix_c_report_is_not_a_sweep(self, make):
        # Every accepted experiment is a MEASURE_TABLE sweep that runs.
        with pytest.raises(ValueError, match=r"\('fig2', 'fig3', 'figs1'\)"):
            make()

    @pytest.mark.parametrize("lp_tol", [-1.0, -1e-12, math.nan, math.inf])
    def test_bad_lp_tol_is_rejected(self, lp_tol):
        with pytest.raises(ValueError, match="lp_tol"):
            SweepConfig("fig2", start=0.0, stop=1.0, step=0.1, lp_tol=lp_tol)

    @pytest.mark.parametrize("step", [math.nan, math.inf, 5e-324, 1e-300, 1e-6])
    def test_bad_or_oversized_step_is_rejected_before_the_grid_is_built(self, step):
        # 1e-6 on [0, 1] is MAX_GRID_POINTS + 1 points, one too many.
        with pytest.raises(ValueError, match="step"):
            SweepConfig("fig2", start=0.0, stop=1.0, step=step)

    def test_grid_at_the_point_cap_is_accepted(self):
        SweepConfig("fig2", start=0.0, stop=1.0, step=1 / (MAX_GRID_POINTS - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig("fig2", start=0.5, stop=0.4, step=0.01)
        with pytest.raises(ValueError):
            SweepConfig("fig2", start=0.0, stop=1.0, step=-0.1)
        with pytest.raises(ValueError):
            SweepConfig("fig2", start=0.0, stop=1.0, step=0.1, format="yaml")
        with pytest.raises(ValueError):
            SweepConfig("nope", start=0.0, stop=1.0, step=0.1)


def _tiny(experiment, **overrides):
    return default_config(experiment, **{"start": 0.1, "stop": 0.3, "step": 0.1, **overrides})


class TestSweeps:
    @pytest.mark.parametrize("experiment", ["fig2", "figs1"])
    def test_tiny_noise_rows_are_scored(self, experiment):
        # Below p ~ 3e-6 the minus branch's probability is of order p^2 or
        # less, and renormalizing it must not turn rounding into an error.
        for p in np.logspace(-9, -2, 15):
            rows = run_experiment(default_config(experiment, start=p, stop=2 * p, step=p))
            assert {s for row in rows for s in row.status.values()} <= {"ok", "degenerate"}

    def test_fig2_rows(self):
        rows = run_fig2(_tiny("fig2"))
        assert [round(r.p, 6) for r in rows] == [0.1, 0.2, 0.3]
        for row in rows:
            for measure in MEASURE_COLUMNS["fig2"]:
                assert measure in row.values and measure in row.status
            assert row.values["channel_robustness"] >= 1.0 - 1e-6
            assert abs(row.values["prob_plus"] + row.values["prob_minus"] - 1.0) < 1e-9
            assert row.status["rom_minus"] == "ok"
            assert abs(row.values["rom_minus"] - 1.0) < 1e-6

    def test_fig2_degenerate_minus_branch_at_zero_noise(self):
        rows = run_fig2(default_config("fig2", start=0.0, stop=0.01, step=0.01))
        assert rows[0].status["rom_minus"] == "degenerate"
        assert math.isnan(rows[0].values["rom_minus"])
        assert rows[1].status["rom_minus"] == "ok"

    def test_fig3_rows(self):
        rows = run_fig3(_tiny("fig3"))
        for row in rows:
            assert row.values["rob_sequential"] >= 1.0 - 1e-6
            assert row.values["rob_switch_minus"] >= 1.0 - 1e-6
            assert abs(row.values["weight_plus"] + row.values["weight_minus"] - 1.0) < 1e-12

    def test_figs1_rows(self):
        rows = run_figs1(_tiny("figs1"))
        for row in rows:
            assert row.values["mana_channel"] >= 0.0
            assert row.values["mana_plus"] >= 0.0
            assert row.status["mana_plus"] == "ok"

    def test_run_experiment_dispatch(self):
        rows = run_experiment(_tiny("fig3"))
        assert len(rows) == 3

    def test_wrong_config_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_fig2(_tiny("fig3"))


class TestCertificates:
    """A robustness value whose LP certificate fails carries the check_failed status."""

    @pytest.mark.parametrize("certificate", ["residual", "dual_gap", "dual_violation"])
    def test_failed_certificate_is_tagged(self, monkeypatch, certificate):
        def doctored(solver):
            def solve(*args, **kwargs):
                solution = solver(*args, **kwargs)
                # One certificate, or a block's array of them, one per entry.
                bad = np.full(np.shape(solution.value), 10 * DEFAULT_TOL.lp_residual)
                return replace(solution, **{certificate: bad})

            return solve

        monkeypatch.setattr(experiments, "channel_robustness", doctored(experiments.channel_robustness))
        monkeypatch.setattr(experiments, "rom_state", doctored(experiments.rom_state))
        fig2 = run_fig2(_tiny("fig2", stop=0.15))[0]
        assert fig2.status["channel_robustness"] == "check_failed"
        assert fig2.status["rom_plus"] == fig2.status["rom_minus"] == "check_failed"
        fig3 = run_fig3(_tiny("fig3", stop=0.15))[0]
        for measure in ("rob_sequential", "rob_switch_plus", "rob_switch_minus"):
            assert fig3.status[measure] == "check_failed"


class TestDeterminism:
    def test_csv_is_byte_identical_across_runs(self):
        config = _tiny("fig2")
        first = rows_to_csv(run_fig2(config), MEASURE_COLUMNS["fig2"])
        second = rows_to_csv(run_fig2(config), MEASURE_COLUMNS["fig2"])
        assert first == second

    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
    def test_default_csv_matches_reference_hash(self, experiment):
        from perfbench.workloads import EXPECTED_SHA256

        rows = run_experiment(default_config(experiment))
        text = rows_to_csv(rows, MEASURE_COLUMNS[experiment])
        assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED_SHA256[experiment]

    @pytest.mark.parametrize("block_points", [3, 64, 128])
    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
    def test_default_csv_hash_does_not_depend_on_block_size(self, experiment, block_points):
        # A run carries its held bases from block to block, so its walk, and
        # every byte of its CSV, is the same in blocks of any size: 34 blocks
        # of 3, two of 64 or one of 128.
        from perfbench.workloads import EXPECTED_SHA256

        config = default_config(experiment)
        rows = sweep_rows(experiment, config.grid(), config.lp_tol, block_points=block_points)
        text = rows_to_csv(rows, MEASURE_COLUMNS[experiment])
        assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED_SHA256[experiment]


class TestRowBoundary:
    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
    def test_dispatch_row_once_per_row_in_grid_order(self, monkeypatch, experiment):
        # perfbench times rows by rebinding the module global: every row must
        # still come out of one call of it, in grid order, blocks of 4 here.
        calls = dispatched_rows(monkeypatch)
        config = default_config(experiment, start=0.1, stop=0.2, step=0.01)
        rows = sweep_rows(experiment, config.grid(), config.lp_tol, block_points=4)
        assert len(rows) == len(config.grid()) == 11
        assert [call.result.p for call in calls] == config.grid()
        assert all(row is call.result for row, call in zip(rows, calls))


def pivoting_lps(qubit_dict, twoq_dict, choi_atoms):
    """The LPs that still pivot: both programs' reference builds, H T, which
    no channel reference serves, and 20 seeded mixed qubit states inside the
    stabilizer octahedron (Bloch l1 norm below 1), from the references."""
    clear_program_caches()
    channel_program(choi_atoms), state_program(qubit_dict), state_program(twoq_dict)
    channel_robustness(unitary_channel(HADAMARD @ T_GATE), choi_atoms)
    rng = np.random.default_rng(3)
    for v, scale in zip(rng.normal(size=(20, 3)), rng.uniform(0.1, 0.95, size=20)):
        r = scale * v / np.abs(v).sum()
        rom_state(DensityOperator((np.eye(2) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2), qubit_dict)


LP_COLUMNS = {
    "fig2": ("channel_robustness", "rom_plus", "rom_minus"),
    "fig3": ("rob_sequential", "rob_switch_plus", "rob_switch_minus"),
}


class TestWarmStart:
    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_warm_values_match_cold_solves(self, monkeypatch, experiment):
        grid = default_config(experiment).grid()
        cold = oracle_rows(experiment, grid, 1e-6, cold=True)
        forward, solves = recorded_solves(monkeypatch, lambda: sweep_rows(experiment, grid, 1e-6))
        backward = sweep_rows(experiment, grid[::-1], 1e-6)[::-1]
        for warm in (forward, backward):
            for got, want in zip(warm, cold):
                assert got.p == want.p
                for m in LP_COLUMNS[experiment]:
                    assert got.status[m] == want.status[m], (got.p, m)
                    if math.isnan(want.values[m]):
                        assert math.isnan(got.values[m])
                    else:
                        assert abs(got.values[m] - want.values[m]) <= 1e-12, (got.p, m)
        # Only the first LP of each column holds no basis; it starts from its
        # program's reference starts, which serve it with no pivot: the
        # channel columns open at p = 0 on the noise-free end of their
        # family, fig3's minus branch on its own reference, and fig2's
        # branch states on a T-type state or I/2.  Every later LP is read
        # off a basis its column holds (iterations 0).
        first = [iterations for warm, iterations in solves if not warm]
        assert first == [0, 0, 0]
        assert all(iterations == 0 for _, iterations in solves)

    def test_each_run_starts_cold(self, monkeypatch, reference_starts):
        config = _tiny("fig3", stop=0.2, step=0.02)
        runs = []
        for _ in range(2):
            with monkeypatch.context() as patch:
                calls = spy(patch, experiments, "channel_robustness")
                runs.append((*recorded_solves(patch, lambda: run_fig3(config)), calls))
        (first, solves, calls), (second, again, calls_again) = runs
        # Nothing carries over from the first run: the second solves the
        # same LPs the same way, the first LP of each column from its
        # program's reference starts again, each read off one with no
        # pivot.  Both runs read the minus branch off its own reference,
        # not off a basis the first run left behind.
        assert solves == again
        cold = [k for k, (warm, _) in enumerate(solves) if not warm]
        assert len(cold) == 3 and [solves[k][1] for k in cold] == [0, 0, 0]
        for recorded in (calls, calls_again):
            # The minus branch is the one grid of one entry.
            [solution] = [c.result for c in recorded if c.args[0].kraus_ops.shape[:-3] == (1,)]
            assert solution.iterations.tolist() == [0] and solution.warm_start[0] is reference_starts[0]
        assert rows_to_csv(first, MEASURE_COLUMNS["fig3"]) == rows_to_csv(second, MEASURE_COLUMNS["fig3"])

    def test_nearly_every_sweep_lp_reuses_its_basis(self, monkeypatch, reference_starts):
        # fig2 and fig3 on their default grids solve 485 LPs: 6 start from
        # their program's reference starts, and all but a few of the rest
        # are read off a basis their column holds.  The few that pivot take
        # at most 30 dual pivots in all; from cold first LPs they took 173.
        # The references are built first, so their own pivots are not
        # counted.
        (_, solves), pivots = pivots_by_caller(
            monkeypatch, lambda: recorded_solves(monkeypatch, lambda: (run_fig2(), run_fig3())))
        assert len(solves) == 485
        assert sum(iterations == 0 for _, iterations in solves) >= 480
        assert pivots["dual_pivot_loop"] <= 30

    def test_every_pivot_is_a_dual_pivot(self, monkeypatch, qubit_dict, twoq_dict, choi_atoms):
        # Each LP that is not read off a basis reaches its optimum in the dual
        # repair: neither Bland loop pivots.  The LPs that still pivot are
        # the reference builds, a channel no reference serves (H T) and
        # mixed qubit states inside the octahedron, and there is at least
        # one pivot.  A seeded channel search reads every LP off a reference
        # start or a basis it reached, and pivots not at all.
        (lo, hi), shift, _, _ = LP_CROSSINGS["fig2_channel_robustness"]
        s = np.random.default_rng(7).uniform(-shift, shift)
        pivots = pivots_by_caller(monkeypatch, lambda: pivoting_lps(qubit_dict, twoq_dict, choi_atoms))[1]
        assert pivots["dual_pivot_loop"] > 0 and set(pivots) == {"dual_pivot_loop"}
        search = lambda: find_threshold("fig2_channel_robustness", lo + s, hi + s, threshold_tol=1e-6)
        assert sum(pivots_by_caller(monkeypatch, search)[1].values()) == 0

    @pytest.mark.parametrize("experiment, fine_step", [("fig2", 0.0005), ("fig3", 0.0002)])
    def test_default_and_fine_sweeps_make_no_pivot(self, monkeypatch, reference_starts, experiment, fine_step):
        # Every LP of the default and the fine grid, 2,001 and 2,251 rows,
        # is read off a reference start or a basis its column holds: no
        # simplex pivot, and no LP reaches solve_standard_form.
        solves = spy(monkeypatch, lp, "solve_standard_form")
        for config in (default_config(experiment), default_config(experiment, step=fine_step)):
            rows, pivots = pivots_by_caller(monkeypatch, lambda: sweep_rows(experiment, config.grid(), config.lp_tol))
            assert len(rows) == len(config.grid()) and not pivots and solves == []

    def test_no_optimal_basis_holds_an_artificial(self, monkeypatch, qubit_dict, twoq_dict, choi_atoms):
        # Both programs have full row rank, so the dual repair drives every
        # artificial out of each optimal basis it reaches: the references'
        # and those of the LPs that pivot from them.
        references = spy(monkeypatch, lp, "optimal_start")
        solves = spy(monkeypatch, lp, "solve_standard_form")
        pivots = pivots_by_caller(monkeypatch, lambda: pivoting_lps(qubit_dict, twoq_dict, choi_atoms))[1]
        assert pivots["dual_pivot_loop"] > 0 and len(references) == 15 and len(solves) > 0
        bases = [(call.args[0], call.result) for call in references]
        bases += [(call.args[0], call.result.warm_start) for call in solves]
        assert all(start is not None and (start.basis < A.shape[1]).all() for A, start in bases)

    def test_default_fig2_builds_each_renormalized_solution_once(self, monkeypatch):
        # Each switch branch is renormalized, and its factor is reported on
        # the solution as it is first built, not through a copy.
        copies = spy(monkeypatch, dataclasses, "replace")
        if hasattr(lp, "replace"):
            spy(monkeypatch, lp, "replace", copies)
        built = spy(monkeypatch, experiments, "rom_state")  # a sweep scores each branch as a grid
        run_fig2()
        assert copies == []
        assert sum(int((call.result.renorm_factor != 1.0).sum()) for call in built) >= 150

    def test_one_solution_object_per_lp_call(self, monkeypatch):
        # A block's values, certificates and bases ride its grid axis, and
        # each default grid is one block: the default fig2 and fig3 build
        # one L1Solution per solve_l1 call (3 LP columns of fig2, 2 of fig3
        # and fig3's minus branch once), not one per row of their 485 LPs.
        built = spy(monkeypatch, lp.L1Solution, "__init__")
        calls = spy(monkeypatch, lp, "solve_l1")
        run_fig2()
        run_fig3()
        assert len(built) == len(calls) == 6
        assert sum(len(call.args[1]) if call.args[1].ndim == 2 else 1 for call in calls) == 485

    def test_fig3_minus_branch_is_solved_once_per_run(self, monkeypatch, reference_starts):
        # The minus-branch channel does not depend on p: each block scores
        # it as a grid of one, and a run's first block reads it off its own
        # reference start, with no pivot.
        original, minus = experiments.channel_robustness, []

        def solve(ch, atoms, basis=None):
            if ch.kraus_ops.shape[:-3] != (1,):
                return original(ch, atoms, basis=basis)
            solution, pivots = pivots_by_caller(monkeypatch, lambda: original(ch, atoms, basis=basis))
            minus.append((sum(pivots.values()), solution.warm_start[0]))
            return solution

        monkeypatch.setattr(experiments, "channel_robustness", solve)
        calls = spy(monkeypatch, experiments, "channel_robustness")
        # One block: the sequential and plus columns are grids of the 5
        # rows, and the minus branch one solve of a grid of one.
        rows = run_fig3(_tiny("fig3", start=0.0, stop=0.4))
        assert len(rows) == 5 and sorted(call.args[0].kraus_ops.shape[:-3] for call in calls) == [(1,), (5,), (5,)]
        assert minus == [(0, reference_starts[0])]
        # Blocks of 2: each later block reads the minus branch off the basis
        # its column holds, with no pivot, and every row gets the same value.
        minus.clear()
        blocks = sweep_rows("fig3", default_config("fig3", stop=0.35, step=0.05).grid(), 1e-6, block_points=2)
        assert minus == [(0, reference_starts[0])] * 4
        values = {(r.values["rob_switch_minus"], r.status["rob_switch_minus"]) for r in rows + blocks}
        assert len(values) == 1


class TestOutput:
    def test_csv_shape(self):
        rows = run_fig3(_tiny("fig3"))
        text = rows_to_csv(rows, MEASURE_COLUMNS["fig3"])
        lines = text.strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[0] == "p"
        assert "rob_sequential" in header and "rob_sequential_status" in header

    def test_json_round_trips(self):
        rows = run_fig3(_tiny("fig3"))
        payload = json.loads(rows_to_json(rows, MEASURE_COLUMNS["fig3"]))
        assert len(payload) == 3
        assert payload[0]["rob_sequential_status"] == "ok"

    @pytest.mark.parametrize("writer", [rows_to_csv, rows_to_json])
    @pytest.mark.parametrize("part", ["values", "status"])
    def test_a_row_missing_a_column_is_refused(self, writer, part):
        # A writer indexes each column of a row: a missing value or status
        # raises, and never prints as NaN or an invented "ok".
        row = run_fig3(_tiny("fig3"))[0]
        del getattr(row, part)["rob_sequential"]
        with pytest.raises(KeyError, match="rob_sequential"):
            writer([row], MEASURE_COLUMNS["fig3"])

    def test_write_rows_to_file(self, tmp_path):
        config = _tiny("fig3", output_path=str(tmp_path / "out.csv"))
        rows = run_fig3(config)
        text = write_rows(rows, config)
        assert (tmp_path / "out.csv").read_text() == text


# Each registered threshold measure and the sweep column it bisects.
THRESHOLD_COLUMNS = {
    "fig2_channel_robustness": ("fig2", "channel_robustness"),
    "fig2_rom_plus": ("fig2", "rom_plus"),
    "fig3_sequential": ("fig3", "rob_sequential"),
    "fig3_switch_plus": ("fig3", "rob_switch_plus"),
    "fig3_switch_minus": ("fig3", "rob_switch_minus"),
    "figs1_mana_channel": ("figs1", "mana_channel"),
    "figs1_mana_plus": ("figs1", "mana_plus"),
    "figs1_mana_minus": ("figs1", "mana_minus"),
}


class TestThresholdFinder:
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), LP_BRACKETS["fig2_channel_robustness"]], ids=["wide", "narrow"])
    def test_bisection_alone_finds_the_crossing(self, monkeypatch, lo, hi):
        # With no proposal the search bisects, and it consumes only the
        # bracket: any bracket around the crossing gives it to tolerance.
        proposed_roots(monkeypatch, injected=None)
        exact = LP_THRESHOLDS["fig2_channel_robustness"]
        res = find_threshold("fig2_channel_robustness", lo, hi, threshold_tol=1e-4)
        assert abs(res.threshold - exact) < 1e-4 and res.iterations > 3
        assert res.bracket[0] <= exact <= res.bracket[1] and res.bracket[1] - res.bracket[0] <= 1e-4

    @pytest.mark.parametrize("changes, status", [
        ({"residual": 1.0}, "check_failed"),
        ({"value": 0.5}, "below_floor"),
        ({"status": "infeasible", "value": math.nan}, "infeasible"),
        ({"status": "numerical_failure", "value": math.nan}, "numerical_failure"),
    ], ids=["check_failed", "below_floor", "infeasible", "numerical_failure"])
    def test_uncertified_value_is_refused(self, monkeypatch, changes, status):
        # A value whose LP failed its certificate, or failed outright, is
        # not bisected on: NaN would read as magic.  The search scores its
        # points as blocks, so every entry of each block gets the change.
        solve = experiments.channel_robustness
        monkeypatch.setattr(
            experiments, "channel_robustness", lambda *a, **k: block_replace(solve(*a, **k), **changes)
        )
        with pytest.raises(ValueError, match=rf"^measure fig2_channel_robustness has status {status} at p=0.2$"):
            find_threshold("fig2_channel_robustness", 0.2, 0.4, threshold_tol=1e-6)

    @pytest.mark.parametrize("bad, crossing, error", [
        ({0.5, 0.9}, True, "status check_failed at p=0.9"),
        ({0.1, 0.5, 0.9}, True, "status check_failed at p=0.1"),
        ({0.5}, False, None),
        ({0.5}, True, "status check_failed at p=0.5"),
    ], ids=["high-end", "low-end-first", "no-crossing-before-midpoint", "midpoint"])
    def test_opening_block_reads_the_ends_then_the_crossing_then_the_midpoint(
        self, monkeypatch, bad, crossing, error
    ):
        # The opening block [0.1, 0.5, 0.9] is scored at once, but its
        # statuses are read in the order of one point at a time: a bad end,
        # then a bracket with no crossing, then a bad midpoint.
        def toy(p, state=None):
            values = 1.0 + np.maximum(0.0, 0.37 - p) if crossing else np.full(len(p), 2.0)
            return values, ["check_failed" if x in bad else "ok" for x in p.tolist()]

        monkeypatch.setitem(MEASURES, "toy", (toy, 1.0))
        with pytest.raises(ValueError, match=f"^measure toy has {error}$") if error else pytest.raises(BracketError):
            find_threshold("toy", 0.1, 0.9)

    def test_degenerate_branch_is_refused(self):
        with pytest.raises(ValueError, match=r"^measure figs1_mana_minus has a degenerate branch at p=0.0$"):
            find_threshold("figs1_mana_minus", 0.0, 0.5)

    @pytest.mark.parametrize(
        "tols",
        [
            {"threshold_tol": 0.0},
            {"threshold_tol": -1.0},
            {"threshold_tol": math.nan},
            {"threshold_tol": math.inf},
            {"lp_tol": math.nan},
            {"lp_tol": -1.0},
            {"lp_tol": math.inf},
        ],
        ids=repr,
    )
    def test_bad_tolerance_is_rejected(self, monkeypatch, tols):
        evaluated = recorded_evaluations(monkeypatch, "fig2_rom_plus")
        with pytest.raises(ValueError, match=next(iter(tols))):
            find_threshold("fig2_rom_plus", lo=0.5, hi=0.7, **tols)
        assert evaluated == []

    @pytest.mark.parametrize("bisected", [True, False], ids=["bisected", "fig2_rom_plus"])
    def test_tiny_tolerance_terminates(self, monkeypatch, bisected):
        # No float lies strictly between two neighbours, so the search stops
        # there instead of bisecting forever, with or without a proposal.
        if bisected:
            proposed_roots(monkeypatch, injected=None)
        res = find_threshold("fig2_rom_plus", lo=0.5, hi=0.7, threshold_tol=1e-300)
        assert math.nextafter(res.bracket[0], 1.0) == res.bracket[1]
        assert res.iterations < 70

    @pytest.mark.parametrize("lo, hi", [(math.nan, 0.4), (0.2, math.nan), (0.2, math.inf)])
    def test_non_finite_bracket_is_rejected_before_any_evaluation(self, monkeypatch, lo, hi):
        evaluated = recorded_evaluations(monkeypatch, "fig2_channel_robustness")
        with pytest.raises(ValueError, match="not a finite number"):
            find_threshold("fig2_channel_robustness", lo=lo, hi=hi)
        assert evaluated == []

    @pytest.mark.parametrize("measure, lo, hi", [
        ("fig2_channel_robustness", 0.1, 2.0),
        ("fig2_channel_robustness", -0.1, 0.4),
        # Its channel accepts p = 1.2, which no sweep grid reaches.
        ("fig3_sequential", 0.1, 1.2),
    ])
    def test_bracket_outside_the_unit_interval_is_rejected_before_any_evaluation(self, monkeypatch, measure, lo, hi):
        # The message names the bracket given, not a midpoint of it.
        evaluated = recorded_evaluations(monkeypatch, measure)
        with pytest.raises(ValueError, match=rf"^bracket \[{lo}, {hi}\] leaves \[0, 1\], the range of p$"):
            find_threshold(measure, lo=lo, hi=hi)
        assert evaluated == []

    @pytest.mark.parametrize("measure", ["no_such_measure", "pair"])
    def test_unknown_measure_name(self, measure):
        # Only a registered name is searched: a (callable, floor) pair is an
        # unknown measure, refused before its callable is called.
        def refuse(p):
            raise AssertionError("the pair's callable was called")

        with pytest.raises(KeyError, match=r"unknown measure .*; known: " + re.escape(str(sorted(MEASURES)))):
            find_threshold((refuse, 1.0) if measure == "pair" else measure, lo=0.1, hi=0.9)

    def test_registry_names(self):
        assert "fig2_channel_robustness" in MEASURES
        assert "figs1_mana_plus" in MEASURES

    def test_registry_names_floors_and_order(self):
        assert list(MEASURES) == list(THRESHOLD_COLUMNS)
        assert [floor for _, floor in MEASURES.values()] == [1.0] * 5 + [0.0] * 3

    @pytest.mark.parametrize("name", list(THRESHOLD_COLUMNS))
    def test_threshold_measure_equals_cold_sweep_column(self, name):
        # A registered measure scores a block as a sweep run's first block.
        experiment, column = THRESHOLD_COLUMNS[name]
        block = [0.2, 0.3, 0.5]
        rows = sweep_rows(experiment, block, 1e-6)
        values, statuses = MEASURES[name][0](np.array(block))
        assert list(values) == [row.values[column] for row in rows]
        assert list(statuses) == [row.status[column] for row in rows] == ["ok"] * 3

    @pytest.mark.parametrize("p", [0.3, np.array([[0.3, 0.4]])], ids=["number", "2-D"])
    def test_registered_measure_scores_only_a_1d_block(self, p):
        with pytest.raises(ValueError, match="1-D array"):
            MEASURES["fig2_rom_plus"][0](p)

    @pytest.mark.parametrize("name", ["fig2_channel_robustness", "fig3_sequential", "figs1_mana_channel"])
    def test_channel_measures_build_no_switch(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a channel measure built a switch")

        monkeypatch.setattr(experiments, "build_switch", refuse)
        monkeypatch.setattr(experiments, "effective_t_channels", refuse)
        MEASURES[name][0](np.array([0.3]))


# Crossing LP measures: benchmark bracket, half-width of its seeded shift,
# closed-form threshold and the agreement the proposal must reach at lp_tol=1e-12.
LP_CROSSINGS = {
    name: (LP_BRACKETS[name], shift, LP_THRESHOLDS[name], within)
    for name, shift, within in (("fig2_channel_robustness", 0.05, 1e-12), ("fig2_rom_plus", 0.05, 1e-12),
                                ("fig3_sequential", 0.03, 1e-10), ("fig3_switch_plus", 0.03, 1e-10))
}


# Mana crossings: bracket, half-width of its seeded shift and closed form.
_C = 2 * (2 * math.cos(math.pi / 9) - 1)
MANA_CROSSINGS = {
    "figs1_mana_channel": ((0.3, 0.6), 0.05, 2 - 2 * math.cos(2 * math.pi / 9)),
    # The root in (0, 1) of p^2 + c (p - 1), c = 2 (2 cos(pi/9) - 1).
    "figs1_mana_plus": ((0.5, 0.9), 0.05, (math.sqrt(_C * _C + 4 * _C) - _C) / 2),
}


def free_slack(name):
    """How far above its floor registered measure ``name`` still reads free:
    a mana measure only where its mana reads 0."""
    return DEFAULT_TOL.mana_zero if name in MANA_CROSSINGS else DEFAULT_TOL.lp_value


def one_point(name):
    """Registered ``name`` scored alone, and its floor: the callable p ->
    value scores a block of one from a cold start, and refuses a status
    other than ``ok``."""
    registered, floor = MEASURES[name]

    def value(p):
        (value,), (status,) = registered(np.array([p]))
        if status != "ok":
            raise ValueError(f"{name} has status {status} at p={p}")
        return value

    return value, floor


def reads_free(name, p):
    """Whether registered ``name`` reads free at ``p``, scored alone."""
    fn, floor = one_point(name)
    return bool(fn(p) <= floor + free_slack(name))


def bisection_oracle(name, lo, hi, tol):
    """Plain bisection, sharing no code with the search: registered ``name``
    scored cold, one point at a time, at the level a search uses, until the
    bracket is no wider than ``tol`` or no float lies strictly inside it.
    The threshold is the final bracket's midpoint, and ``iterations`` counts
    the midpoints scored."""
    fn, floor = one_point(name)
    level = floor + free_slack(name)
    bracket, iterations = [lo, hi], 0
    free_lo = bool(fn(lo) <= level)
    assert free_lo != bool(fn(hi) <= level), f"{name} has no crossing on [{lo}, {hi}]"
    while bracket[1] - bracket[0] > tol and bracket[0] < (mid := 0.5 * (bracket[0] + bracket[1])) < bracket[1]:
        bracket[bool(fn(mid) <= level) != free_lo] = mid
        iterations += 1
    return ThresholdResult(name, 0.5 * (bracket[0] + bracket[1]), tuple(bracket), iterations)


# min x1 + x2 s.t. x1 - x2 = p - 0.3, whose value is |p - 0.3|, and the fit
# of its samples at scale s(p) = 1 + p: the polynomials s b = (1 + p)(p - 0.3)
# and s, coefficients along axis 0.
ABS_A = np.array([[1.0, -1.0]])
ABS_FIT = np.array([[-0.3, 1.0], [0.7, 1.0], [1.0, 0.0]])


class TestWalkedThresholds:
    """Registered measures propose their crossing from their fit samples, an
    LP measure from the optimal basis at the narrowed bracket's low end; the
    measure itself confirms it."""

    @pytest.mark.parametrize("name", list(LP_CROSSINGS))
    def test_matches_closed_form(self, name):
        (lo, hi), _, exact, within = LP_CROSSINGS[name]
        res = find_threshold(name, lo, hi, lp_tol=1e-12)
        # Bisection at the default threshold_tol (1e-3) would be off by up
        # to 5e-4; only the proposed root is this close.
        assert abs(res.threshold - exact) <= within
        assert res.bracket[0] < res.threshold < res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= 1e-3

    @pytest.mark.parametrize("name", list(LP_CROSSINGS))
    def test_lies_in_the_bisection_oracle_bracket(self, name):
        (lo, hi), shift, _, _ = LP_CROSSINGS[name]
        rng = np.random.default_rng(sorted(LP_CROSSINGS).index(name))
        for s in rng.uniform(-shift, shift, size=3):
            res = find_threshold(name, lo + s, hi + s, threshold_tol=1e-6)
            oracle = bisection_oracle(name, lo + s, hi + s, 1e-10)
            assert oracle.bracket[0] <= res.threshold <= oracle.bracket[1]
            assert res.bracket[1] - res.bracket[0] <= 1e-6
            assert res.bracket[0] <= oracle.threshold <= res.bracket[1]
            assert res.iterations <= 10  # bisection takes 18 here

    def test_seeded_searches_keep_their_path(self):
        # 600 searches, as the benchmark draws them: seeds 0-99, each
        # shifting the bracket of every registered measure in turn.  Each
        # confirms its proposed root in 3 iterations, and the roots and
        # brackets keep their digest, at 12 significant digits as the CSV
        # pins are, so that BLAS last bits do not matter.
        from perfbench.workloads import THRESHOLDS

        assert len(THRESHOLDS) == 6 and set(THRESHOLDS) <= set(MEASURES)
        lines = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for name, ((lo, hi), shift, _, _) in THRESHOLDS.items():
                s = rng.uniform(-shift, shift)
                res = find_threshold(name, lo + s, hi + s, threshold_tol=1e-6)
                assert res.iterations == 3, (seed, name)
                low, high = res.bracket
                lines.append(f"{name},{res.threshold:.12g},{low:.12g},{high:.12g},{res.iterations}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "038520116b50c5a737673f5b85fbe2c0c82922f5fdc81ca85145b6962d71bcf3"

    @pytest.mark.parametrize("wrong_proposal", [False, True], ids=["walked", "bisected"])
    @pytest.mark.parametrize("name", list(LP_CROSSINGS))
    def test_only_the_first_lp_of_a_search_starts_cold(self, monkeypatch, name, wrong_proposal):
        # One run state serves the opening block (the ends and the bisection
        # step), the probe block, and the bisection after a wrong proposal.
        (lo, hi), _, exact, _ = LP_CROSSINGS[name]
        proposals = proposed_roots(monkeypatch, injected=exact + 1e-3 if wrong_proposal else ...)
        evaluated = recorded_evaluations(monkeypatch, name)
        _, solves = recorded_solves(monkeypatch, lambda: find_threshold(name, lo, hi, threshold_tol=1e-6))
        assert [warm for warm, _ in solves] == [False] + [True] * (len(solves) - 1)
        # Ends, one bisection step and two probes, then bisection, one
        # point per block.
        assert len(solves) > 5 if wrong_proposal else len(solves) == 5
        assert evaluated[0] == [lo, 0.5 * (lo + hi), hi]
        assert all(len(block) == 1 for block in evaluated[2:])
        # The probe block holds both probes of the proposed root.  The
        # injected one lies on the free side, where the first probe moves
        # the bracket past the second, which is discarded.
        ((_, root),) = proposals
        half = 0.5e-6 - math.ulp(root)
        assert evaluated[1] == [root - half, root + half]
        assert len(evaluated) > 2 if wrong_proposal else len(evaluated) == 2

    def test_fig2_channel_search_reads_most_lps_off_held_bases(self, monkeypatch):
        # The run state holds the last few optimal bases of the search: the
        # midpoint and both probes lie inside the region of the basis at one
        # bracket end, and are read off it with no pivot.
        (lo, hi), shift, _, _ = LP_CROSSINGS["fig2_channel_robustness"]
        for s in np.random.default_rng(23).uniform(-shift, shift, size=4):
            res, solves = recorded_solves(
                monkeypatch, lambda: find_threshold("fig2_channel_robustness", lo + s, hi + s, threshold_tol=1e-6)
            )
            assert res.iterations == 3 and len(solves) == 5
            assert sum(warm and iterations == 0 for warm, iterations in solves) >= 3

    @pytest.mark.parametrize("name", [
        "fig2_channel_robustness", "fig3_sequential", "fig3_switch_plus", "fig2_rom_plus"])
    def test_channel_searches_make_no_pivot(self, monkeypatch, reference_starts, name):
        # The channel references serve each family over its scored range,
        # and the T-type and maximally mixed state references fig2's plus
        # branch, so a seeded search reads every LP off a reference or a
        # basis it holds, and still confirms its proposed root in 3
        # iterations.
        (lo, hi), shift, _, _ = LP_CROSSINGS[name]
        s = np.random.default_rng(5).uniform(-shift, shift)
        res, pivots = pivots_by_caller(monkeypatch, lambda: find_threshold(name, lo + s, hi + s, threshold_tol=1e-6))
        assert res.iterations == 3 and sum(pivots.values()) == 0

    @pytest.mark.parametrize("name, lo, hi", [
        *((name, *LP_CROSSINGS[name][0]) for name in LP_CROSSINGS), ("figs1_mana_channel", 0.3, 0.6)
    ])
    def test_every_evaluation_goes_through_the_registered_measure(self, monkeypatch, name, lo, hi):
        # Wrap MEASURES[name] in place, as perfbench's tracer does: the
        # search, its proposal included, may reach the measure only through
        # the wrapper, one call per block, never the function behind it by
        # the name the package looks it up by.
        evaluated = recorded_evaluations(monkeypatch, name)
        bypassing = threshold_value_calls(monkeypatch)
        find_threshold(name, lo, hi, threshold_tol=1e-6)
        # The opening block (ends and one bisection step), then the probes.
        assert bypassing == [] and len(evaluated) == 2

    def test_p_independent_measure_still_has_no_crossing(self):
        with pytest.raises(BracketError):
            find_threshold("fig3_switch_minus", 0.2, 0.35, threshold_tol=1e-6)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10])
    @pytest.mark.parametrize("name", list(MANA_CROSSINGS))
    def test_figs1_thresholds_match_closed_forms(self, name, tol):
        # Mana reads 0 up to mana_zero, which it reaches 5.5e-10 (channel)
        # and 6.8e-10 (plus branch) in p before its Wigner entries turn
        # nonnegative at the closed form.  The proposal aims there, so the
        # probes straddle it at every tolerance; aimed at the closed form,
        # both fell inside that band at 1e-9 and 1e-10, and the search
        # bisected 27-31 times.
        (lo, hi), _, exact = MANA_CROSSINGS[name]
        res = find_threshold(name, lo, hi, threshold_tol=tol)
        assert 0 < exact - res.threshold <= 1e-9
        assert res.iterations == 3
        oracle = bisection_oracle(name, lo, hi, 1e-13)
        assert res.bracket[0] <= oracle.bracket[0] < oracle.bracket[1] <= res.bracket[1]

    def test_mana_minus_has_no_crossing(self):
        # Its Wigner entries are c p (1 - p) with one c < 0: mana never
        # reads 0 inside (0, 1), however small it gets near p = 1.
        assert "figs1_mana_minus" in MEASURES
        with pytest.raises(BracketError):
            find_threshold("figs1_mana_minus", 0.5, 0.999999, threshold_tol=1e-6)

    @pytest.mark.parametrize("name", list(MANA_CROSSINGS))
    def test_failed_mana_fit_is_plain_bisection(self, monkeypatch, name):
        # The interior sample is the first bisection step, so a search whose
        # fit fails is plain bisection, down to its iterations.
        (lo, hi), _, exact = MANA_CROSSINGS[name]
        fits = []
        monkeypatch.setattr(experiments, "fit_polynomial", lambda *args: fits.append(args))  # returns None: no fit
        proposals = proposed_roots(monkeypatch, mana=True)
        res = find_threshold(name, lo, hi, threshold_tol=1e-6)
        assert len(fits) == 1 and proposals == []
        assert res == bisection_oracle(name, lo, hi, 1e-6)
        # Mana reads 0 up to mana_zero, a few 1e-10 in p past the root.
        assert res.bracket[0] - 1e-9 <= exact <= res.bracket[1] + 1e-9

    @pytest.mark.parametrize("name, lo, hi, exact", [
        ("fig2_channel_robustness", 0.5, 0.8, 1 - 1 / math.sqrt(2)),
        ("fig2_rom_plus", 0.7, 0.95, 2 - math.sqrt(2)),
        *((name, *(end ** (1 / 3) for end in MANA_CROSSINGS[name][0]), MANA_CROSSINGS[name][2])
          for name in MANA_CROSSINGS),
    ])
    def test_probes_refute_a_proposal_from_samples_that_are_not_quadratic(self, monkeypatch, name, lo, hi, exact):
        # Noise of strength p^3: the samples are polynomials of degree 3 and
        # more, so the quadratic through three of them proposes a wrong
        # root.  The probes read it, and the search bisects on to a bracket
        # whose ends the measure itself reads on opposite sides of the level.
        builders = {"fig2": ("noisy-th", noisy_th_channel), "figs1": ("qutrit-noisy-th", qutrit_noisy_th_channel)}
        key, build = builders[name.split("_")[0]]
        monkeypatch.setitem(experiments.CHANNELS, key, lambda p: build(p**3))
        proposals = proposed_roots(monkeypatch, mana=name in MANA_CROSSINGS)
        evaluated = recorded_evaluations(monkeypatch, name)
        res = find_threshold(name, lo, hi, threshold_tol=1e-6)
        ((_, root),) = proposals
        half = 0.5e-6 - math.ulp(root)
        assert abs(root - exact ** (1 / 3)) > 1e-5
        assert evaluated[1] and set(evaluated[1]) <= {root - half, root + half}
        assert res.iterations > 3 and res.threshold != root
        assert reads_free(name, res.bracket[0]) != reads_free(name, res.bracket[1])
        assert res.bracket[1] - res.bracket[0] <= 1e-6 and abs(res.threshold - exact ** (1 / 3)) < 1e-6

    @pytest.mark.parametrize("name", [*LP_CROSSINGS, *MANA_CROSSINGS])
    def test_every_seeded_search_takes_three_iterations(self, name):
        (lo, hi), shift, exact = {**LP_CROSSINGS, **MANA_CROSSINGS}[name][:3]
        rng = np.random.default_rng([*LP_CROSSINGS, *MANA_CROSSINGS].index(name))
        brackets = [(lo + s, hi + s) for s in rng.uniform(-shift, shift, size=25)]
        # Wide brackets, anywhere from the edge of the noise range to the
        # crossing on each side: the low end's basis still reaches the root.
        edge = 0.45 if name.startswith("fig3") else 0.99
        brackets += zip(rng.uniform(0.01, exact - 0.01, size=5), rng.uniform(exact + 0.01, edge, size=5))
        for a, b in brackets:
            res = find_threshold(name, a, b, threshold_tol=1e-6)
            assert res.iterations == 3
            assert res.bracket[0] < res.threshold < res.bracket[1] and res.bracket[1] - res.bracket[0] <= 1e-6
            assert reads_free(name, res.bracket[0]) != reads_free(name, res.bracket[1])
            assert abs(res.threshold - bisection_oracle(name, a, b, 1e-6).threshold) <= 1e-6

    @pytest.mark.parametrize("offset", [1e-3, -2e-7, 5.0])
    def test_wrong_proposal_still_gives_a_correct_bracket(self, monkeypatch, offset):
        oracle = bisection_oracle("fig2_rom_plus", 0.5, 0.7, 1e-10)
        injected = oracle.threshold + offset
        proposals = proposed_roots(monkeypatch, injected=injected)
        evaluated = recorded_evaluations(monkeypatch, "fig2_rom_plus")
        res = find_threshold("fig2_rom_plus", 0.5, 0.7, threshold_tol=1e-6)
        fn, floor = one_point("fig2_rom_plus")
        lo, hi = res.bracket
        assert hi - lo <= 1e-6
        assert fn(lo) > floor + DEFAULT_TOL.lp_value >= fn(hi)
        assert lo <= oracle.threshold <= hi
        # The search scores the injected root's probes as one block while
        # they lie inside its bracket: at 1e-3 the first probe reads free
        # and moves the bracket past the second, which is discarded; at
        # -2e-7 the two straddle the crossing and confirm the root; at 5
        # neither lies in the bracket, and no probe block is scored.
        assert len(proposals) == 1
        half = 0.5e-6 - math.ulp(injected)
        probes = [injected - half, injected + half]
        assert (evaluated[1] == probes) == (offset != 5.0)
        assert all(len(block) == 1 for block in evaluated[2 if offset != 5.0 else 1 :])
        assert (res.threshold == injected) == (offset == -2e-7)

    @pytest.mark.parametrize("lo, hi, floor, first_basis", [(0.0, 0.25, 0.1, True), (0.29, 0.4, 0.01, False)])
    def test_proposal_on_a_toy_lp(self, monkeypatch, lo, hi, floor, first_basis):
        # |p - 0.3| reaches the level 0.3 -+ level on one side of its kink.
        # From (0, 0.25) the search narrows to (0.125, 0.25): the basis of
        # x2 = 0.3 - p there reaches the root.  From (0.29, 0.4) it narrows
        # to (0.29, 0.345), whose low end's basis stops at the kink; only
        # the basis of x1 = p - 0.3 reaches the root, so the search bisects.
        def toy(p, state=None):
            b = (p - 0.3)[:, None]
            values, _ = scored_block(p, state or run_state(), "toy", lp.solve_l1, ABS_A, b, scale=1.0 + p)
            return values, ["ok"] * len(p)  # |p - 0.3| < 1 reads below the robustness floor

        monkeypatch.setitem(MEASURES, "toy", (toy, floor))
        proposals = proposed_roots(monkeypatch)
        level = floor + DEFAULT_TOL.lp_value
        root = 0.3 - level if first_basis else 0.3 + level
        res = find_threshold("toy", lo, hi, threshold_tol=1e-6)
        ((bracket, proposed),) = proposals
        assert res.bracket[0] < root < res.bracket[1] and res.bracket[1] - res.bracket[0] <= 1e-6
        values, _ = toy(np.array(res.bracket))
        assert (values[0] <= level) != (values[1] <= level)
        if first_basis:
            assert bracket == (0.125, 0.25)
            assert abs(proposed - root) < 1e-15 and res.threshold == proposed and res.iterations == 3
        else:
            assert bracket == (0.29, 0.345)
            assert proposed is None and res.iterations > 3


@pytest.mark.parametrize("p, lo, hi, level, want", [
    (0.0, 0.0, 0.3, 0.1, 0.2),  # the root lies where the basis of x2 is optimal
    (0.25, 0.25, 1.0, 0.1, None),  # only the basis of x1 reaches 0.4
    (0.25, 0.25, 1.0, -0.05, None),  # the basis's root 0.35 has x2 < 0
    (0.0, 0.0, 0.1, 0.1, None),  # the root 0.2 lies past the bracket
])
def test_basis_root(p, lo, hi, level, want):
    # The optimal basis of the one entry of a block.
    root = basis_root(lp.solve_l1(ABS_A, np.array([[p - 0.3]])), 0, ABS_FIT, level, lo, hi)
    assert root == want if want is None else abs(root - want) < 1e-15


def test_fit_polynomial_interpolates_three_points():
    t = np.array([0.1, 0.4, 0.2])
    quadratic = np.column_stack([1 - 2 * t + 3 * t**2, np.full(3, 0.5)])
    fit = experiments.fit_polynomial(t, quadratic)
    assert np.allclose(fit, [[1.0, 0.5], [-2.0, 0.0], [3.0, 0.0]], atol=1e-12)
    # Wigner columns W[v, u] keep their shape, one coefficient per axis-0 entry.
    columns = quadratic[:, :, None] * np.ones((1, 1, 3))
    assert np.array_equal(experiments.fit_polynomial(t, columns), fit[:, :, None] * np.ones((1, 1, 3)))
    # A repeated point leaves no unique quadratic, and so does a fourth point.
    assert experiments.fit_polynomial(t[[0, 1, 1]], quadratic) is None
    assert experiments.fit_polynomial([*t, 0.5], [*quadratic, quadratic[0]]) is None


def test_sampled_mana_evaluation_builds_one_wigner_function(monkeypatch):
    calls = channel_wigner_builds(monkeypatch)
    # A search's opening block: one Wigner build for its three points.
    state = run_state(sampling=True)
    values, _ = MEASURES["figs1_mana_channel"][0](np.array([0.3, 0.4, 0.5]), state=state)
    assert len(calls) == 1 and len(state.samples) == 1
    (p, _, wigner), = state.samples
    assert p.tolist() == [0.3, 0.4, 0.5] and wigner.shape == (3, 9, 9)
    assert np.array_equal(values, mana_of_wigner(wigner, channel=True))


def test_search_logs_one_info_line(monkeypatch, caplog):
    with caplog.at_level("INFO", logger="magicswitch.experiments"):
        res = find_threshold("fig2_rom_plus", 0.5, 0.7, threshold_tol=1e-6)
        proposed_roots(monkeypatch, injected=None)
        plain = find_threshold("fig2_rom_plus", 0.5, 0.7, threshold_tol=1e-2)
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [
        f"threshold fig2_rom_plus: {found.threshold:.12g} in [{found.bracket[0]:.12g}, {found.bracket[1]:.12g}] "
        f"after {count} evaluations, {how}"
        for found, count, how in ((res, 5, "root proposed"), (plain, 7, "bisected"))
    ]


# Every registered measure with a crossing and its benchmark bracket.
SEARCH_BRACKETS = {name: crossing[0] for name, crossing in {**LP_CROSSINGS, **MANA_CROSSINGS}.items()}


@pytest.mark.parametrize("name", list(SEARCH_BRACKETS))
def test_a_confirmed_search_calls_its_measure_twice(monkeypatch, caplog, name):
    # Once with the opening block [lo, mid, hi], in p order, and once with
    # both probes of the confirmed root; the INFO line counts the points.
    lo, hi = SEARCH_BRACKETS[name]
    evaluated = recorded_evaluations(monkeypatch, name)
    with caplog.at_level("INFO", logger="magicswitch.experiments"):
        res = find_threshold(name, lo, hi, threshold_tol=1e-6)
    half = 0.5e-6 - math.ulp(res.threshold)
    assert evaluated == [[lo, 0.5 * (lo + hi), hi], [res.threshold - half, res.threshold + half]]
    assert res.iterations == 3 and list(res.bracket) == evaluated[1]
    (record,) = caplog.records
    assert record.getMessage().endswith("after 5 evaluations, root proposed")


def test_a_discarded_probe_is_scored_but_narrows_nothing(monkeypatch, caplog):
    # A proposal 1e-3 past the crossing, on the free side: the first probe
    # moves the bracket past the second, which is discarded.  The INFO line
    # counts every point scored; iterations leaves out the two ends and the
    # discarded probe.
    oracle = bisection_oracle("fig2_rom_plus", 0.5, 0.7, 1e-10)
    injected = oracle.threshold + 1e-3
    proposed_roots(monkeypatch, injected=injected)
    evaluated = recorded_evaluations(monkeypatch, "fig2_rom_plus")
    with caplog.at_level("INFO", logger="magicswitch.experiments"):
        res = find_threshold("fig2_rom_plus", 0.5, 0.7, threshold_tol=1e-6)
    half = 0.5e-6 - math.ulp(injected)
    assert evaluated[1] == [injected - half, injected + half]
    assert injected + half > res.bracket[1]
    scored = sum(map(len, evaluated))
    assert scored > 5 and res.iterations == scored - 3
    (record,) = caplog.records
    assert record.getMessage().endswith(f"after {scored} evaluations, bisected")


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("name", list(SEARCH_BRACKETS))
def test_seeded_block_searches_contain_the_bisection_oracle(name, tol):
    # Ten seeded shifts of the benchmark bracket: each search confirms its
    # proposal (3 iterations), and its bracket holds the threshold plain
    # bisection finds one point at a time, 16 times finer.
    (lo, hi), shift = {**LP_CROSSINGS, **MANA_CROSSINGS}[name][:2]
    for s in np.random.default_rng(7).uniform(-shift, shift, size=10):
        res = find_threshold(name, lo + s, hi + s, threshold_tol=tol)
        oracle = bisection_oracle(name, lo + s, hi + s, tol / 16)
        assert res.iterations == 3
        assert res.bracket[0] <= oracle.threshold <= res.bracket[1]


class TestRoundingFloor:
    """An lp_tol of 0 must not read a free LP's 1 +- a few ulps as magic."""

    def test_threshold_at_zero_lp_tol(self):
        # A free LP at p = 0.35 returns 1 + 1 ulp: without the rounding floor
        # both bracket ends read magic and the search raised BracketError.
        (lo, hi), _, exact, _ = LP_CROSSINGS["fig3_sequential"]
        res = find_threshold("fig3_sequential", lo, hi, lp_tol=0.0)
        assert res.bracket[0] <= exact <= res.bracket[1]

    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_zero_lp_tol_tags_no_free_point(self, experiment):
        rows = run_experiment(default_config(experiment, lp_tol=0.0))
        below = [(row.p, m) for row in rows for m, status in row.status.items() if status == "below_floor"]
        assert below == []

    def test_floor_leaves_larger_lp_tol_alone(self):
        # The default level is floor + lp_tol exactly, bit for bit.
        assert _floor_slack(DEFAULT_TOL.lp_value) == DEFAULT_TOL.lp_value
        solution = lp.channel_robustness(noisy_th_channel(0.5), cspo_choi_atoms(enumerate_stabilizer_states(2)))
        cases = [
            (1.0 - 0.5 * DEFAULT_TOL.rounding, 0.0, "ok"),
            (1.0 - 2 * DEFAULT_TOL.rounding, 0.0, "below_floor"),
            (1.0 - 2e-6, DEFAULT_TOL.lp_value, "below_floor"),
            (1.0 - 2e-6, 0.0, "below_floor"),
        ]
        A, b = solution.standard_form
        one = lp.solve_l1(A, b[None])  # a block of one
        for value, lp_tol, status in cases:
            values = np.array([value])
            got_values, got_statuses = _certified_value(replace(one, value=values), lp_tol)
            assert got_values is values and got_statuses == [status]
        # A longer block applies the same rule to each entry.
        at_zero = [(value, status) for value, lp_tol, status in cases if lp_tol == 0.0]
        values = np.array([value for value, _ in at_zero])
        block = lp.solve_l1(A, np.tile(b, (len(values), 1)))
        got_values, got_statuses = _certified_value(replace(block, value=values), 0.0)
        assert got_values is values and got_statuses == [status for _, status in at_zero]


def block_replace(solution, **changes):
    """``solution``, a block, with each change given to every entry: the
    status as a list, any other field as an array."""
    n = len(solution.status)
    return replace(solution, **{
        key: [value] * n if key == "status" else np.full(n, value) for key, value in changes.items()
    })


def recorded_evaluations(monkeypatch, name):
    """The blocks of noise values a search scores with registered ``name``,
    in order, each a list."""
    registered, floor = MEASURES[name]
    evaluated = []

    def recorded(p, **kwargs):
        evaluated.append(p.tolist())
        return registered(p, **kwargs)

    monkeypatch.setitem(MEASURES, name, (recorded, floor))
    return evaluated


def scalar_appendix_c(d_values, n_points):
    """Reference: the appendix-C report built one grid point at a time."""
    report = {"n_points": n_points, "dimensions": {}}
    for d in d_values:
        switches = [EffectiveDepolarizingSwitch.from_noise(d, k / n_points) for k in range(1, n_points + 1)]
        gap = max([-math.inf, *(eff.p_plus - eff.sequential_strength() for eff in switches)])
        identity = max([0.0, *(eff.factored_identity_residual() for eff in switches)])
        report["dimensions"][d] = {"max_gap": gap, "max_identity_residual": identity, "strictly_negative": gap < 0.0}
    dimensions = report["dimensions"].values()
    gap = max([-math.inf, *(entry["max_gap"] for entry in dimensions)])
    identity = max([0.0, *(entry["max_identity_residual"] for entry in dimensions)])
    return {**report, "max_gap": gap, "max_identity_residual": identity, "strictly_negative": gap < 0.0}


class TestAppendixC:
    def test_report_structure(self):
        report = run_appendix_c(d_values=(2, 3), n_points=400)
        assert report["strictly_negative"]
        assert report["max_gap"] < 0.0
        assert report["max_identity_residual"] < 1e-12
        assert set(report["dimensions"]) == {2, 3}

    def test_whole_grid_matches_pointwise_loop(self):
        got = run_appendix_c(d_values=(2, 3, 5, 10), n_points=1000)
        want = scalar_appendix_c((2, 3, 5, 10), 1000)
        assert got == want
        assert json.dumps(got) == json.dumps(want)

    def test_numpy_integer_dimensions_give_the_same_json(self):
        dims = tuple(np.arange(2, 4))
        assert json.dumps(run_appendix_c(d_values=dims, n_points=50)) == json.dumps(run_appendix_c((2, 3), 50))

    @pytest.mark.parametrize(
        "d_values, n_points, message",
        [
            ((2, 3), 0, "n_points"),
            ((2, 3), -5, "n_points"),
            ((2, 3), MAX_GRID_POINTS + 1, "n_points"),
            ((2, 3), 10**12, "n_points"),
            ((1,), 10, "dimension"),
            ((2, 1), 10, "dimension"),
            ((), 10, "dimension"),
            ((2, 3), 2.5, "n_points"),
            ((2.5,), 10, "dimension"),
            ((2, 3, 2), 10, "dimension d=2 is given twice"),
        ],
    )
    def test_rejects_empty_or_degenerate_input(self, d_values, n_points, message):
        with pytest.raises(ValueError, match=message):
            run_appendix_c(d_values=d_values, n_points=n_points)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# sweep settings\n"
            "experiment = fig3\n"
            "start = 0.0\n"
            "stop = 0.2\n"
            "step = 0.1\n"
            "lp_tol = 1e-7\n"
            "out = data.csv\n"
            "format = json\n"
        )
        config = parse_config_file(str(path))
        assert config.experiment == "fig3"
        assert config.stop == 0.2
        assert config.lp_tol == 1e-7
        assert config.output_path == "data.csv"
        assert config.format == "json"

    @pytest.mark.parametrize("lines, flags, line, message", [
        # grid and tol are command-line flags; a file gives start, stop,
        # step and lp_tol instead.
        *((f"{key} = 2", {}, 2, f"unknown key '{key}'") for key in ("color", "jobs", "grid", "tol")),
        ("format = xml", {}, 2, "format must be csv or json, got 'xml'"),
        ("step = -1", {}, 2, "step must be positive and finite, got -1.0"),
        # A check that reads several settings names the earliest line that
        # gave one and that no flag overrode; a flag's value has no line.
        ("format = json\nstop = 0.2\nstart = 0.5", {}, 3, "grid must satisfy 0 <= start < stop <= 1, got [0.5, 0.2]"),
        ("stop = 0.2\nstart = 0.5", {"stop": 0.4}, 3, "grid must satisfy 0 <= start < stop <= 1, got [0.5, 0.4]"),
        ("format = json", {"step": -1.0}, None, "step must be positive and finite, got -1.0"),
    ], ids=["color", "jobs", "grid", "tol", "format", "step", "earliest-line", "flag-overrides-one", "flag-value"])
    def test_bad_setting_names_its_line(self, tmp_path, lines, flags, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"experiment = fig2\n{lines}\n")
        where = "" if line is None else f"{re.escape(str(path))}:{line}: "
        with pytest.raises(ValueError, match=f"^{where}{re.escape(message)}$"):
            parse_config_file(str(path), **flags)

    @pytest.mark.parametrize("first, second", [("step = 0.5", "step = 0.25"), ("out = a.csv", "output_path = b.csv")])
    def test_setting_given_twice(self, tmp_path, first, second):
        # The second line is refused, whichever of the two names of
        # output_path each line uses, rather than one of them silently winning.
        path = tmp_path / "bad.cfg"
        path.write_text(f"experiment = fig2\n{first}\n{second}\n")
        setting = "output_path" if first.startswith("out") else "step"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {setting} is already set on line 2$"):
            parse_config_file(str(path))

    def test_missing_experiment(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("start = 0.0\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))
