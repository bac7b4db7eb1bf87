import hashlib
import json
import math
from dataclasses import replace

import pytest

from magicswitch import experiments, lp
from magicswitch.config import DEFAULT_TOL
from magicswitch.qswitch import EffectiveDepolarizingSwitch
from magicswitch.experiments import (
    MEASURE_COLUMNS,
    MEASURES,
    BracketError,
    SweepConfig,
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

from conftest import pivot_walks


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
        assert default_config("appendixC_inequality").experiment == "appendix_c"

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
    base = dict(start=0.1, stop=0.3, step=0.1)
    base.update(overrides)
    return default_config(experiment, **base)


class TestSweeps:
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
        with pytest.raises(ValueError):
            run_experiment(default_config("appendix_c"))

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
                return replace(solution, **{certificate: 10 * DEFAULT_TOL.lp_residual})

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

    def test_parallel_rows_match_serial(self):
        serial = rows_to_csv(run_fig2(_tiny("fig2", jobs=1)), MEASURE_COLUMNS["fig2"])
        parallel = rows_to_csv(run_fig2(_tiny("fig2", jobs=2)), MEASURE_COLUMNS["fig2"])
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
    def test_default_csv_matches_reference_hash(self, experiment, jobs):
        # With jobs=2 each half of the grid is its own warm-started run.
        from perfbench.workloads import EXPECTED_SHA256

        rows = run_experiment(default_config(experiment, jobs=jobs))
        text = rows_to_csv(rows, MEASURE_COLUMNS[experiment])
        assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED_SHA256[experiment]


LP_COLUMNS = {
    "fig2": ("channel_robustness", "rom_plus", "rom_minus"),
    "fig3": ("rob_sequential", "rob_switch_plus", "rob_switch_minus"),
}


def phase1_iterations(monkeypatch, run):
    """Run ``run()``; return its result and the phase-1 pivot count of every
    LP it solved, in order."""
    result, walks = pivot_walks(monkeypatch, run)
    return result, [it for _, it in walks[::2]]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: runs the map in this process and
    records the worker count and the grid of each run."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.runs = []
        RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        for args in zip(*iterables):
            self.runs.append(list(args[1]))
            yield fn(*args)


class TestWarmStart:
    @pytest.mark.parametrize("experiment", ["fig2", "fig3"])
    def test_warm_values_match_cold_solves(self, monkeypatch, experiment):
        grid = default_config(experiment).grid()
        cold = [experiments._dispatch_row((experiment, p, 1e-6, experiments._RunState())) for p in grid]
        forward, phase1 = phase1_iterations(
            monkeypatch, lambda: experiments._run_rows(experiment, grid, 1e-6)
        )
        backward = experiments._run_rows(experiment, grid[::-1], 1e-6)[::-1]
        for warm in (forward, backward):
            for got, want in zip(warm, cold):
                assert got.p == want.p
                for m in LP_COLUMNS[experiment]:
                    assert got.status[m] == want.status[m], (got.p, m)
                    if math.isnan(want.values[m]):
                        assert math.isnan(got.values[m])
                    else:
                        assert abs(got.values[m] - want.values[m]) <= 1e-12, (got.p, m)
        # Nearly every LP after the first of its column starts from a basis
        # that phase 1 only has to confirm.
        assert sum(it == 1 for it in phase1) >= 0.9 * len(phase1)

    def test_each_run_starts_cold(self, monkeypatch):
        config = _tiny("fig3", stop=0.2, step=0.02)
        first, walk = phase1_iterations(monkeypatch, lambda: run_fig3(config))
        second, again = phase1_iterations(monkeypatch, lambda: run_fig3(config))
        assert walk == again and walk[0] > 1
        assert rows_to_csv(first, MEASURE_COLUMNS["fig3"]) == rows_to_csv(second, MEASURE_COLUMNS["fig3"])

    def test_fig3_minus_branch_is_solved_once_per_run(self, monkeypatch):
        calls = []

        def counting(ch, atoms, **kwargs):
            calls.append(ch)
            return lp.channel_robustness(ch, atoms, **kwargs)

        monkeypatch.setattr(experiments, "channel_robustness", counting)
        rows = run_fig3(_tiny("fig3", start=0.0, stop=0.4))
        assert len(rows) == 5 and len(calls) == 2 * 5 + 1
        values = {(r.values["rob_switch_minus"], r.status["rob_switch_minus"]) for r in rows}
        assert len(values) == 1

    @pytest.mark.parametrize(
        "jobs, rows, runs", [(2, 5, [3, 2]), (3, 7, [3, 2, 2]), (8, 3, [1, 1, 1])]
    )
    def test_jobs_split_the_grid_into_contiguous_runs(self, monkeypatch, jobs, rows, runs):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        RecordingPool.made.clear()
        config = _tiny("fig3", start=0.0, stop=0.01 * (rows - 1), step=0.01, jobs=jobs)
        got = run_fig3(config)
        (pool,) = RecordingPool.made
        assert pool.max_workers == len(runs)
        assert [len(run) for run in pool.runs] == runs
        assert [p for run in pool.runs for p in run] == config.grid() == [r.p for r in got]
        serial = run_fig3(replace(config, jobs=1))
        assert rows_to_csv(got, MEASURE_COLUMNS["fig3"]) == rows_to_csv(serial, MEASURE_COLUMNS["fig3"])


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
    def test_synthetic_crossing(self):
        measure = (lambda p: 1.0 + max(0.0, 0.37 - p), 1.0)
        res = find_threshold(measure, lo=0.1, hi=0.9, threshold_tol=1e-4)
        assert abs(res.threshold - 0.37) < 1e-4
        assert res.bracket[0] <= 0.37 <= res.bracket[1] + 1e-4

    def test_result_is_grid_independent(self):
        # Bisection consumes only the bracket, so any two brackets around
        # the same crossing agree to tolerance.
        measure = (lambda p: 1.0 + max(0.0, 0.37 - p), 1.0)
        a = find_threshold(measure, lo=0.0, hi=1.0, threshold_tol=1e-4)
        b = find_threshold(measure, lo=0.3, hi=0.4, threshold_tol=1e-4)
        assert abs(a.threshold - b.threshold) < 2e-4

    def test_no_crossing_is_reported(self):
        measure = (lambda p: 2.0, 1.0)
        with pytest.raises(BracketError):
            find_threshold(measure, lo=0.1, hi=0.9)

    def test_unknown_measure_name(self):
        with pytest.raises(KeyError):
            find_threshold("no_such_measure", lo=0.1, hi=0.9)

    def test_registry_names(self):
        assert "fig2_channel_robustness" in MEASURES
        assert "figs1_mana_plus" in MEASURES

    def test_registry_names_floors_and_order(self):
        assert list(MEASURES) == list(THRESHOLD_COLUMNS)
        assert [floor for _, floor in MEASURES.values()] == [1.0] * 5 + [0.0] * 3

    @pytest.mark.parametrize("name", list(THRESHOLD_COLUMNS))
    def test_threshold_measure_equals_cold_sweep_column(self, name):
        experiment, column = THRESHOLD_COLUMNS[name]
        row = experiments._dispatch_row((experiment, 0.3, 1e-6, experiments._RunState()))
        assert MEASURES[name][0](0.3) == row.values[column]

    @pytest.mark.parametrize("name", ["fig2_channel_robustness", "fig3_sequential", "figs1_mana_channel"])
    def test_channel_measures_build_no_switch(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a channel measure built a switch")

        monkeypatch.setattr(experiments, "build_switch", refuse)
        monkeypatch.setattr(experiments, "effective_t_channels", refuse)
        MEASURES[name][0](0.3)


def scalar_appendix_c(d_values, n_points):
    """Reference: the appendix-C report built one grid point at a time."""
    report = {"n_points": n_points, "dimensions": {}}
    overall_gap = -math.inf
    overall_identity = 0.0
    for d in d_values:
        worst_gap = -math.inf
        worst_identity = 0.0
        for k in range(1, n_points + 1):
            eff = EffectiveDepolarizingSwitch.from_noise(d, k / n_points)
            worst_gap = max(worst_gap, eff.p_plus - eff.sequential_strength())
            worst_identity = max(worst_identity, eff.factored_identity_residual())
        report["dimensions"][d] = {
            "max_gap": worst_gap,
            "max_identity_residual": worst_identity,
            "strictly_negative": worst_gap < 0.0,
        }
        overall_gap = max(overall_gap, worst_gap)
        overall_identity = max(overall_identity, worst_identity)
    report["max_gap"] = overall_gap
    report["max_identity_residual"] = overall_identity
    report["strictly_negative"] = overall_gap < 0.0
    return report


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

    @pytest.mark.parametrize(
        "d_values, n_points, message",
        [
            ((2, 3), 0, "n_points"),
            ((2, 3), -5, "n_points"),
            ((1,), 10, "dimension"),
            ((2, 1), 10, "dimension"),
            ((), 10, "dimension"),
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
            "jobs = 2\n"
        )
        config = parse_config_file(str(path))
        assert config.experiment == "fig3"
        assert config.stop == 0.2
        assert config.lp_tol == 1e-7
        assert config.output_path == "data.csv"
        assert config.format == "json"
        assert config.jobs == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("experiment = fig2\ncolor = red\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))

    def test_missing_experiment(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("start = 0.0\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))
