"""Tests of the benchmark's own code: span arithmetic, unwrapping after a
traced run, the correctness gate, and a smoke pass of every workload."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.__main__ import (
    END_TO_END_UNITS,
    SETUP_PARTS,
    Tally,
    best_wall,
    load_package,
    query_percentiles,
    traced_passes,
)
from perfbench.tracer import (
    MEASURE_REGISTRY,
    TRACE_POINTS,
    Span,
    Tracer,
    _resolve,
    covered_time,
    installed,
    layer_metrics,
    self_times,
    still_wrapped,
)
from perfbench.workloads import EXPECTED_SHA256, WORKLOADS, PassResult, check_csv, make_workload

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ms():
    return load_package(ROOT)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "experiments.row", 0.0, 10.0),
        Span(1, "lp.rom_state", 1.0, 4.0, parent=0),
        Span(2, "lp.solve_l1", 2.0, 3.5, parent=1),
        Span(3, "channels.build", 3.0, 6.0, parent=0),  # overlaps span 1 on [3, 4]
        Span(4, "lp.rom_state", 7.0, 9.0, parent=0),
        Span(5, "lp.rom_state", 7.5, 8.0, parent=4),  # same name, nested
        Span(6, "qswitch.build_switch", 9.5, 11.0, parent=0),  # clipped at 10
    ]
    selfs = self_times(spans)
    # Root: children cover [1, 6] + [7, 9] + [9.5, 10] = 7.5 of 10.
    assert selfs == pytest.approx({0: 2.5, 1: 1.5, 2: 1.5, 3: 3.0, 4: 1.5, 5: 0.5, 6: 1.5})
    assert covered_time(spans, {"lp.rom_state"}) == pytest.approx(5.0)
    metrics = layer_metrics(spans)
    assert metrics["lp.self_s"] == pytest.approx(1.5 + 1.5 + 1.5 + 0.5)
    assert metrics["experiments.self_s"] == pytest.approx(2.5)
    assert metrics["lp.state_calls"] == 3


def test_pivot_counts_split_by_phase():
    spans = [
        Span(0, "simplex.solve", 0.0, 5.0, info=(0, 8)),
        Span(1, "simplex.pivot_loop", 0.5, 1.0, parent=0, info=5),
        Span(2, "simplex.pivot_loop", 2.0, 3.0, parent=0, info=3),
        Span(3, "simplex.solve", 6.0, 7.0, info=(3, 4)),  # infeasible after phase 1
        Span(4, "simplex.pivot_loop", 6.1, 6.5, parent=3, info=4),
    ]
    metrics = layer_metrics(spans)
    assert metrics["simplex.pivots_phase1"] == 9
    assert metrics["simplex.pivots_phase2"] == 3
    assert metrics["simplex.max_pivots"] == 8
    assert metrics["simplex.nonoptimal"] == 1
    assert metrics["simplex.pivot_s"] == pytest.approx(1.9)


def test_estimators_take_whole_commands_at_their_fastest():
    passes = [
        PassResult({"fig2": 3.0, "fig3": 5.0}, [1.0, 4.0, 2.0]),
        PassResult({"fig2": 4.0, "fig3": 4.0}, [2.0, 3.0, 1.0]),
    ]
    assert best_wall(passes) == 7.0
    # Each unit at its fastest, [1, 3, 1]: no pass alone has a median of 1.
    assert query_percentiles(passes)[0] == 1.0


def _trace_targets():
    targets = {}
    for lookups in TRACE_POINTS.values():
        for lookup in lookups:
            owner, attr = _resolve(lookup)
            targets[lookup] = vars(owner)[attr]
    return targets


@pytest.fixture(scope="module")
def two_traced_runs(ms, tmp_path_factory):
    """Two traced point_queries runs on one seed, with the trace points
    (and measure registry) as they were before and after."""
    owner, attr = _resolve(MEASURE_REGISTRY)
    before = (_trace_targets(), dict(getattr(owner, attr)))
    runs = [traced_passes(make_workload("point_queries", ms, 5, tmp_path_factory.mktemp("q")), 1, 0, Tally())
            for _ in range(2)]
    after = (_trace_targets(), dict(getattr(owner, attr)))
    return before, after, runs


def test_wrappers_removed_after_traced_run(two_traced_runs):
    (targets, measures), (targets_after, measures_after), runs = two_traced_runs
    assert all(targets_after[key] is targets[key] for key in targets)
    assert measures_after == measures
    assert still_wrapped() == []
    traced, plain, per_pass, _, _ = runs[0]
    assert traced[0].failed == plain[0].failed == 0
    assert per_pass[0]["experiments.threshold_evals"] > 0


def test_traced_counts_repeat_on_one_seed(two_traced_runs):
    first, second = (run[2][0] for run in two_traced_runs[2])
    for key in ("simplex.pivots_phase1", "simplex.pivots_phase2", "simplex.max_pivots",
                "lp.channel_calls", "lp.state_calls", "experiments.threshold_evals"):
        assert first[key] == second[key] > 0


def test_mana_sweep_solves_no_lp(ms, tmp_path):
    _, _, per_pass, _, _ = traced_passes(make_workload("mana_sweep", ms, 5, tmp_path), 1, 0, Tally())
    assert per_pass[0]["lp.channel_calls"] == per_pass[0]["lp.state_calls"] == 0
    assert per_pass[0]["simplex.pivots_phase1"] == 0
    assert per_pass[0]["phasespace.wigner_channel_s"] > 0


def test_wrappers_removed_when_the_block_raises(ms):
    with pytest.raises(ZeroDivisionError):
        with installed(Tracer()):
            assert still_wrapped()
            1 / 0
    assert still_wrapped() == []


def test_gate_rejects_changed_csv_bytes(ms, tmp_path):
    ms.cli.main(["-q", "fig2", "--out", str(tmp_path / "fig2.csv")])
    data = (tmp_path / "fig2.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXPECTED_SHA256["fig2"]
    good, bad = PassResult({}, []), PassResult({}, [])
    check_csv(good, "fig2", data)
    check_csv(bad, "fig2", data.replace(b"1.00409162928", b"1.00409162927"))
    assert (good.attempted, good.failed) == (101, 0)
    assert (bad.attempted, bad.failed) == (101, 101)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_pass_passes_the_gate(ms, tmp_path, name):
    result = make_workload(name, ms, 11, tmp_path).run_pass(0)
    assert result.attempted > 0
    assert result.failed == 0, result.problems
    assert result.latencies_s and result.wall_s > 0


def test_point_query_batches_repeat_per_seed_and_change_per_pass(ms):
    first, second = (make_workload("point_queries", ms, 7, None) for _ in range(2))
    (queries, order), (again, order_again) = first.batch(3), second.batch(3)
    labels = [q.label for q in queries]
    assert labels == [q.label for q in again] and list(order) == list(order_again)
    next_queries, next_order = first.batch(4)
    repeated = set(labels) & {q.label for q in next_queries}
    assert repeated <= {"rom_state", "mana_state"}  # these labels carry no input
    # Slot j is the same kind of query on every pass, run in a fresh order.
    assert [q.label.split("[")[0] for q in next_queries] == [label.split("[")[0] for label in labels]
    assert list(next_order) != list(order)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "point_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layer_names = list(layer_metrics([])) + [f"setup.{k}" for k in SETUP_PARTS] + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == ("s" if m["name"].endswith("_s") else "count") for m in spec["per_layer"])
