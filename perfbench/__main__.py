"""Run one benchmark workload and print its metrics.

    python3 -m perfbench --workload robustness_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
that root, on the numpy path, with logging at WARNING.  Every output of
every pass is checked before any time is reported.

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (provenance,
sample counts, failures) and, for traced runs, every span go to
``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from .tracer import Tracer, installed, layer_metrics, still_wrapped
from .workloads import WORKLOADS, make_workload

SETUP_RUNS = 12       # fresh processes per run; setup_s is the fastest
SETUP_PARTS = ("import_s", "stabilizers_s", "frame_s", "first_solve_s")
MIN_PASSES = 3        # timed passes per run, however short --seconds is
TRACED_PASSES = 3     # traced passes per traced run; per-layer values are medians
# Seconds one pass of each workload took at the commit that introduced the
# benchmark (2-vCPU x86-64 VM).  A run makes a fixed number of passes,
# --seconds over this, so two commits are timed on the same number of
# samples; at that commit a run's passes take about --seconds.
NOMINAL_PASS_S = {"robustness_sweep": 1.2, "mana_sweep": 0.5, "point_queries": 0.55}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package source, wrong backend)."""


def load_package(root: Path):
    """Import magicswitch from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "magicswitch" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {src / 'magicswitch'}")
    sys.path.insert(0, str(src))
    os.environ.pop("MAGIC_SWITCH_JOBS", None)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    ms = importlib.import_module("magicswitch")
    if not Path(ms.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchmarkError(f"magicswitch was imported from {ms.__file__}, not {src}")
    for name in ("cli", "experiments", "lp", "phasespace", "channels"):
        importlib.import_module(f"magicswitch.{name}")
    backend = package_backend()
    if backend != "numpy":
        raise BenchmarkError(f"kernel backend is {backend!r}; the benchmark measures the numpy path")
    return ms


def package_backend() -> str:
    try:
        return importlib.import_module("magicswitch._accel").BACKEND
    except ModuleNotFoundError:
        return "numpy"


def setup_probe(root: Path) -> dict:
    """Time import and lazy set-up in a fresh process."""
    src = (root / "src").resolve()
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(src)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=root)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    if not Path(probe["module"]).resolve().is_relative_to(src):
        raise BenchmarkError(f"set-up probe imported {probe['module']}, not {src}")
    return probe


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += result.problems


def pass_count(workload_name: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload_name]))


def timed_passes(workload, passes: int, first_index: int, tally: Tally, root: Path):
    """Run ``passes`` passes and SETUP_RUNS set-up probes spread evenly
    between them, so that no single stretch of a shared machine's load
    decides ``setup_s``.

    Successive passes (and the probes started between them) are pinned to
    successive allowed CPUs: a shared host can slow one virtual CPU for tens
    of seconds while another runs at full speed.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results, setup = [], []
    try:
        for k in range(passes):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            gc.collect()
            result = workload.run_pass(first_index + k)
            tally.add(result)
            results.append(result)
            while len(setup) < SETUP_RUNS and len(setup) * passes <= k * SETUP_RUNS:
                setup.append(setup_probe(root))
    finally:
        os.sched_setaffinity(0, cpus)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_probe(root))
    return results, setup


def traced_passes(workload, passes: int, first_index: int, tally: Tally):
    """Run ``passes`` traced passes, each followed by an untraced one, so that
    the tracing overhead compares passes from the same stretch of time.

    Returns the traced and untraced pass results, the layer metrics of each
    traced pass, all spans and any trace points the package lacks.  The
    wrappers are removed after every traced pass, before any untraced one.
    Traced pass ``k`` and the untraced pass after it get the same inputs.
    """
    tracer = Tracer()
    traced, plain, per_pass, spans = [], [], [], []
    for k in range(passes):
        gc.collect()
        first = len(tracer.spans)
        with installed(tracer) as missing:
            with tracer.span("bench.pass"):
                traced.append(workload.run_pass(first_index + k, tracer))
        leftover = still_wrapped()
        if leftover:
            raise RuntimeError(f"trace wrappers left in place: {leftover}")
        pass_spans = tracer.spans[first:]
        per_pass.append(layer_metrics(pass_spans))
        spans += [(k, span) for span in pass_spans]
        gc.collect()
        plain.append(workload.run_pass(first_index + k))
    for result in traced + plain:
        tally.add(result)
    return traced, plain, per_pass, spans, missing


def write_spans(path: Path, spans) -> None:
    origin = spans[0][1].start if spans else 0.0
    with gzip.open(path, "wt") as fh:
        for k, span in spans:
            record = {
                "pass": k, "id": span.id, "name": span.name, "parent": span.parent,
                "root": span.root, "start": span.start - origin, "end": span.end - origin,
            }
            if span.info is not None:
                record["info"] = span.info
            fh.write(json.dumps(record) + "\n")


def best_wall(passes) -> float:
    """Wall time of one pass: each of its commands (a CLI run, or the query
    batch) at its fastest over the run's passes, summed.

    On a shared machine a neighbour only ever adds time, so the fastest of a
    fixed number of repeats is the steadiest estimate of what the work costs
    (Chen & Revels, "Robust benchmarking in noisy environments",
    arXiv:1608.04295).  Whatever a command always pays (collection pauses,
    file writing, per-call set-up) stays in.
    """
    return sum(min(r.command_s[name] for r in passes) for name in passes[0].command_s)


def query_percentiles(passes) -> tuple[float, float]:
    """Median and 90th percentile of the per-unit latency.

    Every pass runs the same units in the same order of ``latencies_s``: a
    sweep's grid rows, or the query slots of ``point_queries`` (slot ``j`` is
    the same kind of query on fresh inputs each pass).  Each unit is taken at
    its fastest over the passes, so that a unit needs only one pass outside a
    slow stretch of a shared machine; a pass's percentile would need all of
    its units there at once.
    """
    best = [min(samples) for samples in zip(*(r.latencies_s for r in passes))]
    return statistics.median(best), statistics.quantiles(best, n=10)[8]


def fastest_setup(setup) -> dict:
    return min(setup, key=lambda probe: sum(probe[k] for k in SETUP_PARTS))


def end_to_end_metrics(setup, passes) -> dict:
    """name -> (value, unit, samples)."""
    n = len(passes)
    best_setup = fastest_setup(setup)
    query_p50, query_p90 = query_percentiles(passes)
    values = {
        "setup_s": (sum(best_setup[k] for k in SETUP_PARTS), len(setup)),
        "wall_s": (best_wall(passes), n),
        "query_p50_ms": (1e3 * query_p50, n * len(passes[0].latencies_s)),
        "query_p90_ms": (1e3 * query_p90, n * len(passes[0].latencies_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return {name: (v, END_TO_END_UNITS[name], n) for name, (v, n) in values.items()}


def per_layer_metrics(setup, traced, plain, per_pass) -> dict:
    out = {}
    for name in per_pass[0]:
        column = [m[name] for m in per_pass]
        value = max(column) if name == "simplex.max_pivots" else statistics.median(column)
        out[name] = (value, "s" if name.endswith("_s") else "count", len(column))
    best_setup = fastest_setup(setup)
    for key in SETUP_PARTS:
        out[f"setup.{key}"] = (best_setup[key], "s", len(setup))
    overhead = best_wall(traced) - best_wall(plain)
    out["trace.overhead_s"] = (overhead, "s", len(traced))
    return out


def provenance(root: Path) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "backend": package_backend(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure one workload; returns the full result (see ``main``)."""
    ms = load_package(root)
    setup_probe(root)  # compiles bytecode; not kept
    outdir = root / ".perfbench"
    outdir.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=outdir) as tmp:
        workload = make_workload(workload_name, ms, seed, Path(tmp))
        tally.add(workload.run_pass(0))  # warm-up: checked, not timed
        passes = pass_count(workload_name, seconds / 2 if trace else seconds)
        untraced, setup = timed_passes(workload, passes, 1, tally, root)
        if trace:
            traced, plain, per_pass, spans, missing = traced_passes(
                workload, TRACED_PASSES, 1 + passes, tally)
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
        "trace": int(trace),
        "provenance": provenance(root),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems[:20],
    }
    if trace:
        result["metrics"] = per_layer_metrics(setup, traced, plain, per_pass)
        result["missing_trace_points"] = missing
        spans_path = outdir / f"spans-{workload_name}-seed{seed}.jsonl.gz"
        write_spans(spans_path, spans)
        result["spans_file"] = str(spans_path.relative_to(root))
    else:
        result["metrics"] = end_to_end_metrics(setup, untraced)
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="drives the point_queries inputs only")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run at the reference speed; fixes the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    outdir = root / ".perfbench"
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = dict(result, metrics={k: {"value": v, "unit": u, "samples": n}
                                   for k, (v, u, n) in result["metrics"].items()})
    (outdir / name).write_text(json.dumps(detail, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(result["provenance"]))
    for key, (value, unit, samples) in result["metrics"].items():
        print(f"  {key:32s} {value:>14.6g} {unit:6s} (n={samples})")
    print(f"  {'failed_frac':32s} {result['failed_frac']:>14.6g} {'1':6s} "
          f"({result['failed']}/{result['attempted']} outputs)")
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if result.get("missing_trace_points"):
        print("trace points not in the package: " + ", ".join(result["missing_trace_points"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
