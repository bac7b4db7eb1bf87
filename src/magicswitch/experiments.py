"""Parameter sweeps, threshold finders, and dataset writers.

Four canned experiments mirror the reference datasets this package
reproduces:

* ``fig2``  - robustness of the noisy qubit TH channel and of the two
  conditional switch outputs, over the full noise range.
* ``fig3``  - robustness of a T gate behind two sequential depolarizing
  passes versus behind the switched passes (both conditional branches).
* ``figs1`` - the qutrit analog of fig2 scored with channel/state mana.
* ``appendix_c`` - grid verification that the plus branch of switched
  depolarizing noise is strictly weaker than two sequential passes.

A sweep walks its grid in order and starts each robustness LP from the
optimal basis the same LP column reached at the previous grid point, so a
row depends on the rows before it in its run.  ``jobs`` splits the grid into
at most that many contiguous runs, each on its own worker and each starting
cold; identical configs therefore produce byte-identical CSV.  A warm-started
value can differ from a lone cold solve at the same point in the last bits,
never in the printed digits of the default grids.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import (
    DensityOperator,
    KrausChannel,
    compose_channels,
    depolarizing_channel,
    noisy_th_channel,
    qutrit_k2_variant_report,
    qutrit_noisy_th_channel,
    unitary_channel,
)
from .config import DEFAULT_TOL
from .gates import T_GATE, plus_state
from .lp import L1Solution, channel_robustness, rom_state
from .phasespace import build_frame, mana_channel, mana_state
from .qswitch import (
    EffectiveDepolarizingSwitch,
    build_switch,
    conditional_outputs,
    effective_t_channels,
)
from .stabilizers import cspo_choi_atoms, enumerate_stabilizer_states

logger = logging.getLogger(__name__)

EXPERIMENTS = ("fig2", "fig3", "figs1", "appendix_c")

_EXPERIMENT_ALIASES = {
    "fig2_qubit_example": "fig2",
    "fig3_depolarized_t": "fig3",
    "figs1_qutrit_example": "figs1",
    "appendixc_inequality": "appendix_c",
    "appendix-c": "appendix_c",
}

_DEGENERATE_PROB = 1e-9

MEASURE_COLUMNS = {
    "fig2": ("channel_robustness", "rom_plus", "rom_minus", "prob_plus", "prob_minus"),
    "fig3": ("rob_sequential", "rob_switch_plus", "rob_switch_minus", "weight_plus", "weight_minus"),
    "figs1": ("mana_channel", "mana_plus", "mana_minus", "prob_plus", "prob_minus"),
}


class BracketError(RuntimeError):
    """The requested threshold bracket does not straddle a crossing."""


def canonical_experiment(name: str) -> str:
    key = name.strip().lower()
    key = _EXPERIMENT_ALIASES.get(key, key)
    if key not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENTS}")
    return key


@dataclass(frozen=True)
class SweepConfig:
    """Grid and tolerance settings for one sweep."""

    experiment: str
    start: float
    stop: float
    step: float
    lp_tol: float = 1e-6
    threshold_tol: float = 1e-3
    output_path: str = "-"
    format: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "experiment", canonical_experiment(self.experiment))
        if not (0.0 <= self.start < self.stop <= 1.0):
            raise ValueError(f"grid must satisfy 0 <= start < stop <= 1, got [{self.start}, {self.stop}]")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.threshold_tol < 1e-4:
            raise ValueError(f"threshold_tol must be at least 1e-4, got {self.threshold_tol}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def grid(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + k * self.step for k in range(count)]


def default_config(experiment: str, **overrides) -> SweepConfig:
    """Default grids: fig2 on [0,1] step 0.01, fig3 on [0,0.45] step 0.005,
    figs1 on (0,1] step 0.01."""
    experiment = canonical_experiment(experiment)
    base = {
        "fig2": dict(start=0.0, stop=1.0, step=0.01),
        "fig3": dict(start=0.0, stop=0.45, step=0.005),
        "figs1": dict(start=0.01, stop=1.0, step=0.01),
        "appendix_c": dict(start=0.0, stop=1.0, step=0.01),
    }[experiment]
    base.update(overrides)
    return SweepConfig(experiment=experiment, **base)


@dataclass
class SweepRow:
    """One grid point: measure values plus a status per measure."""

    p: float
    values: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared lazy singletons (cached per process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _qubit_dictionary():
    return enumerate_stabilizer_states(1)


@lru_cache(maxsize=None)
def _choi_atoms():
    return cspo_choi_atoms(enumerate_stabilizer_states(2))


@dataclass
class _RunState:
    """What one contiguous run of sweep rows carries from row to row: the
    last optimal basis of each LP column, and the value of fig3's minus
    branch, whose channel does not depend on p."""

    bases: dict = field(default_factory=dict)
    switch_minus: tuple | None = None


def _certified_value(solution: L1Solution, lp_tol: float) -> tuple[float, str]:
    """Value and status of a robustness LP, with its certificates enforced:
    a reconstruction residual, duality gap or dual infeasibility above
    ``DEFAULT_TOL.lp_residual`` tags the value ``check_failed``."""
    if solution.status != "optimal":
        return float("nan"), solution.status
    worst = max(solution.residual, solution.dual_gap, solution.dual_violation)
    if worst > DEFAULT_TOL.lp_residual:
        return solution.value, "check_failed"
    if solution.value < 1.0 - lp_tol:
        return solution.value, "below_floor"
    return solution.value, "ok"


def _robustness_value(
    ch: KrausChannel, lp_tol: float, state: _RunState, column: str
) -> tuple[float, str]:
    solution = channel_robustness(ch, _choi_atoms(), basis=state.bases.get(column))
    state.bases[column] = solution.basis
    return _certified_value(solution, lp_tol)


def _rom_value(
    rho: DensityOperator, prob: float, lp_tol: float, state: _RunState, column: str
) -> tuple[float, str]:
    if prob <= _DEGENERATE_PROB:
        return float("nan"), "degenerate"
    solution = rom_state(rho, _qubit_dictionary(), basis=state.bases.get(column))
    state.bases[column] = solution.basis
    return _certified_value(solution, lp_tol)


def _prob_status(prob_plus: float, prob_minus: float) -> str:
    ok = (
        -1e-9 <= prob_plus <= 1 + 1e-9
        and -1e-9 <= prob_minus <= 1 + 1e-9
        and abs(prob_plus + prob_minus - 1.0) <= 1e-9
    )
    return "ok" if ok else "check_failed"


# ---------------------------------------------------------------------------
# Row workers (module level so process pools can pickle them)
# ---------------------------------------------------------------------------

def _fig2_row(p: float, lp_tol: float, state: _RunState) -> SweepRow:
    row = SweepRow(p=p)
    ch = noisy_th_channel(p)
    row.values["channel_robustness"], row.status["channel_robustness"] = _robustness_value(
        ch, lp_tol, state, "channel_robustness"
    )
    switched = build_switch(ch, ch)
    rho_plus, rho_minus, prob_plus, prob_minus = conditional_outputs(
        switched, DensityOperator.pure(plus_state(2))
    )
    for name, rho, prob in (("rom_plus", rho_plus, prob_plus), ("rom_minus", rho_minus, prob_minus)):
        row.values[name], row.status[name] = _rom_value(rho, prob, lp_tol, state, name)
    row.values["prob_plus"] = prob_plus
    row.values["prob_minus"] = prob_minus
    row.status["prob_plus"] = row.status["prob_minus"] = _prob_status(prob_plus, prob_minus)
    return row


def _fig3_row(p: float, lp_tol: float, state: _RunState) -> SweepRow:
    row = SweepRow(p=p)
    noise = depolarizing_channel(2, p)
    sequential = compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))
    row.values["rob_sequential"], row.status["rob_sequential"] = _robustness_value(
        sequential, lp_tol, state, "rob_sequential"
    )
    branch_plus, branch_minus = effective_t_channels(p)
    row.values["rob_switch_plus"], row.status["rob_switch_plus"] = _robustness_value(
        branch_plus.channel, lp_tol, state, "rob_switch_plus"
    )
    if state.switch_minus is None:
        state.switch_minus = _robustness_value(branch_minus.channel, lp_tol, state, "rob_switch_minus")
    row.values["rob_switch_minus"], row.status["rob_switch_minus"] = state.switch_minus
    row.values["weight_plus"] = branch_plus.weight
    row.values["weight_minus"] = branch_minus.weight
    row.status["weight_plus"] = row.status["weight_minus"] = _prob_status(
        branch_plus.weight, branch_minus.weight
    )
    return row


def _figs1_row(p: float, lp_tol: float, state: _RunState) -> SweepRow:
    row = SweepRow(p=p)
    frame = build_frame(3)
    ch = qutrit_noisy_th_channel(p)
    mana_ch = mana_channel(ch, frame)
    row.values["mana_channel"] = mana_ch
    row.status["mana_channel"] = "ok" if mana_ch >= -1e-9 else "check_failed"
    switched = build_switch(ch, ch)
    rho_plus, rho_minus, prob_plus, prob_minus = conditional_outputs(
        switched, DensityOperator.pure(plus_state(3))
    )
    for name, rho, prob in (("mana_plus", rho_plus, prob_plus), ("mana_minus", rho_minus, prob_minus)):
        if prob <= _DEGENERATE_PROB:
            row.values[name], row.status[name] = float("nan"), "degenerate"
        else:
            value = mana_state(rho, frame)
            row.values[name] = value
            row.status[name] = "ok" if value >= -1e-9 else "check_failed"
    row.values["prob_plus"] = prob_plus
    row.values["prob_minus"] = prob_minus
    row.status["prob_plus"] = row.status["prob_minus"] = _prob_status(prob_plus, prob_minus)
    return row


_ROW_WORKERS = {"fig2": _fig2_row, "fig3": _fig3_row, "figs1": _figs1_row}


def _dispatch_row(args) -> SweepRow:
    experiment, p, lp_tol, state = args
    return _ROW_WORKERS[experiment](p, lp_tol, state)


def _run_rows(experiment: str, grid: list[float], lp_tol: float) -> list[SweepRow]:
    """One contiguous run of grid rows, in order, from a cold start."""
    state = _RunState()
    return [_dispatch_row((experiment, p, lp_tol, state)) for p in grid]


def _run_sweep(config: SweepConfig) -> list[SweepRow]:
    grid = config.grid()
    n_runs = min(config.jobs, len(grid))
    if n_runs == 1:
        return _run_rows(config.experiment, grid, config.lp_tol)
    size, extra = divmod(len(grid), n_runs)
    bounds = [k * size + min(k, extra) for k in range(n_runs + 1)]
    runs = [grid[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=n_runs) as pool:
        chunks = pool.map(_run_rows, [config.experiment] * n_runs, runs, [config.lp_tol] * n_runs)
        return [row for chunk in chunks for row in chunk]


def run_fig2(config: SweepConfig | None = None) -> list[SweepRow]:
    config = config or default_config("fig2")
    if config.experiment != "fig2":
        raise ValueError(f"config targets {config.experiment!r}, not fig2")
    return _run_sweep(config)


def run_fig3(config: SweepConfig | None = None) -> list[SweepRow]:
    config = config or default_config("fig3")
    if config.experiment != "fig3":
        raise ValueError(f"config targets {config.experiment!r}, not fig3")
    return _run_sweep(config)


def run_figs1(config: SweepConfig | None = None) -> list[SweepRow]:
    config = config or default_config("figs1")
    if config.experiment != "figs1":
        raise ValueError(f"config targets {config.experiment!r}, not figs1")
    report = qutrit_k2_variant_report()
    logger.info("figs1 uses the %r qutrit Kraus set", report["selected"])
    return _run_sweep(config)


def run_experiment(config: SweepConfig) -> list[SweepRow]:
    if config.experiment == "appendix_c":
        raise ValueError("appendix_c produces a report, not sweep rows; call run_appendix_c")
    runner = {"fig2": run_fig2, "fig3": run_fig3, "figs1": run_figs1}
    return runner[config.experiment](config)


# ---------------------------------------------------------------------------
# Strict-inequality grid report
# ---------------------------------------------------------------------------

def run_appendix_c(d_values=(2, 3, 5, 10), n_points: int = 10_000) -> dict:
    """Verify p_plus < 2p - p^2 on a dense grid of p in (0, 1] per dimension.

    Also evaluates the factored algebraic identity behind the inequality;
    its residual stays at rounding level (< 1e-12).  The grid is p = k / n
    for k = 1..n; an empty grid or dimension list, or any d < 2 (through
    ``from_noise``), raises ``ValueError`` rather than passing vacuously.
    """
    if n_points < 1:
        raise ValueError(f"n_points={n_points} must be at least 1")
    if not d_values:
        raise ValueError("at least one dimension is required")
    p = np.arange(1, n_points + 1) / n_points
    report = {"n_points": n_points, "dimensions": {}}
    overall_gap = -np.inf
    overall_identity = 0.0
    for d in d_values:
        eff = EffectiveDepolarizingSwitch.from_noise(d, p)
        worst_gap = float((eff.p_plus - eff.sequential_strength()).max())
        worst_identity = float(eff.factored_identity_residual().max())
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


# ---------------------------------------------------------------------------
# Threshold finder
# ---------------------------------------------------------------------------

def _measure_fig2_channel_robustness(p: float) -> float:
    return channel_robustness(noisy_th_channel(p), _choi_atoms()).value


def _measure_fig2_rom_plus(p: float) -> float:
    ch = noisy_th_channel(p)
    rho_plus, _, prob_plus, _ = conditional_outputs(
        build_switch(ch, ch), DensityOperator.pure(plus_state(2))
    )
    if prob_plus <= _DEGENERATE_PROB:
        raise ValueError(f"plus branch degenerate at p={p}")
    return rom_state(rho_plus, _qubit_dictionary()).value


def _measure_fig3_sequential(p: float) -> float:
    noise = depolarizing_channel(2, p)
    seq = compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))
    return channel_robustness(seq, _choi_atoms()).value


def _measure_fig3_switch_plus(p: float) -> float:
    return channel_robustness(effective_t_channels(p)[0].channel, _choi_atoms()).value


def _measure_fig3_switch_minus(p: float) -> float:
    return channel_robustness(effective_t_channels(p)[1].channel, _choi_atoms()).value


def _measure_figs1_mana_channel(p: float) -> float:
    return mana_channel(qutrit_noisy_th_channel(p), build_frame(3))


def _switch_branch_mana(p: float, outcome: str) -> float:
    ch = qutrit_noisy_th_channel(p)
    rho_plus, rho_minus, prob_plus, prob_minus = conditional_outputs(
        build_switch(ch, ch), DensityOperator.pure(plus_state(3))
    )
    rho, prob = (rho_plus, prob_plus) if outcome == "plus" else (rho_minus, prob_minus)
    if prob <= _DEGENERATE_PROB:
        raise ValueError(f"{outcome} branch degenerate at p={p}")
    return mana_state(rho, build_frame(3))


MEASURES = {
    "fig2_channel_robustness": (_measure_fig2_channel_robustness, 1.0),
    "fig2_rom_plus": (_measure_fig2_rom_plus, 1.0),
    "fig3_sequential": (_measure_fig3_sequential, 1.0),
    "fig3_switch_plus": (_measure_fig3_switch_plus, 1.0),
    "fig3_switch_minus": (_measure_fig3_switch_minus, 1.0),
    "figs1_mana_channel": (_measure_figs1_mana_channel, 0.0),
    "figs1_mana_plus": (lambda p: _switch_branch_mana(p, "plus"), 0.0),
    "figs1_mana_minus": (lambda p: _switch_branch_mana(p, "minus"), 0.0),
}


@dataclass(frozen=True)
class ThresholdResult:
    measure: str
    threshold: float
    bracket: tuple
    iterations: int
    floor: float


def find_threshold(
    measure,
    lo: float,
    hi: float,
    lp_tol: float = 1e-6,
    threshold_tol: float = 1e-3,
) -> ThresholdResult:
    """Bisect the crossing of a monotone measure onto its faithfulness floor.

    ``measure`` is a registered name or a callable p -> value.  The bracket
    endpoints must disagree on the predicate value <= floor + lp_tol; when
    they do not, the mismatch is reported rather than guessed around.  Only
    the bracket feeds the bisection, so the answer is independent of any
    sweep grid step.
    """
    if isinstance(measure, str):
        if measure not in MEASURES:
            raise KeyError(f"unknown measure {measure!r}; known: {sorted(MEASURES)}")
        fn, floor = MEASURES[measure]
        name = measure
    else:
        fn, floor = measure
        name = getattr(fn, "__name__", "callable")
    if not lo < hi:
        raise ValueError(f"bracket [{lo}, {hi}] is empty")

    def free(p: float) -> bool:
        return fn(p) <= floor + lp_tol

    free_lo, free_hi = free(lo), free(hi)
    if free_lo == free_hi:
        raise BracketError(
            f"measure {name} has no crossing on [{lo}, {hi}]: "
            f"predicate is {free_lo} at both endpoints"
        )
    iterations = 0
    while hi - lo > threshold_tol:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if free(mid) == free_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        measure=name,
        threshold=0.5 * (lo + hi),
        bracket=(lo, hi),
        iterations=iterations,
        floor=floor,
    )


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.12g" % x


def rows_to_csv(rows: list[SweepRow], measures) -> str:
    header = ["p"] + list(measures) + [f"{m}_status" for m in measures]
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row.p)]
        cells += [_fmt(row.values.get(m, float("nan"))) for m in measures]
        cells += [row.status.get(m, "ok") for m in measures]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow], measures) -> str:
    payload = []
    for row in rows:
        entry = {"p": float(_fmt(row.p))}
        for m in measures:
            value = row.values.get(m, float("nan"))
            entry[m] = None if math.isnan(value) else float(_fmt(value))
            entry[f"{m}_status"] = row.status.get(m, "ok")
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def write_rows(rows: list[SweepRow], config: SweepConfig) -> str:
    measures = MEASURE_COLUMNS[config.experiment]
    text = rows_to_csv(rows, measures) if config.format == "csv" else rows_to_json(rows, measures)
    if config.output_path == "-":
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Key-value config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "experiment": str,
    "start": float,
    "stop": float,
    "step": float,
    "lp_tol": float,
    "threshold_tol": float,
    "output_path": str,
    "out": str,
    "format": str,
    "jobs": int,
}


def parse_config_file(path: str) -> SweepConfig:
    """Read ``key = value`` lines ('#' comments allowed) into a SweepConfig."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](val.strip())
    if "out" in values:
        values["output_path"] = values.pop("out")
    if "experiment" not in values:
        raise ValueError(f"{path}: missing required key 'experiment'")
    experiment = values.pop("experiment")
    return default_config(experiment, **values)
