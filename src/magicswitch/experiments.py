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

Each measure is written once, in ``MEASURE_TABLE``: an experiment names its
channel and its ordered columns, and a column holds one measure
``(point, column name) -> (value, status)`` and, when it is bisected, its
threshold name and floor.  A ``_Point`` builds the intermediates of one noise
value (channel, switch outputs, T-gate branches) on first use, so a sweep
row builds each once and a threshold evaluation only what its measure reads.
The CSV columns (``MEASURE_COLUMNS``) and the threshold registry
(``MEASURES``) are derived from the table.

A sweep walks its grid in order and starts each robustness LP from the
optimal basis the same LP column reached at the previous grid point, so a
row depends on the rows before it in its run.  ``jobs`` splits the grid into
at most that many contiguous runs, each on its own worker and each starting
cold; identical configs therefore produce byte-identical CSV.  A warm-started
value can differ from a lone cold solve at the same point in the last bits,
never in the printed digits of the default grids.

A threshold search checks both bracket ends.  For a robustness measure it
then fits the LP's right-hand side as a polynomial in p and walks optimal
bases to propose the crossing (``_propose_crossing``), which two more
evaluations confirm; mana measures, bare callables and any failed proposal
bisect.  All evaluations of one search of a registered measure share one
``_RunState``, so only its first LP starts cold: each later one starts from
the optimal basis of the one before, repaired by dual simplex pivots where
it is infeasible for the new p.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .channels import (
    KrausChannel,
    compose_channels,
    depolarizing_channel,
    noisy_th_channel,
    plus_density,
    qutrit_noisy_th_channel,
    unitary_channel,
)
from ._simplex import RHS_DEGREE, fit_polynomial, parametric_crossing
from .config import DEFAULT_TOL
from .gates import T_GATE
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

class BracketError(RuntimeError):
    """The requested threshold bracket does not straddle a crossing."""


def _check_lp_tol(lp_tol: float) -> None:
    if not (math.isfinite(lp_tol) and lp_tol >= 0):
        raise ValueError(f"lp_tol must be finite and >= 0, got {lp_tol}")


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
    lp_tol: float = DEFAULT_TOL.lp_value
    output_path: str = "-"
    format: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "experiment", canonical_experiment(self.experiment))
        if not (0.0 <= self.start < self.stop <= 1.0):
            raise ValueError(f"grid must satisfy 0 <= start < stop <= 1, got [{self.start}, {self.stop}]")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        _check_lp_tol(self.lp_tol)

    def grid(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + DEFAULT_TOL.grid)) + 1
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


def sequential_t_channel(p: float) -> KrausChannel:
    """Fig. 3's sequential channel: a T gate behind two passes of qubit
    depolarizing noise of strength ``p``."""
    noise = depolarizing_channel(2, p)
    return compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))


# Noise-parameterized channels by CLI name.  Each builder is looked up at call
# time, so a rebound module global reaches sweeps, thresholds and the CLI alike.
CHANNELS = {
    "noisy-th": lambda p: noisy_th_channel(p),
    "qutrit-noisy-th": lambda p: qutrit_noisy_th_channel(p),
    "depol-squared-t": lambda p: sequential_t_channel(p),
    "switch-plus-t": lambda p: effective_t_channels(p)[0].channel,
    "switch-minus-t": lambda p: effective_t_channels(p)[1].channel,
}


@dataclass
class _RunState:
    """What one contiguous run of sweep rows, or one threshold search,
    carries from one evaluation to the next: the last optimal basis of each
    LP column, and the value of fig3's minus branch, whose channel does not
    depend on p.  When ``samples`` is a list, each LP solve appends
    ``(p, solution, scale)`` to it (``_Point.solve``)."""

    bases: dict = field(default_factory=dict)
    switch_minus: tuple | None = None
    samples: list | None = None


def _floor_slack(lp_tol: float) -> float:
    """How far a value may sit from its floor and still read as on it:
    ``lp_tol``, but never less than the rounding floor, so that an lp_tol
    of 0 does not turn a free LP's 1 +- a few ulps into a verdict."""
    return max(lp_tol, DEFAULT_TOL.rounding)


def _certified_value(solution: L1Solution, lp_tol: float) -> tuple[float, str]:
    """Value and status of a robustness LP, with its certificates enforced:
    a reconstruction residual, duality gap or dual infeasibility above
    ``DEFAULT_TOL.lp_residual`` tags the value ``check_failed``."""
    if solution.status != "optimal":
        return float("nan"), solution.status
    worst = max(solution.residual, solution.dual_gap, solution.dual_violation)
    if worst > DEFAULT_TOL.lp_residual:
        return solution.value, "check_failed"
    if solution.value < 1.0 - _floor_slack(lp_tol):
        return solution.value, "below_floor"
    return solution.value, "ok"


def _prob_status(prob_plus: float, prob_minus: float) -> str:
    tol = DEFAULT_TOL.probability
    ok = (
        -tol <= prob_plus <= 1 + tol
        and -tol <= prob_minus <= 1 + tol
        and abs(prob_plus + prob_minus - 1.0) <= tol
    )
    return "ok" if ok else "check_failed"


def _mana_status(value: float) -> tuple[float, str]:
    return value, "ok" if value >= -DEFAULT_TOL.mana_zero else "check_failed"


@dataclass
class _Point:
    """One noise value ``p`` of one experiment.  Each intermediate is built on
    first use and kept for the other columns of the same row."""

    experiment: str
    p: float
    lp_tol: float
    state: _RunState

    @cached_property
    def channel(self) -> KrausChannel:
        return CHANNELS[MEASURE_TABLE[self.experiment][0]](self.p)

    @cached_property
    def switch_outputs(self) -> tuple:
        """(rho_plus, rho_minus, prob_plus, prob_minus) of the channel switched
        with itself, control and target both in |+>."""
        ch = self.channel
        return conditional_outputs(build_switch(ch, ch), plus_density(ch.d_in))

    @cached_property
    def t_branches(self) -> tuple:
        return effective_t_channels(self.p)

    def solve(self, column: str, program, *args, scale: float = 1.0) -> tuple[float, str]:
        """Solve one robustness LP of ``column``, starting from the optimal
        basis the column reached earlier in this run.  ``scale`` is the
        positive s(p) that makes s(p) times the LP's right-hand side a
        polynomial in p: the probability or weight of a switch branch, whose
        unnormalized output is quadratic in p."""
        solution = program(*args, basis=self.state.bases.get(column))
        self.state.bases[column] = solution.basis
        if self.state.samples is not None:
            self.state.samples.append((self.p, solution, scale))
        return _certified_value(solution, self.lp_tol)


# Measures: (point, column name) -> (value, status); k is 0 for the plus
# branch and 1 for the minus branch.

def _channel_robustness(pt: _Point, column: str) -> tuple[float, str]:
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    return pt.solve(column, channel_robustness, pt.channel, atoms)


def _channel_mana(pt: _Point, column: str) -> tuple[float, str]:
    return _mana_status(mana_channel(pt.channel, build_frame(3)))


def _branch_probability(pt: _Point, column: str, k: int) -> tuple[float, str]:
    probs = pt.switch_outputs[2:]
    return probs[k], _prob_status(*probs)


def _branch_robustness(pt: _Point, column: str, k: int) -> tuple[float, str]:
    prob = pt.switch_outputs[2 + k]
    if prob <= DEFAULT_TOL.degenerate_prob:
        return float("nan"), "degenerate"
    return pt.solve(column, rom_state, pt.switch_outputs[k], enumerate_stabilizer_states(1), scale=prob)


def _branch_mana(pt: _Point, column: str, k: int) -> tuple[float, str]:
    if pt.switch_outputs[2 + k] <= DEFAULT_TOL.degenerate_prob:
        return float("nan"), "degenerate"
    return _mana_status(mana_state(pt.switch_outputs[k], build_frame(3)))


def _t_branch_robustness(pt: _Point, column: str, k: int) -> tuple[float, str]:
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    branch = pt.t_branches[k]
    return pt.solve(column, channel_robustness, branch.channel, atoms, scale=branch.weight)


def _t_minus_robustness(pt: _Point, column: str) -> tuple[float, str]:
    # The minus-branch channel does not depend on p: solve it once per run.
    if pt.state.switch_minus is None:
        pt.state.switch_minus = _t_branch_robustness(pt, column, 1)
    return pt.state.switch_minus


def _t_branch_weight(pt: _Point, column: str, k: int) -> tuple[float, str]:
    weights = [branch.weight for branch in pt.t_branches]
    return weights[k], _prob_status(*weights)


class Column(NamedTuple):
    """One sweep output column: its measure and, when the measure has a
    crossing worth bisecting, its ``MEASURES`` name and faithfulness floor."""

    name: str
    measure: Callable
    threshold: str | None = None
    floor: float = 0.0


# Sweep experiment -> (its channel in ``CHANNELS``, its columns in CSV order).
MEASURE_TABLE = {
    "fig2": ("noisy-th", (
        Column("channel_robustness", _channel_robustness, "fig2_channel_robustness", 1.0),
        Column("rom_plus", partial(_branch_robustness, k=0), "fig2_rom_plus", 1.0),
        Column("rom_minus", partial(_branch_robustness, k=1)),
        Column("prob_plus", partial(_branch_probability, k=0)),
        Column("prob_minus", partial(_branch_probability, k=1)),
    )),
    "fig3": ("depol-squared-t", (
        Column("rob_sequential", _channel_robustness, "fig3_sequential", 1.0),
        Column("rob_switch_plus", partial(_t_branch_robustness, k=0), "fig3_switch_plus", 1.0),
        Column("rob_switch_minus", _t_minus_robustness, "fig3_switch_minus", 1.0),
        Column("weight_plus", partial(_t_branch_weight, k=0)),
        Column("weight_minus", partial(_t_branch_weight, k=1)),
    )),
    "figs1": ("qutrit-noisy-th", (
        Column("mana_channel", _channel_mana, "figs1_mana_channel", 0.0),
        Column("mana_plus", partial(_branch_mana, k=0), "figs1_mana_plus", 0.0),
        Column("mana_minus", partial(_branch_mana, k=1), "figs1_mana_minus", 0.0),
        Column("prob_plus", partial(_branch_probability, k=0)),
        Column("prob_minus", partial(_branch_probability, k=1)),
    )),
}

MEASURE_COLUMNS = {
    experiment: tuple(column.name for column in columns)
    for experiment, (_, columns) in MEASURE_TABLE.items()
}


def _threshold_value(experiment: str, column: Column, p: float, state: _RunState | None = None) -> float:
    """``column``'s value at ``p``, from a cold start unless ``state`` is
    given; a degenerate branch has no value and raises ``ValueError``."""
    point = _Point(experiment, p, DEFAULT_TOL.lp_value, state or _RunState())
    value, status = column.measure(point, column.name)
    if status == "degenerate":
        raise ValueError(f"measure {column.threshold} has a degenerate branch at p={p}")
    return value


# Threshold name -> (experiment, column).
_THRESHOLD_COLUMNS = {
    column.threshold: (experiment, column)
    for experiment, (_, columns) in MEASURE_TABLE.items()
    for column in columns
    if column.threshold
}

# Threshold name -> (callable p -> value, faithfulness floor).
MEASURES = {
    name: (partial(_threshold_value, experiment, column), column.floor)
    for name, (experiment, column) in _THRESHOLD_COLUMNS.items()
}


# ---------------------------------------------------------------------------
# Sweeps (module-level workers so process pools can pickle them)
# ---------------------------------------------------------------------------

def _dispatch_row(args) -> SweepRow:
    experiment, p, lp_tol, state = args
    point = _Point(experiment, p, lp_tol, state)
    row = SweepRow(p=p)
    for column in MEASURE_TABLE[experiment][1]:
        row.values[column.name], row.status[column.name] = column.measure(point, column.name)
    return row


def _run_rows(experiment: str, grid: list[float], lp_tol: float) -> list[SweepRow]:
    """One contiguous run of grid rows, in order, from a cold start."""
    state = _RunState()
    return [_dispatch_row((experiment, p, lp_tol, state)) for p in grid]


def run_experiment(config: SweepConfig) -> list[SweepRow]:
    """The rows of ``config``'s sweep, split into at most ``config.jobs``
    contiguous runs."""
    if config.experiment not in MEASURE_TABLE:
        raise ValueError(f"{config.experiment} produces a report, not sweep rows; call run_appendix_c")
    if config.experiment == "figs1":
        logger.info("figs1 uses the 'aligned' qutrit Kraus set")
    grid = config.grid()
    n_runs = min(config.jobs, len(grid))
    if n_runs == 1:
        return _run_rows(config.experiment, grid, config.lp_tol)
    # Only a parallel run pays for importing multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    size, extra = divmod(len(grid), n_runs)
    bounds = [k * size + min(k, extra) for k in range(n_runs + 1)]
    runs = [grid[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=n_runs) as pool:
        chunks = pool.map(_run_rows, [config.experiment] * n_runs, runs, [config.lp_tol] * n_runs)
        return [row for chunk in chunks for row in chunk]


def _run_named(experiment: str, config: SweepConfig | None) -> list[SweepRow]:
    config = config or default_config(experiment)
    if config.experiment != experiment:
        raise ValueError(f"config targets {config.experiment!r}, not {experiment}")
    return run_experiment(config)


def run_fig2(config: SweepConfig | None = None) -> list[SweepRow]:
    return _run_named("fig2", config)


def run_fig3(config: SweepConfig | None = None) -> list[SweepRow]:
    return _run_named("fig3", config)


def run_figs1(config: SweepConfig | None = None) -> list[SweepRow]:
    return _run_named("figs1", config)


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
    lp_tol: float = DEFAULT_TOL.lp_value,
    threshold_tol: float = 1e-3,
) -> ThresholdResult:
    """Find the crossing of a monotone measure onto its faithfulness floor.

    ``measure`` is a registered name or a pair (callable p -> value, floor).
    The bracket endpoints must disagree on the predicate value <= floor +
    lp_tol (an lp_tol below ``DEFAULT_TOL.rounding`` counts as that
    rounding floor); when they do not, the mismatch is reported rather than
    guessed around.  The result is a bracket no wider than
    ``threshold_tol`` whose ends disagree on the predicate, as the measure
    itself evaluates it, and a threshold inside it.  Only the bracket feeds the search, so the answer
    does not depend on any sweep grid step.

    For a registered LP measure the first bisection step also starts a
    parametric walk (``_propose_crossing``) that proposes the crossing r.
    The measure is then evaluated just inside r - threshold_tol / 2 and
    r + threshold_tol / 2; when the two disagree, they are the bracket and
    r the threshold.  Any other outcome, and every other measure, bisects
    from the narrowest bracket known, until the midpoint is no longer
    strictly inside it.
    ``iterations`` counts the measure evaluations and walk LP solves after
    the two endpoint checks.  A registered measure is called with one
    ``_RunState`` for the whole search, so every LP after the first starts
    from the optimal basis of the one before.
    """
    if not (math.isfinite(threshold_tol) and threshold_tol > 0):
        raise ValueError(f"threshold_tol must be finite and positive, got {threshold_tol}")
    _check_lp_tol(lp_tol)
    entry = None
    if isinstance(measure, str):
        if measure not in MEASURES:
            raise KeyError(f"unknown measure {measure!r}; known: {sorted(MEASURES)}")
        registered, floor = MEASURES[measure]
        entry = _THRESHOLD_COLUMNS[measure]
        name = measure
        state = _RunState()
        fn = partial(registered, state=state)
    else:
        fn, floor = measure
        name = getattr(fn, "__name__", "callable")
    if not lo < hi:
        raise ValueError(f"bracket [{lo}, {hi}] is empty")
    level = floor + _floor_slack(lp_tol)

    free_lo, free_hi = fn(lo) <= level, fn(hi) <= level
    if free_lo == free_hi:
        raise BracketError(
            f"measure {name} has no crossing on [{lo}, {hi}]: "
            f"predicate is {free_lo} at both endpoints"
        )
    bracket = [lo, hi]
    iterations = 0

    def narrow(p: float, value: float) -> None:
        nonlocal iterations
        iterations += 1
        bracket[(value <= level) != free_lo] = p

    if entry and hi - lo > threshold_tol:
        state.samples = []
        root, solves = _propose_crossing(*entry, state, bracket, level, free_lo, narrow)
        state.samples = None
        iterations += solves
        # One ulp of the root inside r -+ threshold_tol / 2, so that the
        # bracket's computed width stays within threshold_tol.
        half = 0.5 * threshold_tol - math.ulp(root or 0.0)
        if root is not None and half > 0:
            probes = [root - half, root + half]
            for p in probes:
                if bracket[0] < p < bracket[1]:
                    narrow(p, fn(p))
            if bracket == probes:
                return ThresholdResult(name, root, tuple(bracket), iterations, floor)
    while bracket[1] - bracket[0] > threshold_tol:
        mid = 0.5 * (bracket[0] + bracket[1])
        if not bracket[0] < mid < bracket[1]:
            break
        narrow(mid, fn(mid))
    lo, hi = bracket
    return ThresholdResult(name, 0.5 * (lo + hi), (lo, hi), iterations, floor)


def _propose_crossing(
    experiment: str, column: Column, state: _RunState, bracket: list, level: float, free_lo: bool, narrow
) -> tuple:
    """Propose where ``column``'s value crosses ``level`` inside ``bracket``
    (whose low end has the predicate ``free_lo``); returns (the crossing or
    None, the evaluations and LP solves it made after the first).

    Every evaluation runs in the search's ``state``, warm from the LP before
    it, and ``state.samples`` starts empty.  The first is the bisection step
    at the midpoint, fed to ``narrow``.  Its LP solve records the right-hand
    side b and the scale s (``_Point.solve``); a measure that solves no LP
    records nothing and is left to bisection.  ``RHS_DEGREE + 1`` more
    points inside the narrowed bracket are solved.  s b and s are fitted as
    polynomials through all but the last point and checked at the last, and
    ``parametric_crossing`` walks optimal bases from the sample just below
    the crossing, or just above it when no sample lies below.
    """
    mid = 0.5 * (bracket[0] + bracket[1])
    narrow(mid, _threshold_value(experiment, column, mid, state))
    if not state.samples:
        return None, 0
    lo, hi = bracket
    points = [lo + (hi - lo) * k / (RHS_DEGREE + 2) for k in range(1, RHS_DEGREE + 2)]
    for evaluations, p in enumerate(points, 1):
        try:
            _threshold_value(experiment, column, p, state)
        except ValueError:  # a degenerate branch inside the bracket
            return None, evaluations
    samples = state.samples
    forms = [solution.standard_form for _, solution, _ in samples]
    if len(forms) != len(points) + 1 or any(f is None or f[0] is not forms[0][0] for f in forms):
        return None, evaluations
    fit = fit_polynomial(
        [p for p, _, _ in samples],
        [np.append(scale * b, scale) for (_, _, scale), (_, b) in zip(samples, forms)],
        DEFAULT_TOL.rhs_fit,
    )
    if fit is None:
        return None, evaluations
    known = sorted(
        [(lo, free_lo, None), (hi, not free_lo, None)]
        + [(p, solution.value <= level, solution.basis) for p, solution, _ in samples],
        key=lambda entry: entry[0],
    )
    for (p0, free0, basis0), (p1, free1, basis1) in zip(known, known[1:]):
        if free0 != free1:
            break
    if basis0 is None:
        p0, basis0, p1 = p1, basis1, p0
    A = forms[0][0]
    root, solves = parametric_crossing(A, np.ones(A.shape[1]), fit[:, :-1], fit[:, -1], level, basis0, p0, p1)
    return root, evaluations + solves


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

# Config-file keys: the SweepConfig fields, and ``out`` for ``output_path``.
_CONFIG_KEYS = {**get_type_hints(SweepConfig), "out": str}


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
