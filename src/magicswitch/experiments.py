"""Parameter sweeps, threshold finders, and dataset writers.

Three canned sweeps mirror the reference datasets this package
reproduces: ``fig2`` and ``fig3`` score robustness over qubit noise, and
``figs1`` the qutrit analog of fig2 with mana.  Each is declared once, as
an ``Experiment`` in ``MEASURE_TABLE``: its CLI help and alias, its default
grid, its channel in ``CHANNELS``, its monotone and its columns in CSV
order.  A column holds one measure ``grid -> (values, statuses)`` and,
when it is bisected, its threshold name.  The default
configs, the experiment aliases, the CLI's sweep subcommands, the CSV
columns (``MEASURE_COLUMNS``) and the threshold registry (``MEASURES``,
each name with its monotone's floor) are all read off the table.

``run_appendix_c`` is a report, not a sweep: it verifies on a dense grid
that the plus branch of switched depolarizing noise is strictly weaker than
two sequential passes.

A sweep run is evaluated in blocks (``_Grid``) of at most
``_BLOCK_POINTS`` grid points, column by column, and then cut into rows:
``_dispatch_row`` is called once per grid row, in order, and assembles
that row's ``SweepRow``.  Each robustness column of a block is one call
of its program on the block's grid and one ``L1Solution`` with the
block's axis (``lp.solve_l1``), each entry solved on its own from the
program's reference starts, where every LP call starts (``lp``).  No
basis passes from one entry, block or run to the next, so identical
configs produce byte-identical CSV.  Every LP of the default grids is read
off a reference start with no pivot, a block's off one stacked mat-vec.
A value read off a basis can differ from a cold solve at the same point
in the last bits, never in the printed digits of the default grids.

A threshold search (``find_threshold``) scores a registered measure in
blocks of the same program, each building only what its measure reads,
through its ``MEASURES`` callable; each block's LPs start from their
program's reference starts, as a sweep's do.  The floor the measure is
registered with, its monotone's, decides whether it reads free as an LP
or as mana.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import phasespace
from .channels import (
    DensityOperator,
    KrausChannel,
    _derived,
    compose_channels,
    depolarizing_channel,
    noisy_th_channel,
    plus_density,
    qutrit_noisy_th_channel,
    unitary_channel,
)
from .config import DEFAULT_TOL
from .gates import T_GATE
from .lp import L1Solution, channel_robustness, rom_state
from .phasespace import build_frame, mana_channel, mana_of_wigner, mana_state, wigner_of_operator
from .qswitch import (
    EffectiveDepolarizingSwitch,
    build_switch,
    conditional_outputs,
    effective_t_channels,
)
from .stabilizers import cspo_choi_atoms, enumerate_stabilizer_states

logger = logging.getLogger(__name__)

# Most points a sweep grid or the appendix-c grid may hold; a larger one is
# refused before anything is built.
MAX_GRID_POINTS = 10**6


class BracketError(RuntimeError):
    """The requested threshold bracket does not straddle a crossing."""


class _SettingError(ValueError):
    """A failed check of a sweep setting; ``fields`` names the settings it read."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def _check_lp_tol(lp_tol: float) -> None:
    if not (math.isfinite(lp_tol) and lp_tol >= 0):
        raise _SettingError(f"lp_tol must be finite and >= 0, got {lp_tol}", "lp_tol")


def canonical_experiment(name: str) -> str:
    """The sweep experiment, a key of ``MEASURE_TABLE``, that ``name`` or
    its alias names."""
    key = name.strip().lower()
    key = next((exp for exp, entry in MEASURE_TABLE.items() if entry.alias == key), key)
    if key not in MEASURE_TABLE:
        raise _SettingError(f"unknown experiment {name!r}; expected one of {tuple(MEASURE_TABLE)}", "experiment")
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

    def __post_init__(self):
        object.__setattr__(self, "experiment", canonical_experiment(self.experiment))
        if not (0.0 <= self.start < self.stop <= 1.0):
            raise _SettingError(
                f"grid must satisfy 0 <= start < stop <= 1, got [{self.start}, {self.stop}]", "start", "stop"
            )
        if not (math.isfinite(self.step) and self.step > 0):
            raise _SettingError(f"step must be positive and finite, got {self.step}", "step")
        if self._steps() >= MAX_GRID_POINTS:
            raise _SettingError(
                f"step {self.step} over [{self.start}, {self.stop}] makes more than {MAX_GRID_POINTS} grid points",
                "start", "stop", "step",
            )
        if self.format not in ("csv", "json"):
            raise _SettingError(f"format must be csv or json, got {self.format!r}", "format")
        _check_lp_tol(self.lp_tol)

    def _steps(self) -> float:
        """Steps from start to stop, with the counting slack; a float, so an
        oversized grid is measured without building it."""
        return (self.stop - self.start) / self.step + DEFAULT_TOL.grid

    def grid(self) -> list[float]:
        """``start + k * step`` up to ``stop``, each point clamped to ``stop``:
        the last one can round past it by an ulp."""
        count = int(math.floor(self._steps())) + 1
        return [min(self.start + k * self.step, self.stop) for k in range(count)]


def default_config(experiment: str, **overrides) -> SweepConfig:
    """``experiment``'s sweep on its ``MEASURE_TABLE`` grid, with the
    SweepConfig fields ``overrides`` laid over it."""
    experiment = canonical_experiment(experiment)
    grid = dict(zip(("start", "stop", "step"), MEASURE_TABLE[experiment].grid))
    return SweepConfig(experiment=experiment, **{**grid, **overrides})


@dataclass
class SweepRow:
    """One grid point: measure values plus a status per measure."""

    p: float
    values: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)


@lru_cache(maxsize=None)
def _t_channel() -> KrausChannel:
    return unitary_channel(T_GATE)


def sequential_t_channel(p: float) -> KrausChannel:
    """Fig. 3's sequential channel: a T gate behind two passes of qubit
    depolarizing noise of strength ``p`` (a grid for an array of p)."""
    noise = depolarizing_channel(2, p)
    return compose_channels(noise, compose_channels(noise, _t_channel()))


# Noise-parameterized channels by CLI name; each builder maps an array of
# noise values to a grid of channels.  Each builder is looked up at call
# time, so a rebound module global reaches sweeps, thresholds and the CLI alike.
CHANNELS = {
    "noisy-th": lambda p: noisy_th_channel(p),
    "qutrit-noisy-th": lambda p: qutrit_noisy_th_channel(p),
    "depol-squared-t": lambda p: sequential_t_channel(p),
    "switch-plus-t": lambda p: effective_t_channels(p)[0].channel,
    "switch-minus-t": lambda p: effective_t_channels(p)[1].channel,
}


def _floor_slack(lp_tol: float) -> float:
    """How far a value may sit from its floor and still read as on it:
    ``lp_tol``, but never less than the rounding floor, so that an lp_tol
    of 0 does not turn a free LP's 1 +- a few ulps into a verdict."""
    return max(lp_tol, DEFAULT_TOL.rounding)


def _certified_value(solution: L1Solution, lp_tol: float) -> tuple:
    """A block LP solution's values and list of statuses: each entry's
    certified ``L1Solution.status``, with an optimal value below the floor
    ``below_floor`` and any other ``ok``."""
    def rule(status: str, below: bool) -> str:
        return status if status != "optimal" else "below_floor" if below else "ok"

    below = solution.value < 1.0 - _floor_slack(lp_tol)
    return solution.value, list(map(rule, solution.status, below.tolist()))


def _prob_status(prob_plus: np.ndarray, prob_minus: np.ndarray) -> np.ndarray:
    tol = DEFAULT_TOL.probability
    ok = (
        (-tol <= prob_plus) & (prob_plus <= 1 + tol)
        & (-tol <= prob_minus) & (prob_minus <= 1 + tol)
        & (abs(prob_plus + prob_minus - 1.0) <= tol)
    )
    return np.where(ok, "ok", "check_failed")


def _mana_status(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values, np.where(values >= -DEFAULT_TOL.mana_zero, "ok", "check_failed")


@dataclass
class _Grid:
    """The noise values ``p`` of one experiment, a 1-D array: one block of a
    sweep run or of a threshold search.  Each intermediate is built for all
    of them on first use and kept for the other columns of the block.
    When ``samples`` is a list, as for a search's opening block, each
    measure appends one record ``(p, solution, values)`` to it: the block's
    noise values, its ``L1Solution`` and, one row per entry, the fit values
    s b and s, polynomial in p (``solve``); or for mana ``(p, None, W)``,
    the block's Wigner values as columns ``W[entry, v, u]``."""

    experiment: str
    p: np.ndarray
    lp_tol: float
    samples: list | None = None

    @cached_property
    def channel(self) -> KrausChannel:
        return CHANNELS[MEASURE_TABLE[self.experiment].channel](self.p)

    @cached_property
    def switch_outputs(self) -> tuple:
        """(rho_plus, rho_minus, prob_plus, prob_minus) of the channel switched
        with itself, control and target both in |+>."""
        ch = self.channel
        return conditional_outputs(build_switch(ch, ch), plus_density(ch.d_in))

    @cached_property
    def t_branches(self) -> tuple:
        return effective_t_channels(self.p)

    def solve(self, program, *args, scale=1.0) -> tuple:
        """``_certified_value`` of the one block ``L1Solution`` of
        ``program(*args)``, each entry from its program's reference starts
        (``lp``).  A search's opening block records its sample, with s b
        and s per entry: ``scale`` is the positive s(p) that makes s(p)
        times the LP's right-hand side b a polynomial in p, the probability
        or weight of a switch branch, whose unnormalized output is
        quadratic in p."""
        solution = program(*args)
        if self.samples is not None:
            b = solution.standard_form[1]
            s = np.broadcast_to(np.reshape(scale, (-1, 1)), (len(b), 1))
            self.samples.append((self.p, solution, np.hstack([s * b, s])))
        return _certified_value(solution, self.lp_tol)


# Measures: grid -> (values, statuses), one per grid entry; k is 0 for the
# plus branch and 1 for the minus branch.

def _channel_robustness(g: _Grid) -> tuple:
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    return g.solve(channel_robustness, g.channel, atoms)


def _channel_mana(g: _Grid) -> tuple:
    if g.samples is None:
        return _mana_status(mana_channel(g.channel, build_frame(3)))
    # One Wigner function per entry, W(v|u), affine in p: sampled and scored.
    wig = phasespace.wigner_of_channel(g.channel, build_frame(3))
    g.samples.append((g.p, None, wig))
    return _mana_status(mana_of_wigner(wig, channel=True))


def _branch_probability(g: _Grid, k: int) -> tuple:
    probs = g.switch_outputs[2:]
    return probs[k], _prob_status(*probs)


def _live_branches(g: _Grid, k: int, score) -> tuple:
    """Values and statuses of switch branch ``k``: ``score(p, branch,
    probability)`` on the entries likely enough to have a conditional state,
    and the degenerate status, with a NaN value, on the others, which are
    never divided by."""
    branch, prob, p = g.switch_outputs[k], g.switch_outputs[2 + k], g.p
    live = prob > DEFAULT_TOL.degenerate_prob
    if np.all(live):
        return score(p, branch, prob)
    values, statuses = np.full(np.shape(p), np.nan), np.full(np.shape(p), "degenerate", dtype=object)
    if np.any(live):  # a grid, some of whose entries are live
        branch = _derived(DensityOperator, branch.matrix[live])
        values[live], statuses[live] = score(p[live], branch, prob[live])
    return values, statuses


def _branch_robustness(g: _Grid, k: int) -> tuple:
    def score(p, branch, prob):
        return g.solve(rom_state, branch, enumerate_stabilizer_states(1), scale=prob)

    return _live_branches(g, k, score)


def _branch_mana(g: _Grid, k: int) -> tuple:
    def score(p, branch, prob):
        if g.samples is not None:  # each unnormalized branch's W(u), quadratic in p, as one column
            g.samples.append((p, None, wigner_of_operator(branch.matrix, build_frame(3)).reshape(len(p), -1, 1)))
        return _mana_status(mana_state(branch, build_frame(3)))

    return _live_branches(g, k, score)


def _t_branch_robustness(g: _Grid, k: int) -> tuple:
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    branch = g.t_branches[k]
    return g.solve(channel_robustness, branch.channel, atoms, scale=branch.weight)


def _t_minus_robustness(g: _Grid) -> tuple:
    # The minus-branch channel does not depend on p: one LP per block, a
    # grid of one, which every block reads off its own reference start
    # (lp's _CHANNEL_REFERENCES) with no pivot.
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    channel = _derived(KrausChannel, g.t_branches[1].channel.kraus_ops[None])
    (value,), (status,) = g.solve(channel_robustness, channel, atoms)
    return np.full(np.shape(g.p), value), np.full(np.shape(g.p), status)


def _t_branch_weight(g: _Grid, k: int) -> tuple:
    weights = [branch.weight for branch in g.t_branches]
    return weights[k], _prob_status(*weights)


class Column(NamedTuple):
    """One sweep output column: its measure and, when the measure has a
    crossing worth bisecting, its ``MEASURES`` name."""

    name: str
    measure: Callable
    threshold: str | None = None


# Faithfulness floor of each monotone: the value it takes on every free object.
_FLOORS = {"robustness": 1.0, "mana": 0.0}


class Experiment(NamedTuple):
    """One sweep: its CLI help, the alias a config may name it by, its
    default grid ``(start, stop, step)``, its channel in ``CHANNELS``, the
    monotone (a key of ``_FLOORS``) its threshold columns score, and its
    columns in CSV order."""

    help: str
    alias: str
    grid: tuple
    channel: str
    monotone: str
    columns: tuple


MEASURE_TABLE = {
    "fig2": Experiment(
        "robustness sweep of the noisy TH channel and its switch outputs",
        "fig2_qubit_example", (0.0, 1.0, 0.01), "noisy-th", "robustness", (
            Column("channel_robustness", _channel_robustness, "fig2_channel_robustness"),
            Column("rom_plus", partial(_branch_robustness, k=0), "fig2_rom_plus"),
            Column("rom_minus", partial(_branch_robustness, k=1)),
            Column("prob_plus", partial(_branch_probability, k=0)),
            Column("prob_minus", partial(_branch_probability, k=1)),
        )),
    "fig3": Experiment(
        "robustness sweep of a T gate behind sequential vs switched noise",
        "fig3_depolarized_t", (0.0, 0.45, 0.005), "depol-squared-t", "robustness", (
            Column("rob_sequential", _channel_robustness, "fig3_sequential"),
            Column("rob_switch_plus", partial(_t_branch_robustness, k=0), "fig3_switch_plus"),
            Column("rob_switch_minus", _t_minus_robustness, "fig3_switch_minus"),
            Column("weight_plus", partial(_t_branch_weight, k=0)),
            Column("weight_minus", partial(_t_branch_weight, k=1)),
        )),
    "figs1": Experiment(
        "mana sweep of the qutrit channel and its switch outputs",
        "figs1_qutrit_example", (0.01, 1.0, 0.01), "qutrit-noisy-th", "mana", (
            Column("mana_channel", _channel_mana, "figs1_mana_channel"),
            Column("mana_plus", partial(_branch_mana, k=0), "figs1_mana_plus"),
            Column("mana_minus", partial(_branch_mana, k=1), "figs1_mana_minus"),
            Column("prob_plus", partial(_branch_probability, k=0)),
            Column("prob_minus", partial(_branch_probability, k=1)),
        )),
}

MEASURE_COLUMNS = {
    experiment: tuple(column.name for column in entry.columns)
    for experiment, entry in MEASURE_TABLE.items()
}


def _threshold_value(experiment: str, column: Column, p, samples: list | None = None) -> tuple:
    """``column``'s values and statuses at the 1-D array of noise values
    ``p``, one of each per entry: the column's program on one block, whose
    fit samples are appended to ``samples`` when it is a list."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"a threshold measure scores a 1-D array of noise values, got shape {p.shape}")
    return column.measure(_Grid(experiment, p, DEFAULT_TOL.lp_value, samples))


# Threshold name -> (callable p -> (values, statuses), faithfulness floor):
# the callable scores a 1-D array of noise values ``p`` as one block.
MEASURES = {
    column.threshold: (partial(_threshold_value, experiment, column), _FLOORS[entry.monotone])
    for experiment, entry in MEASURE_TABLE.items()
    for column in entry.columns
    if column.threshold
}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

# Most grid points one block of a sweep run holds; a longer run is scored
# block after block, so memory stays bounded.  128 is the smallest power of
# two that holds every default grid (101, 91 and 100 points), so a default
# sweep is one block and pays each column's per-call LP, kernel and status
# work once.  Each block's LPs start from their programs' reference starts,
# which serve every LP of the default and fine grids with no pivot, so
# those rows keep their bits whatever the block size.
_BLOCK_POINTS = 128


def _dispatch_row(args) -> SweepRow:
    """Row ``i`` of a scored block ``(p, columns, i)``, where ``columns``
    maps each column name to its values and statuses, one per point."""
    p, columns, i = args
    row = SweepRow(p=p[i])
    for name, (values, statuses) in columns.items():
        row.values[name], row.status[name] = values[i], statuses[i]
    return row


def _run_rows(experiment: str, grid: list[float], lp_tol: float) -> list[SweepRow]:
    """The rows of a sweep run over ``grid``, in its order, from the
    programs' reference starts."""
    rows = []
    for lo in range(0, len(grid), _BLOCK_POINTS):
        p = grid[lo : lo + _BLOCK_POINTS]
        block = _Grid(experiment, np.array(p), lp_tol)
        columns = {}
        for column in MEASURE_TABLE[experiment].columns:
            values, statuses = column.measure(block)
            columns[column.name] = np.asarray(values, dtype=float).tolist(), np.asarray(statuses).tolist()
        rows += [_dispatch_row((p, columns, i)) for i in range(len(p))]
    return rows


def run_experiment(config: SweepConfig) -> list[SweepRow]:
    """The rows of ``config``'s sweep, in grid order."""
    return _run_rows(config.experiment, config.grid(), config.lp_tol)


# ---------------------------------------------------------------------------
# Strict-inequality grid report
# ---------------------------------------------------------------------------

def run_appendix_c(d_values=(2, 3, 5, 10), n_points: int = 10_000) -> dict:
    """Verify p_plus < 2p - p^2 on a dense grid of p in (0, 1] per dimension.

    Also evaluates the factored algebraic identity behind the inequality;
    its residual stays at rounding level (< 1e-12).  The grid is p = k / n
    for k = 1..n; a non-integer or empty grid, an empty dimension list, any
    d that is not an integer of at least 2 (through ``from_noise``), or a d
    given twice, which the report would show once, raises ``ValueError``
    rather than passing vacuously, as does a grid above ``MAX_GRID_POINTS``.
    """
    if not (isinstance(n_points, numbers.Integral) and 1 <= n_points <= MAX_GRID_POINTS):
        raise ValueError(f"n_points={n_points} must be an integer in [1, {MAX_GRID_POINTS}]")
    if not d_values:
        raise ValueError("at least one dimension is required")
    p = np.arange(1, n_points + 1) / n_points
    dims = {}
    for d in d_values:
        eff = EffectiveDepolarizingSwitch.from_noise(d, p)
        if int(d) in dims:
            raise ValueError(f"dimension d={d} is given twice")
        worst_gap = float((eff.p_plus - eff.sequential_strength()).max())
        dims[int(d)] = {
            "max_gap": worst_gap,
            "max_identity_residual": float(eff.factored_identity_residual().max()),
            "strictly_negative": worst_gap < 0.0,
        }
    report = {"n_points": n_points, "dimensions": dims}
    for key in ("max_gap", "max_identity_residual"):
        report[key] = max(entry[key] for entry in dims.values())
    report["strictly_negative"] = report["max_gap"] < 0.0
    return report


# ---------------------------------------------------------------------------
# Threshold finder
# ---------------------------------------------------------------------------

def polyval(coeffs, t):
    """Value at ``t`` of the quadratics in p that ``fit_polynomial`` fits,
    coefficients along axis 0, lowest degree first."""
    value = coeffs[-1]
    for coeff in coeffs[-2::-1]:
        value = value * t + coeff
    return value


def fit_polynomial(points, values):
    """Coefficients of the quadratics through three ``points``, where
    ``values`` holds one array per point, or None when no unique such
    quadratics exist."""
    values = np.asarray(values, dtype=np.float64)
    vander = np.vander(np.asarray(points, dtype=np.float64), 3, increasing=True)
    try:
        coeffs = np.linalg.solve(vander, values.reshape(len(values), -1))
    except np.linalg.LinAlgError:
        return None
    return coeffs.reshape(values.shape)


def quadratic_roots(coeffs):
    """Real roots of the quadratics whose (3, k) ``coeffs`` run along axis 0,
    as a (2, k) array (a pair for a single quadratic) with NaN where a root
    does not exist.  The product form keeps the small root accurate when
    the leading term vanishes."""
    c0, c1, c2 = coeffs
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        roots = np.array([q / c2, c0 / q])
    return np.where(np.isfinite(roots), roots, np.nan)


@dataclass(frozen=True)
class ThresholdResult:
    measure: str
    threshold: float
    bracket: tuple
    iterations: int


def find_threshold(
    measure: str,
    lo: float,
    hi: float,
    lp_tol: float = DEFAULT_TOL.lp_value,
    threshold_tol: float = 1e-3,
) -> ThresholdResult:
    """Find the crossing of a registered measure onto its faithfulness floor.

    ``measure`` is a name in ``MEASURES``, looked up when the search starts.
    The bracket is a nonempty part of [0, 1], the sweeps' range of p, and
    one that is not is refused before any point is scored.  Its endpoints
    must disagree on the predicate value <= floor + lp_tol (an lp_tol below
    ``DEFAULT_TOL.rounding`` counts as that rounding floor); a measure
    registered with mana's floor reads free where its mana reads 0, value
    <= floor + ``DEFAULT_TOL.mana_zero``, whatever lp_tol.
    When the ends do not disagree, the mismatch is reported rather than
    guessed around.  The result is a bracket no wider than
    ``threshold_tol`` whose ends disagree on the predicate, as the measure
    itself evaluates it, and a threshold inside it.  Only the bracket feeds
    the search, so the answer does not depend on any sweep grid step.

    The points are scored in blocks.  The opening block is ``[lo, mid,
    hi]`` in p order, with the first bisection step ``mid`` only where the
    bracket is wider than ``threshold_tol`` and ``mid`` lies strictly
    inside it.  A status other than ``ok`` (a degenerate branch, or an LP
    that failed or missed its certificate) leaves no number to bisect on
    and raises ``ValueError``: at an end first, then the ends' agreement
    raises ``BracketError``, then the midpoint's status is read.  A
    registered measure's opening block records its samples, and
    ``_propose_crossing`` proposes the crossing r from the quadratics
    through them.  The probes just inside r - threshold_tol / 2 and r +
    threshold_tol / 2 that lie inside the bracket are the second block;
    when the two disagree, they are the bracket and r the threshold.  A
    second probe that the first moves outside the bracket is discarded.
    These probes are the only check on r.  Any other outcome, a fit that
    fails included, bisects on from the narrowest bracket known, one point
    per block, until the midpoint is no longer strictly inside it.  The
    measure's callable takes each block as a 1-D array of p, the opening
    block with a ``samples`` list.  Every LP of a search starts from its
    program's reference starts, as every LP call does, so no block depends
    on an earlier one.
    ``iterations`` counts the points that narrowed the bracket: the
    midpoint, the probes not discarded and each later bisection step.
    Each search logs one INFO line: the measure, the threshold, the
    bracket, the points scored and whether the proposed root was confirmed
    or the search bisected.
    """
    if not (math.isfinite(threshold_tol) and threshold_tol > 0):
        raise ValueError(f"threshold_tol must be finite and positive, got {threshold_tol}")
    _check_lp_tol(lp_tol)
    if measure not in MEASURES:
        raise KeyError(f"unknown measure {measure!r}; known: {sorted(MEASURES)}")
    registered, floor = MEASURES[measure]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket [{lo}, {hi}] has an end that is not a finite number")
    if not lo < hi:
        raise ValueError(f"bracket [{lo}, {hi}] is empty")
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"bracket [{lo}, {hi}] leaves [0, 1], the range of p")
    mana = floor == _FLOORS["mana"]
    level = floor + (DEFAULT_TOL.mana_zero if mana else _floor_slack(lp_tol))
    samples = []
    bracket = [lo, hi]
    iterations = scored = 0

    def score(points: list, record: list | None = None) -> list:
        """One block: (p, value, status) per point; its fit samples go to
        ``record`` when it is a list."""
        nonlocal scored
        scored += len(points)
        return list(zip(points, *registered(np.array(points), samples=record)))

    def reads_free(p: float, value, status: str) -> bool:
        if status != "ok":
            reason = "a degenerate branch" if status == "degenerate" else f"status {status}"
            raise ValueError(f"measure {measure} has {reason} at p={p}")
        # A plain bool: a measure's NumPy scalar would make a NumPy bool,
        # which cannot index the bracket.
        return bool(value <= level)

    def midpoint() -> float | None:
        mid = 0.5 * (bracket[0] + bracket[1])
        return mid if bracket[1] - bracket[0] > threshold_tol and bracket[0] < mid < bracket[1] else None

    def narrow(read: tuple) -> None:
        nonlocal iterations
        iterations += 1
        bracket[reads_free(*read) != free_lo] = read[0]

    mid = midpoint()
    opening = score([lo, hi] if mid is None else [lo, mid, hi], samples)
    free_lo, free_hi = reads_free(*opening[0]), reads_free(*opening[-1])
    if free_lo == free_hi:
        raise BracketError(
            f"measure {measure} has no crossing on [{lo}, {hi}]: "
            f"predicate is {free_lo} at both endpoints"
        )
    proposed = False
    if mid is not None:
        narrow(opening[1])
        root = _propose_crossing(samples[0], bracket, level, mana)
        # One ulp of the root inside r -+ threshold_tol / 2, so that the
        # bracket's computed width stays within threshold_tol.
        half = 0.5 * threshold_tol - math.ulp(root or 0.0)
        if root is not None and half > 0:
            probes = [root - half, root + half]
            inside = [p for p in probes if bracket[0] < p < bracket[1]]
            # The second probe is discarded once the first moves it outside.
            for read in score(inside) if inside else ():
                if bracket[0] < read[0] < bracket[1]:
                    narrow(read)
            proposed = bracket == probes
    while not proposed and (mid := midpoint()) is not None:
        narrow(*score([mid]))
    threshold = root if proposed else 0.5 * (bracket[0] + bracket[1])
    logger.info(
        "threshold %s: %.12g in [%.12g, %.12g] after %d evaluations, %s",
        measure, threshold, *bracket, scored, "root proposed" if proposed else "bisected",
    )
    return ThresholdResult(measure, threshold, tuple(bracket), iterations)


def _propose_crossing(sample: tuple, bracket: list, level: float, mana: bool) -> float | None:
    """Propose where a registered measure crosses ``level`` inside
    ``bracket`` from the fit ``sample`` of its opening block, or None.

    ``sample`` is the opening block's record ``(p, solution, values)``: the
    two ends of the search and its first bisection step, whose later
    bracket is ``bracket``, in p order, with one row of ``values`` per
    point.  ``values`` are interpolated by the quadratics through the three
    points, which holds exactly since they are quadratic in p; their roots
    come in closed form.  For a ``mana`` measure they are Wigner values
    (``_mana_root``).  For an LP they are s b and s, the scaled right-hand
    side and the scale, and the crossing is read off the optimal basis of
    the block's entry at the bracket's low end (``_basis_root``).
    """
    p, solution, values = sample
    fit = fit_polynomial(p, values)
    if fit is None:
        return None
    if mana:
        return _mana_root(fit, level, *bracket)
    return _basis_root(solution, p.tolist().index(bracket[0]), fit, level, *bracket)


def _basis_root(solution: L1Solution, entry: int, fit: np.ndarray, level: float, lo: float, hi: float) -> float | None:
    """The first p in [lo, hi] at which the optimal basis of entry
    ``entry`` of the block ``solution`` is optimal with the value
    ``level``, or None.

    ``fit`` holds the polynomials s(p) b(p), one per row of the LP's A, then
    s(p).  Reduced costs do not depend on b, so the basis is optimal
    wherever s > 0 and x_B = B^-1 b >= -``Tolerances.primal``, the rule
    ``reuse_basis`` serves by, and there the value sum(x) equals ``level``
    at a root of c_B B^-1 s b - level s.
    A crossing that only another basis reaches gives None."""
    start, n = solution.warm_start[entry], solution.standard_form[0].shape[1]
    # Row i: the coefficients of s(p) x_B[i](p).  Both programs have full
    # row rank, so an optimal basis holds no artificial; one on an exactly
    # redundant row of another LP would sit at 0 and add nothing to the value.
    x = start.inverse @ fit[:, :-1].T
    scale = fit[:, -1]
    gap = (start.basis < n).astype(np.float64) @ x - level * scale  # s(p) (value(p) - level)
    roots = quadratic_roots(gap)
    s = polyval(scale, roots)
    feasible = (polyval(x.T, roots[:, None]) >= -DEFAULT_TOL.primal * s[:, None]).all(axis=1)
    roots = roots[(lo <= roots) & (roots <= hi) & (s > 0) & feasible]
    return float(roots.min()) if roots.size else None


def _mana_root(fit: np.ndarray, level: float, lo: float, hi: float) -> float | None:
    """The first p in (lo, hi) at which mana <= ``level`` starts or stops
    holding, or None.  ``fit`` holds the polynomials ``W[v, u]``, a
    channel's W(v|u) or an unnormalized state's W as one column; mana is at
    most ``level`` where every column's l1 norm is at most 2^level times
    its sum (the trace, or 1).  On a stretch where no entry changes sign,
    with signs sigma, that is one quadratic per column,
    sum_v (sigma_vu - 2^level) W_vu(p) <= 0, and the flips lie among their
    roots on their stretch."""
    bound = 2.0**level
    roots = quadratic_roots(fit.reshape(len(fit), -1)).ravel()
    edges = np.sort(np.concatenate([[lo, hi], roots[(lo < roots) & (roots < hi)]]))
    sigma = np.sign(polyval(fit, 0.5 * (edges[:-1] + edges[1:])[:, None, None]))
    tests = np.einsum("svu,kvu->ksu", sigma - bound, fit)  # one quadratic per stretch and column
    cuts = quadratic_roots(tests.reshape(len(fit), -1)).reshape(2, *tests.shape[1:])
    cuts = np.sort(cuts[(edges[:-1, None] <= cuts) & (cuts <= edges[1:, None])])
    ends = np.concatenate([[lo], cuts, [hi]])
    w = polyval(fit, 0.5 * (ends[:-1] + ends[1:])[:, None, None])
    free = (np.abs(w).sum(axis=1) <= bound * w.sum(axis=1)).all(axis=1)
    changes = np.flatnonzero(free[1:] != free[:-1])
    return float(cuts[changes[0]]) if changes.size else None


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

# How both writers print a number: 12 significant digits.
_NUMBER = "%.12g"


def rows_to_csv(rows: list[SweepRow], measures) -> str:
    header = ["p"] + list(measures) + [f"{m}_status" for m in measures]
    # One format string per row: the numbers, then the statuses.
    line = ",".join([_NUMBER] * (1 + len(measures)) + ["%s"] * len(measures))
    lines = [",".join(header)]
    for row in rows:
        values, status = row.values, row.status
        lines.append(line % (row.p, *[values[m] for m in measures], *[status[m] for m in measures]))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow], measures) -> str:
    payload = []
    for row in rows:
        entry = {"p": float(_NUMBER % row.p)}
        for m in measures:
            value = row.values[m]
            entry[m] = None if math.isnan(value) else float(_NUMBER % value)
            entry[f"{m}_status"] = row.status[m]
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def write_text(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout for None or "-"."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_rows(rows: list[SweepRow], config: SweepConfig) -> str:
    measures = MEASURE_COLUMNS[config.experiment]
    text = rows_to_csv(rows, measures) if config.format == "csv" else rows_to_json(rows, measures)
    write_text(text, config.output_path)
    return text


# ---------------------------------------------------------------------------
# Key-value config files
# ---------------------------------------------------------------------------

# Config-file keys: the SweepConfig fields, and ``out`` for ``output_path``.
_CONFIG_KEYS = {**get_type_hints(SweepConfig), "out": str}


def parse_config_file(path: str, **flags) -> SweepConfig:
    """Read ``key = value`` lines ('#' comments allowed) into a SweepConfig,
    with ``flags``, SweepConfig fields, laid over the file's settings.
    Each setting may be given once: a second line for it, under either
    name of ``output_path``, is an error that names both lines.  A check
    that fails on a setting the file gave and no flag overrode is reported
    at the earliest such line, as ``path:line: <message>``."""
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            setting = "output_path" if key == "out" else key
            if setting in lines:
                raise ValueError(f"{path}:{lineno}: {setting} is already set on line {lines[setting]}")
            kind, val = _CONFIG_KEYS[key], val.strip()
            try:
                values[setting] = kind(val)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {kind.__name__}, got {val!r}") from None
            lines[setting] = lineno
    if "experiment" not in values:
        raise ValueError(f"{path}: missing required key 'experiment'")
    try:
        return default_config(**{**values, **flags})
    except _SettingError as exc:
        given = [lines[name] for name in exc.fields if name in lines and name not in flags]
        if not given:
            raise
        raise ValueError(f"{path}:{min(given)}: {exc}") from None
