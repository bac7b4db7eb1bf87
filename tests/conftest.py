import math
import sys
from collections import Counter
from functools import cached_property, partial

import numpy as np
import pytest

from magicswitch import (
    DensityOperator,
    KrausChannel,
    build_frame,
    build_switch,
    channel_robustness,
    compose_channels,
    conditional_outputs,
    cspo_choi_atoms,
    depolarizing_channel,
    effective_t_channels,
    enumerate_stabilizer_states,
    mana_channel,
    mana_state,
    noisy_th_channel,
    rom_state,
    unitary_channel,
)
from magicswitch.channels import plus_density
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import T_GATE
from magicswitch.linalg import tensor
from magicswitch.qswitch import EffectiveDepolarizingSwitch

# Clifford generators the tests build stabilizer orbits and Clifford
# conjugations from; the package itself needs none of them.
PHASE_S = np.diag([1.0, 1.0j]).astype(complex)
CNOT_01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)


@pytest.fixture(scope="session")
def qubit_dict():
    return enumerate_stabilizer_states(1)


@pytest.fixture(scope="session")
def twoq_dict():
    return enumerate_stabilizer_states(2)


@pytest.fixture(scope="session")
def choi_atoms(twoq_dict):
    return cspo_choi_atoms(twoq_dict)


@pytest.fixture(scope="session")
def frame3():
    return build_frame(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density_matrix(d, rng, rank=None):
    """Ginibre-induced random state, optionally rank-limited."""
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_kraus_channel(d, n_ops, rng):
    """Random complete Kraus set: normalize raw Ginibre blocks by the
    inverse square root of their completeness sum."""
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_ops)]
    total = sum(b.conj().T @ b for b in blocks)
    eigvals, eigvecs = np.linalg.eigh(total)
    inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
    return KrausChannel(tuple(b @ inv_sqrt for b in blocks))


def fig2_fig3_channels():
    """The channels whose robustness fig2 and fig3 plot, on a coarse p grid:
    the noisy TH channel, and the T gate behind sequential and switched
    depolarizing noise (both switch branches)."""
    for p in np.linspace(0.0, 1.0, 6):
        yield noisy_th_channel(p)
    for p in np.linspace(0.0, 0.45, 4):
        noise = depolarizing_channel(2, p)
        yield compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))
        for branch in effective_t_channels(p):
            yield branch.channel


def pivots_by_caller(monkeypatch, run):
    """Run ``run()``; return its result and how many ``_simplex._pivot``
    calls each function of ``_simplex`` made, by name."""
    from magicswitch import _simplex

    pivots = Counter()
    pivot = _simplex._pivot

    def spy(*args):
        pivots[sys._getframe(1).f_code.co_name] += 1
        return pivot(*args)

    with monkeypatch.context() as patch:
        patch.setattr(_simplex, "_pivot", spy)
        result = run()
    return result, pivots


def recorded_solves(monkeypatch, run):
    """Run ``run()``; return its result and, per LP a sweep or a search got
    solved by ``channel_robustness`` or ``rom_state`` (looked up in
    ``experiments``), in order: [whether its solve had a start basis, its
    ``iterations``].  A call returns one solution, with an entry per LP of
    a block: the first entry starts from the bases the call was given, and
    each later one from those the walk holds by then."""
    from magicswitch import experiments

    solves = []

    def recording(program):
        def solve(*args, basis=None):
            solution = program(*args, basis=basis)
            for k, iterations in enumerate(np.atleast_1d(solution.iterations).tolist()):
                solves.append([bool(basis) or k > 0, iterations])
            return solution

        return solve

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "channel_robustness", recording(experiments.channel_robustness))
        patch.setattr(experiments, "rom_state", recording(experiments.rom_state))
        result = run()
    return result, solves


# ---------------------------------------------------------------------------
# The sweep one grid point at a time: the oracle of the array program
# ---------------------------------------------------------------------------

class PointOracle:
    """One noise value ``p`` of one sweep experiment: the per-point sweep the
    array program replaced, kept as its reference.  Each intermediate is
    built by the package's single-object functions on first use, and each
    LP is solved alone, from the bases its column held after the previous
    point of the run (``run["bases"]``, that solution's ``held``), or cold
    when ``run["cold"]``."""

    def __init__(self, experiment, p, lp_tol, run):
        self.experiment, self.p, self.lp_tol, self.run = experiment, p, lp_tol, run

    @cached_property
    def channel(self):
        from magicswitch import experiments

        return experiments.CHANNELS[experiments.MEASURE_TABLE[self.experiment][0]](self.p)

    @cached_property
    def switch_outputs(self):
        ch = self.channel
        return conditional_outputs(build_switch(ch, ch), plus_density(ch.d_in))

    @cached_property
    def t_branches(self):
        return effective_t_channels(self.p)

    def solve(self, column, program, *args):
        from magicswitch import experiments, lp

        solution = program(*args, basis=self.run["bases"].get(column))
        if self.run.get("cold"):
            solution = lp.solve_l1(*solution.standard_form, (), solution.renorm_factor)
        self.run["bases"][column] = solution.held
        return experiments._certified_value(solution, self.lp_tol)


def _prob_status(a, b):
    tol = DEFAULT_TOL.probability
    ok = -tol <= a <= 1 + tol and -tol <= b <= 1 + tol and abs(a + b - 1.0) <= tol
    return "ok" if ok else "check_failed"


def _mana_status(value):
    return value, "ok" if value >= -DEFAULT_TOL.mana_zero else "check_failed"


def _oracle_channel_robustness(pt, column):
    return pt.solve(column, channel_robustness, pt.channel, cspo_choi_atoms(enumerate_stabilizer_states(2)))


def _oracle_channel_mana(pt, column):
    return _mana_status(mana_channel(pt.channel, build_frame(3)))


def _oracle_probability(pt, column, k):
    probs = pt.switch_outputs[2:]
    return probs[k], _prob_status(*probs)


def _oracle_branch_robustness(pt, column, k):
    if pt.switch_outputs[2 + k] <= DEFAULT_TOL.degenerate_prob:
        return float("nan"), "degenerate"
    return pt.solve(column, rom_state, pt.switch_outputs[k], enumerate_stabilizer_states(1))


def _oracle_branch_mana(pt, column, k):
    if pt.switch_outputs[2 + k] <= DEFAULT_TOL.degenerate_prob:
        return float("nan"), "degenerate"
    return _mana_status(mana_state(pt.switch_outputs[k], build_frame(3)))


def _oracle_t_robustness(pt, column, k):
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    if k == 0:
        return pt.solve(column, channel_robustness, pt.t_branches[0].channel, atoms)
    # The minus-branch channel does not depend on p: solved once per run.
    if "switch_minus" not in pt.run:
        pt.run["switch_minus"] = pt.solve(column, channel_robustness, pt.t_branches[1].channel, atoms)
    return pt.run["switch_minus"]


def _oracle_t_weight(pt, column, k):
    weights = [branch.weight for branch in pt.t_branches]
    return weights[k], _prob_status(*weights)


# Sweep column -> its per-point measure (point, column) -> (value, status).
ORACLE_MEASURES = {
    "channel_robustness": _oracle_channel_robustness,
    "rom_plus": partial(_oracle_branch_robustness, k=0),
    "rom_minus": partial(_oracle_branch_robustness, k=1),
    "prob_plus": partial(_oracle_probability, k=0),
    "prob_minus": partial(_oracle_probability, k=1),
    "rob_sequential": _oracle_channel_robustness,
    "rob_switch_plus": partial(_oracle_t_robustness, k=0),
    "rob_switch_minus": partial(_oracle_t_robustness, k=1),
    "weight_plus": partial(_oracle_t_weight, k=0),
    "weight_minus": partial(_oracle_t_weight, k=1),
    "mana_channel": _oracle_channel_mana,
    "mana_plus": partial(_oracle_branch_mana, k=0),
    "mana_minus": partial(_oracle_branch_mana, k=1),
}


def oracle_rows(experiment, grid, lp_tol=DEFAULT_TOL.lp_value, cold=False):
    """The rows of one contiguous run over ``grid``, one point at a time, in
    order, each LP warm-started from the bases its column holds (from the
    all-artificial basis at every point when ``cold``)."""
    from magicswitch.experiments import MEASURE_COLUMNS, SweepRow

    run = {"bases": {}}
    rows = []
    for p in grid:
        if cold:
            run = {"bases": {}, "cold": True}
        point = PointOracle(experiment, p, lp_tol, run)
        row = SweepRow(p=p)
        for column in MEASURE_COLUMNS[experiment]:
            row.values[column], row.status[column] = ORACLE_MEASURES[column](point, column)
        rows.append(row)
    return rows


def compare_rows(got, want, tol=1e-12):
    """Assert equal p and statuses and values within ``tol`` (NaN where the
    oracle has NaN); return how many values are bit-equal and how many
    there are."""
    assert len(got) == len(want)
    equal = total = 0
    for g, w in zip(got, want):
        assert g.p == w.p
        assert g.status == w.status, g.p
        for column, value in w.values.items():
            total += 1
            if np.isnan(value):
                assert np.isnan(g.values[column]), (g.p, column)
                equal += 1
                continue
            assert abs(g.values[column] - value) <= tol, (g.p, column, g.values[column], value)
            equal += g.values[column] == value
    return equal, total


# ---------------------------------------------------------------------------
# Oracles shared by several test modules
# ---------------------------------------------------------------------------

# Each LP threshold's closed form, and the bracket the benchmark searches
# it in.
#  - fig2: the noisy TH channel turns free at 1 - 1/sqrt(2), and its plus
#    output at 2 - sqrt(2).
#  - fig3_sequential: two depolarizing passes are one of strength
#    q = 2p - p^2, and D_q o T has robustness sqrt(2) (1 - q) + q/2 on the
#    magic side.  It reaches 1 at q* = (6 - 2 sqrt(2))/7, so
#    p* = 1 - sqrt(1 - q*) = 1 - sqrt(7 + 14 sqrt(2))/7.
#  - fig3_switch_plus: the branch weight s(p) = 1 - 3p^2/8 times its
#    robustness is a quadratic in p over Q(sqrt(2)).  It meets s(p) at the
#    root in (0, 1) of a p^2 + b p + c, with a = 9 sqrt(2) - 3,
#    b = -8 (2 sqrt(2) - 1) and c = 8 (sqrt(2) - 1): the smaller root,
#    2c / (-b + sqrt(b^2 - 4ac)) without cancellation.
_R2 = math.sqrt(2)
_A, _B, _C = 9 * _R2 - 3, -8 * (2 * _R2 - 1), 8 * (_R2 - 1)
LP_THRESHOLDS = {
    "fig2_channel_robustness": 1 - 1 / _R2,
    "fig2_rom_plus": 2 - _R2,
    "fig3_sequential": 1 - math.sqrt(7 + 14 * _R2) / 7,
    "fig3_switch_plus": 2 * _C / (math.sqrt(_B * _B - 4 * _A * _C) - _B),
}
LP_BRACKETS = {
    "fig2_channel_robustness": (0.2, 0.4),
    "fig2_rom_plus": (0.5, 0.7),
    "fig3_sequential": (0.2, 0.35),
    "fig3_switch_plus": (0.2, 0.35),
}


def operators_close(a, b, tol=DEFAULT_TOL.eq):
    """Entrywise equality within an absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.abs(a - b).max() <= tol)


def extend_with_reference(ch, d_ref):
    """id_ref (x) channel: an idle reference system tensored on the left."""
    return KrausChannel([tensor(np.eye(d_ref, dtype=complex), K) for K in ch.kraus_ops])


def depolarizing_switch_closed_form(d, p, rho):
    """Closed-form conditional branches of switched depolarizing noise: the
    unnormalized (plus, minus) states weight_pm * D_{p_pm}(rho), which must
    agree entrywise with the generic Kraus construction of the switch."""
    eff = EffectiveDepolarizingSwitch.from_noise(d, p)

    def depolarize(strength):
        return strength * np.trace(rho.matrix) * np.eye(d) / d + (1 - strength) * rho.matrix

    plus = eff.weight_plus * depolarize(eff.p_plus)
    minus = eff.weight_minus * depolarize(eff.p_minus)
    return DensityOperator(plus), DensityOperator(minus)
