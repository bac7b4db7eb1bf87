import math
import sys
from collections import Counter, namedtuple
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
from magicswitch import _simplex, channels, cli, experiments, lp, phasespace, qswitch, stabilizers
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


# ---------------------------------------------------------------------------
# Seams: the one home of each private package name a test reaches, named in
# the module that defines it, so that a rename or a move is an edit here.
# ---------------------------------------------------------------------------

Call = namedtuple("Call", "args kwargs result caller")  # caller: the calling function's name


def spy(monkeypatch, module, name, calls=None):
    """Record each call of ``module.name`` while ``monkeypatch`` holds, as a
    ``Call`` in ``calls`` (a new list if None), and let it through; return
    ``calls``.  ``module`` is where callers look the name up: for a private
    function, the module that defines it, never a stale re-export."""
    original = getattr(module, name)
    home = getattr(original, "__module__", module.__name__)
    assert not name.startswith("_") or name.endswith("__") or home == module.__name__, f"{name} is in {home}"
    calls = [] if calls is None else calls

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(Call(args, kwargs, result, sys._getframe(1).f_code.co_name))
        return result

    monkeypatch.setattr(module, name, recording)
    return calls


def pivots_by_caller(monkeypatch, run):
    """Run ``run()``; return its result and how many simplex pivots each
    function of ``_simplex`` made, by name."""
    with monkeypatch.context() as patch:
        pivots = spy(patch, _simplex, "_pivot")
        result = run()
    return result, Counter(call.caller for call in pivots)


def recorded_solves(monkeypatch, run):
    """Run ``run()``; return its result and, per LP a sweep or a search
    solved by ``channel_robustness`` or ``rom_state``, in order: [whether it
    was read off one of its program's reference starts, its
    ``iterations``].  Every LP starts from those, a block's entries each
    on its own, so an LP that pivots is not read off a reference."""
    with monkeypatch.context() as patch:
        calls = spy(patch, experiments, "channel_robustness")
        spy(patch, experiments, "rom_state", calls)
        result = run()
    solves = []
    for call in calls:
        build = channel_program if isinstance(call.args[1], tuple) else state_program  # atoms or a dictionary
        references = {id(start) for start in build(call.args[1])[1]}
        starts = call.result.warm_start if isinstance(call.result.warm_start, list) else [call.result.warm_start]
        iterations = np.atleast_1d(call.result.iterations).tolist()
        solves += [[id(start) in references, n] for start, n in zip(starts, iterations)]
    return result, solves


def sweep_rows(experiment, grid, lp_tol, block_points=None):
    """The rows of a sweep run over the list ``grid``, in its order, as
    ``run_experiment`` scores its grid, in blocks of ``block_points`` if given."""
    with pytest.MonkeyPatch.context() as patch:
        if block_points is not None:
            patch.setattr(experiments, "_BLOCK_POINTS", block_points)
        return experiments._run_rows(experiment, grid, lp_tol)


def dispatched_rows(monkeypatch):
    """Spy on the row boundary perfbench times: one call per sweep row."""
    return spy(monkeypatch, experiments, "_dispatch_row")


def sweep_config(argv):
    """The SweepConfig a sweep subcommand's ``argv`` runs: its --config file,
    if any, with the flags given laid over it."""
    return cli._sweep_config(cli.build_parser().parse_args(argv))


def scored_block(p, samples, program, *args, scale=1.0):
    """(values, statuses) of ``program(*args)`` as an LP column of one fig2
    block at noise values ``p``; when ``samples`` is a list, the block
    appends its fit sample, with scale s(p) = ``scale``, as in a search."""
    return experiments._Grid("fig2", p, DEFAULT_TOL.lp_value, samples).solve(program, *args, scale=scale)


def threshold_value_calls(monkeypatch):
    """Spy on the function behind every registered measure, by the name the
    package looks it up by: these calls did not go through ``MEASURES``."""
    return spy(monkeypatch, experiments, "_threshold_value")


def _root_finders():
    """A search's crossing proposals: an LP measure's, then a mana measure's."""
    return experiments._basis_root, experiments._mana_root


def basis_root(*args):
    """Where the optimal basis of one block entry reaches a level, or None."""
    return _root_finders()[0](*args)


def proposed_roots(monkeypatch, mana=False, injected=...):
    """Record ``((lo, hi), root)`` for each crossing a search proposes, from
    an LP's basis or, if ``mana``, a Wigner fit; ``injected`` replaces the root."""
    propose, proposals = _root_finders()[mana], []

    def proposing(*args):
        proposals.append((args[-2:], propose(*args) if injected is ... else injected))
        return proposals[-1][1]

    monkeypatch.setattr(sys.modules[propose.__module__], propose.__name__, proposing)
    return proposals


def _program_builders():
    """lp's channel and state programs: atoms -> (A, reference starts latest first)."""
    return lp._channel_constraints, lp._state_constraints


def channel_program(atoms):
    return _program_builders()[0](atoms)


def state_program(dictionary):
    return _program_builders()[1](dictionary)


def clear_program_caches():
    for build in _program_builders():
        build.cache_clear()


@pytest.fixture
def reference_starts(choi_atoms, qubit_dict):
    """The channel program's reference starts in its table's order, the qubit
    state program's built too, so a pivot count leaves out their own pivots."""
    state_program(qubit_dict)
    return channel_program(choi_atoms)[1][::-1]


def grid_of(cls, array):
    """A ``cls`` holding ``array``, grid axes included, derived unchecked."""
    return channels._derived(cls, array)


def completeness_checks(monkeypatch):
    """Spy on each completeness-residual sum of a Kraus stack, its one argument."""
    return spy(monkeypatch, channels, "_completeness_residual")


def apply_chunk_bytes():
    """The most bytes of products ``apply_kraus`` forms at once: it forms
    K_i M, then (K_i M) K_i^dag, a chunk of grid entries at a time."""
    return channels._APPLY_CHUNK_BYTES


def joint_input(rho):
    """|+><+| (x) rho, the switch input, cached per target."""
    return qswitch._joint_input(rho)


def clear_joint_inputs():
    qswitch._joint_input.cache_clear()


def drop_a_generating_set(monkeypatch):
    """Have the stabilizer enumeration read every generating set but the
    first, so it comes up one set of sign choices short."""
    exact = stabilizers._canonical_generators
    monkeypatch.setattr(stabilizers, "_canonical_generators", lambda n_qubits: list(exact(n_qubits))[1:])


def channel_wigner_builds(monkeypatch):
    """Spy on each Wigner function of a channel (or a grid) built from its Choi state."""
    return spy(monkeypatch, phasespace, "_choi_route_wigner")


# ---------------------------------------------------------------------------
# The sweep one grid point at a time: the oracle of the array program
# ---------------------------------------------------------------------------

class PointOracle:
    """One noise value ``p`` of one sweep experiment: the per-point sweep the
    array program replaced, kept as its reference.  Each intermediate is
    built by the package's single-object functions on first use, and each
    LP is solved alone, from its program's reference starts, or cold when
    ``run["cold"]``."""

    def __init__(self, experiment, p, lp_tol, run):
        self.experiment, self.p, self.lp_tol, self.run = experiment, p, lp_tol, run

    @cached_property
    def channel(self):
        return experiments.CHANNELS[experiments.MEASURE_TABLE[self.experiment].channel](self.p)

    @cached_property
    def switch_outputs(self):
        ch = self.channel
        return conditional_outputs(build_switch(ch, ch), plus_density(ch.d_in))

    @cached_property
    def t_branches(self):
        return effective_t_channels(self.p)

    def solve(self, program, *args):
        """The value and status of one LP: its certified status, with an
        optimal value below 1 - max(lp_tol, the rounding floor) read as
        ``below_floor`` and any other optimal one as ``ok``."""
        solution = program(*args)
        if self.run.get("cold"):
            solution = lp.solve_l1(*solution.standard_form, renorm_factor=solution.renorm_factor)
        status = solution.status
        if status == "optimal":
            floor = 1.0 - max(self.lp_tol, DEFAULT_TOL.rounding)
            status = "below_floor" if solution.value < floor else "ok"
        return solution.value, status


def _prob_status(a, b):
    tol = DEFAULT_TOL.probability
    ok = -tol <= a <= 1 + tol and -tol <= b <= 1 + tol and abs(a + b - 1.0) <= tol
    return "ok" if ok else "check_failed"


def _mana_status(value):
    return value, "ok" if value >= -DEFAULT_TOL.mana_zero else "check_failed"


def _oracle_channel_robustness(pt):
    return pt.solve(channel_robustness, pt.channel, cspo_choi_atoms(enumerate_stabilizer_states(2)))


def _oracle_channel_mana(pt):
    return _mana_status(mana_channel(pt.channel, build_frame(3)))


def _oracle_probability(pt, k):
    probs = pt.switch_outputs[2:]
    return probs[k], _prob_status(*probs)


def _oracle_branch_robustness(pt, k):
    if pt.switch_outputs[2 + k] <= DEFAULT_TOL.degenerate_prob:
        return float("nan"), "degenerate"
    return pt.solve(rom_state, pt.switch_outputs[k], enumerate_stabilizer_states(1))


def _oracle_branch_mana(pt, k):
    if pt.switch_outputs[2 + k] <= DEFAULT_TOL.degenerate_prob:
        return float("nan"), "degenerate"
    return _mana_status(mana_state(pt.switch_outputs[k], build_frame(3)))


def _oracle_t_robustness(pt, k):
    atoms = cspo_choi_atoms(enumerate_stabilizer_states(2))
    if k == 0:
        return pt.solve(channel_robustness, pt.t_branches[0].channel, atoms)
    # The minus-branch channel does not depend on p: solved once per run.
    if "switch_minus" not in pt.run:
        pt.run["switch_minus"] = pt.solve(channel_robustness, pt.t_branches[1].channel, atoms)
    return pt.run["switch_minus"]


def _oracle_t_weight(pt, k):
    weights = [branch.weight for branch in pt.t_branches]
    return weights[k], _prob_status(*weights)


# Sweep column -> its per-point measure point -> (value, status).
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
    order, each LP started from its program's reference starts (from the
    all-artificial basis at every point when ``cold``)."""
    run = {}
    rows = []
    for p in grid:
        if cold:
            run = {"cold": True}
        point = PointOracle(experiment, p, lp_tol, run)
        row = experiments.SweepRow(p=p)
        for column in experiments.MEASURE_COLUMNS[experiment]:
            row.values[column], row.status[column] = ORACLE_MEASURES[column](point)
        rows.append(row)
    return rows


def assert_entries_are_lone_calls(block, starts):
    """Assert that each entry of the block ``L1Solution`` ``block`` is
    ``lp.solve_l1`` of its right-hand side alone, from ``starts`` and with
    its renormalization factor: every field bit for bit, NaN where NaN, the
    ``warm_start`` basis and inverse included."""
    A, b = block.standard_form
    assert len(block.status) == len(block.warm_start) == len(b) and b.shape[1] == A.shape[0]
    lone = [lp.solve_l1(A, b_j, starts, factor) for b_j, factor in zip(b, block.renorm_factor)]
    for k, alone in enumerate(lone):
        assert block.status[k] == alone.status, k
        for name in ("value", "residual", "dual_gap", "dual_violation", "plus", "minus", "iterations"):
            assert np.array_equal(getattr(block, name)[k], getattr(alone, name), equal_nan=True), (k, name)
        start, want = block.warm_start[k], alone.warm_start
        assert (start is None) == (want is None), k
        if start is not None:
            assert np.array_equal(start.basis, want.basis) and np.array_equal(start.inverse, want.inverse), k


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
