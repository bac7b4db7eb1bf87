"""The benchmark's three workloads and the correctness gate on their outputs.

Each workload runs one *pass* at a time and checks every output of the pass
against oracles that share no code with the package: the sha256 of the
default CSVs, closed forms for thresholds and single-qubit robustness, and
an independently built phase-point frame for mana.

* ``robustness_sweep`` - ``fig2`` and ``fig3`` on their default grids
  through the CLI: a dense, ordered grid of LPs, where pivot-loop speed,
  warm starts and LP de-duplication act.
* ``mana_sweep`` - ``figs1`` on its default grid and ``appendix-c`` at its
  defaults: no LP at all, so an LP change should leave it unchanged.
* ``point_queries`` - seeded batches of isolated queries (threshold
  bisections, state and channel robustness, state mana) at unordered
  points, a fresh batch each pass, so no neighbour exists to warm-start
  from and no LP repeats.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Default-grid CSVs as the package writes them (fig2, fig3, figs1).
EXPECTED_SHA256 = {
    "fig2": "4c09f8ca9a6814eab2364d5a3f9f77a9118263ea9b9e9c7ae4fbed45e0f3e38f",
    "fig3": "1ac4d7366fe46f942ef2203f4549d842dbccf6caa09f3c7b255da764f917dd82",
    "figs1": "2b5a5a1713ff62d058f06203d117436644cbc132e5a1be558d3566abfc73bce6",
}

GOOD_STATUSES = ("ok", "degenerate")
APPENDIX_C_IDENTITY_TOL = 1e-12

# Registered measures with a crossing: known bracket, half-width of the
# seeded shift, reference threshold and allowed error.  The fig2 references
# are the closed forms 1 - 1/sqrt(2) and 2 - sqrt(2); the others are the
# acceptance windows of tests/test_acceptance.py.
THRESHOLDS = {
    "fig2_channel_robustness": ((0.2, 0.4), 0.05, 1 - 1 / math.sqrt(2), 1e-5),
    "fig2_rom_plus": ((0.5, 0.7), 0.05, 2 - math.sqrt(2), 1e-5),
    "fig3_sequential": ((0.2, 0.35), 0.03, 0.26, 0.01),
    "fig3_switch_plus": ((0.2, 0.35), 0.03, 0.28, 0.01),
    "figs1_mana_channel": ((0.3, 0.6), 0.05, 0.4679, 0.005),
    "figs1_mana_plus": ((0.5, 0.9), 0.05, 0.7129, 0.005),
}
THRESHOLD_TOL = 1e-6

# One point_queries round is one call of each single-point entry of the CLI:
# ``threshold`` for each measure above, then ``rom``, ``channel-robustness``
# and ``mana``.  No record of how often each is used exists, so each entry
# gets the same weight; a pass is ROUNDS_PER_PASS rounds.
ROUNDS_PER_PASS = 2

ROM_ORACLE_TOL = 1e-9
MANA_ORACLE_TOL = 1e-9
LP_CERT_TOL = 1e-7
ROBUSTNESS_FLOOR_TOL = 1e-6
# fig2's channel is free (robustness 1) exactly for p >= 1 - 1/sqrt(2);
# points this close to the crossing skip the free/magic verdict.
CHANNEL_VERDICT_MARGIN = 1e-3


@dataclass
class PassResult:
    """One pass: the wall time of each whole command in it (CLI run or query
    batch) and the time of each row or query."""

    command_s: dict
    latencies_s: list
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    @property
    def wall_s(self) -> float:
        return sum(self.command_s.values())


# ---------------------------------------------------------------------------
# Sweeps through the CLI
# ---------------------------------------------------------------------------

def check_csv(result: PassResult, experiment: str, data: bytes) -> None:
    """One output per row.  The reference bytes have every status good and
    NaN only on a degenerate branch, so bytes with the reference sha256 are
    right row for row, and any other bytes make every row of the file wrong."""
    rows = data.count(b"\n") - 1
    ok = hashlib.sha256(data).hexdigest() == EXPECTED_SHA256[experiment]
    result.check(ok, f"{experiment}: CSV sha256 differs from the reference", rows)


def check_appendix_c(result: PassResult, rc: int, report: dict) -> None:
    """One output per dimension: strictly negative gap, identity at rounding level."""
    for d, entry in report["dimensions"].items():
        ok = (
            rc == 0
            and report["strictly_negative"] is True
            and entry["strictly_negative"] is True
            and entry["max_identity_residual"] < APPENDIX_C_IDENTITY_TOL
        )
        result.check(ok, f"appendix-c: d={d} gap={entry['max_gap']} "
                          f"identity={entry['max_identity_residual']}")


class SweepWorkload:
    """Default-grid sweeps run through ``magicswitch.cli.main`` into files.

    A sweep's queries are its grid rows; their latencies come from a
    two-clock-read shim on ``magicswitch.experiments._dispatch_row``, the
    function the sweep runs once per row.  Every pass repeats the same rows.
    """

    def __init__(self, ms, workdir: Path, sweeps, appendix_c: bool):
        self.ms = ms
        self.workdir = workdir
        self.sweeps = tuple(sweeps)
        self.appendix_c = appendix_c
        if not callable(getattr(ms.experiments, "_dispatch_row", None)):
            raise RuntimeError("magicswitch.experiments._dispatch_row is gone: no row boundary to time")

    def run_pass(self, index: int, tracer=None) -> PassResult:
        """One pass over the fixed grids; ``index`` is not used."""
        experiments = self.ms.experiments
        cli = self.ms.cli
        row_fn = experiments._dispatch_row
        latencies = []

        def timed_row(task):
            t = perf_counter()
            out = row_fn(task)
            latencies.append(perf_counter() - t)
            return out

        paths = {exp: self.workdir / f"{exp}.csv" for exp in self.sweeps}
        report_path = self.workdir / "appendix_c.json"
        commands = {exp: ["-q", exp, "--out", str(paths[exp])] for exp in self.sweeps}
        if self.appendix_c:
            commands["appendix-c"] = ["-q", "appendix-c", "--out", str(report_path)]
        codes, times = {}, {}
        experiments._dispatch_row = timed_row
        try:
            for name, argv in commands.items():
                t = perf_counter()
                codes[name] = cli.main(argv)
                times[name] = perf_counter() - t
        finally:
            experiments._dispatch_row = row_fn

        result = PassResult(times, latencies)
        for exp in self.sweeps:
            if codes[exp] != 0:
                result.check(False, f"{exp}: exit code {codes[exp]}")
            check_csv(result, exp, paths[exp].read_bytes())
        if self.appendix_c:
            check_appendix_c(result, codes["appendix-c"], json.loads(report_path.read_text()))
        return result


# ---------------------------------------------------------------------------
# Seeded point queries
# ---------------------------------------------------------------------------

def _random_density(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def qubit_robustness_oracle(rho: np.ndarray) -> float:
    """Closed form max(1, |r_x| + |r_y| + |r_z|) (Howard & Campbell 2017)."""
    return max(1.0, sum(abs(np.trace(rho @ p).real) for p in _PAULIS))


def displaced_parities(d: int) -> np.ndarray:
    """Phase-point operators D P D^dag for every Weyl displacement D, with P
    the parity |j> -> |-j>; built here without the package's frame code."""
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    x = np.roll(np.eye(d), 1, axis=0)
    parity = np.eye(d)[(-np.arange(d)) % d]
    ops = []
    for a in range(d):
        for b in range(d):
            disp = np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
            ops.append(disp @ parity @ disp.conj().T)
    return np.array(ops)


def mana_oracle(rho: np.ndarray, frame: np.ndarray) -> float:
    d = rho.shape[0]
    wigner = np.einsum("uij,ji->u", frame, rho).real / d
    value = math.log2(np.abs(wigner).sum())
    return 0.0 if value < 1e-9 else value


@dataclass
class Query:
    label: str
    call: object
    check: object


class PointQueryWorkload:
    """Seeded batches of isolated queries, a fresh batch on every pass.

    Pass ``index`` draws its inputs from ``default_rng((seed, index))``, so a
    seed fixes every batch, and no input repeats from one pass to the next:
    a result cache that outlives a call cannot answer a later pass.  Every
    batch has the same slots, round by round one query of each kind; slot
    ``j`` of every pass is the same kind of query on fresh inputs, and the
    slots run in a fresh random order each pass.
    """

    def __init__(self, ms, seed: int):
        self.ms = ms
        self.seed = seed % 2**63  # any integer seed, negative too
        self.qubit = ms.enumerate_stabilizer_states(1)
        self.atoms = ms.cspo_choi_atoms(ms.enumerate_stabilizer_states(2))
        self.frame = ms.build_frame(3)
        self.oracle_frame = displaced_parities(3)

    def batch(self, index: int) -> tuple[list, np.ndarray]:
        """The queries of pass ``index`` in slot order, and the seeded random
        order in which they run."""
        ms = self.ms
        rng = np.random.default_rng((self.seed, index))
        crossing = THRESHOLDS["fig2_channel_robustness"][2]
        queries = []
        for _ in range(ROUNDS_PER_PASS):
            for name, ((lo, hi), shift, ref, err) in THRESHOLDS.items():
                s = rng.uniform(-shift, shift)
                queries.append(self._threshold(name, lo + s, hi + s, ref, err))
            rho = _random_density(rng, 2, rng.integers(1, 3))
            queries.append(self._rom(ms.DensityOperator(rho), qubit_robustness_oracle(rho)))
            p = rng.uniform(0.0, 1.0)
            while abs(p - crossing) < CHANNEL_VERDICT_MARGIN:
                p = rng.uniform(0.0, 1.0)
            queries.append(self._channel(p, free=p > crossing))
            rho = _random_density(rng, 3, rng.integers(1, 4))
            queries.append(self._mana(ms.DensityOperator(rho), mana_oracle(rho, self.oracle_frame)))
        return queries, rng.permutation(len(queries))

    def _threshold(self, name, lo, hi, ref, err) -> Query:
        experiments = self.ms.experiments

        def call():
            return experiments.find_threshold(name, lo, hi, threshold_tol=THRESHOLD_TOL)

        def check(result):
            return abs(result.threshold - ref) <= err, f"threshold={result.threshold!r} ref={ref} +-{err}"

        return Query(f"{name}[{lo:.4f},{hi:.4f}]", call, check)

    def _rom(self, rho, ref) -> Query:
        lp, qubit = self.ms.lp, self.qubit

        def check(sol):
            ok = sol.status == "optimal" and abs(sol.value - ref) <= ROM_ORACLE_TOL
            return ok, f"status={sol.status} value={sol.value!r} oracle={ref!r}"

        return Query("rom_state", lambda: lp.rom_state(rho, qubit), check)

    def _channel(self, p, free) -> Query:
        lp, channels, atoms = self.ms.lp, self.ms.channels, self.atoms

        def check(sol):
            if free:
                verdict = abs(sol.value - 1.0) <= ROBUSTNESS_FLOOR_TOL
            else:
                verdict = sol.value > 1.0 + ROBUSTNESS_FLOOR_TOL
            ok = (
                sol.status == "optimal"
                and sol.residual <= LP_CERT_TOL
                and sol.dual_gap <= LP_CERT_TOL
                and verdict
            )
            return ok, (f"status={sol.status} value={sol.value!r} residual={sol.residual:.2e} "
                        f"gap={sol.dual_gap:.2e} expected {'free' if free else 'magic'}")

        def call():
            return lp.channel_robustness(channels.noisy_th_channel(p), atoms)

        return Query(f"channel_robustness[p={p:.6f}]", call, check)

    def _mana(self, rho, ref) -> Query:
        phasespace, frame = self.ms.phasespace, self.frame

        def check(value):
            return abs(value - ref) <= MANA_ORACLE_TOL, f"mana={value!r} oracle={ref!r}"

        return Query("mana_state", lambda: phasespace.mana_state(rho, frame), check)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        queries, order = self.batch(index)
        answers = [None] * len(queries)
        latencies = [0.0] * len(queries)  # in slot order
        t0 = perf_counter()
        for slot in order:
            with tracer.span("bench.query", root=True) if tracer else contextlib.nullcontext():
                t = perf_counter()
                try:
                    answer = queries[slot].call()
                except Exception as exc:  # a failed query is a counted failure
                    answer = exc
                latencies[slot] = perf_counter() - t
            answers[slot] = answer
        result = PassResult({"queries": perf_counter() - t0}, latencies)
        for query, answer in zip(queries, answers):
            if isinstance(answer, Exception):
                ok, detail = False, f"raised {answer!r}"
            else:
                ok, detail = query.check(answer)
            result.check(ok, f"{query.label}: {detail}")
        return result


WORKLOADS = ("robustness_sweep", "mana_sweep", "point_queries")


def make_workload(name: str, ms, seed: int, workdir: Path):
    if name == "robustness_sweep":
        return SweepWorkload(ms, workdir, ("fig2", "fig3"), appendix_c=False)
    if name == "mana_sweep":
        return SweepWorkload(ms, workdir, ("figs1",), appendix_c=True)
    if name == "point_queries":
        return PointQueryWorkload(ms, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
