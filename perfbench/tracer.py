"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the package's layers by rebinding each
traced name where its caller looks it up: ``solve_l1`` reads
``solve_standard_form`` from the ``magicswitch.lp`` module globals, so the
wrapper goes there, not into ``magicswitch._simplex``.  Nothing under
``src/`` is edited; :func:`installed` swaps the wrappers in and always puts
the originals back.

A span's name is ``<layer>.<what>``; its layer is the part before the dot.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# Span name -> the places ("module:attribute") its callers look it up.
TRACE_POINTS = {
    "experiments.cli_main": ["magicswitch.cli:main"],
    "experiments.run_experiment": ["magicswitch.cli:run_experiment"],
    "experiments.run_appendix_c": ["magicswitch.cli:run_appendix_c"],
    "experiments.write_rows": ["magicswitch.cli:write_rows"],
    "experiments.row": ["magicswitch.experiments:_dispatch_row"],
    "experiments.find_threshold": ["magicswitch.experiments:find_threshold"],
    "lp.channel_robustness": [
        "magicswitch.experiments:channel_robustness",
        "magicswitch.lp:channel_robustness",
    ],
    "lp.rom_state": ["magicswitch.experiments:rom_state", "magicswitch.lp:rom_state"],
    "lp.solve_l1": ["magicswitch.lp:solve_l1"],
    "lp.assemble": ["magicswitch.lp:_assemble_standard_form"],
    "linalg.pauli_vectorize": ["magicswitch.lp:pauli_vectorize"],
    "simplex.solve": ["magicswitch.lp:solve_standard_form"],
    "simplex.pivot_loop": ["magicswitch._simplex:bland_pivot_loop"],
    "phasespace.mana_channel": ["magicswitch.experiments:mana_channel"],
    "phasespace.mana_state": [
        "magicswitch.experiments:mana_state",
        "magicswitch.phasespace:mana_state",
    ],
    "phasespace.wigner_channel": ["magicswitch.phasespace:wigner_of_channel"],
    "qswitch.build_switch": ["magicswitch.experiments:build_switch"],
    "qswitch.conditional_outputs": ["magicswitch.experiments:conditional_outputs"],
    "qswitch.closed_form": [
        "magicswitch.experiments:effective_t_channels",
        "magicswitch.qswitch:EffectiveDepolarizingSwitch.from_noise",
    ],
    "channels.build": [
        "magicswitch.experiments:noisy_th_channel",
        "magicswitch.experiments:qutrit_noisy_th_channel",
        "magicswitch.experiments:depolarizing_channel",
        "magicswitch.experiments:compose_channels",
        "magicswitch.experiments:unitary_channel",
        "magicswitch.qswitch:depolarizing_channel",
        "magicswitch.qswitch:compose_channels",
        "magicswitch.qswitch:unitary_channel",
        "magicswitch.channels:noisy_th_channel",
    ],
    "channels.choi": ["magicswitch.lp:choi_of_channel", "magicswitch.phasespace:choi_of_channel"],
}

# Each of these spans starts a new root: the sweep row it computes.
ROOT_SPANS = {"experiments.row"}

# ``find_threshold`` reads each measure from this registry, so its entries
# are wrapped in place; every call is one threshold evaluation.
MEASURE_REGISTRY = "magicswitch.experiments:MEASURES"
MEASURE_SPAN = "experiments.measure"


def _pivot_count(result):
    return int(result[1])


def _solve_summary(result):
    return (int(result.status), int(result.iterations))


# What a span keeps of its call's return value.
KEEP = {"simplex.pivot_loop": _pivot_count, "simplex.solve": _solve_summary}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    root: int | None = None
    info: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; ``spans[i].id == i``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, root: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent=None if parent is None else parent.id)
        span.root = span.id if root or parent is None else parent.root
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        span = self._open(name, root)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        root = name in ROOT_SPANS
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep is not None:
                span.info = keep(result)
            return result

        traced.perfbench_span = name
        return traced


def _resolve(lookup: str):
    """'pkg.mod:Attr.sub' -> (owner, 'sub'), owner being the module or class."""
    module_name, _, path = lookup.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _is_traced(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), "perfbench_span")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every trace point to a wrapper for the duration of the block.

    Yields the trace points that do not exist in the package (those are
    skipped, and their spans read zero).
    """
    restore = []
    missing = []
    registry = saved = None
    try:
        for name, lookups in TRACE_POINTS.items():
            for lookup in lookups:
                try:
                    owner, attr = _resolve(lookup)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    missing.append(lookup)
                    continue
                if isinstance(original, classmethod):
                    wrapper = classmethod(tracer.wrap(original.__func__, name))
                else:
                    wrapper = tracer.wrap(original, name)
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        try:
            owner, attr = _resolve(MEASURE_REGISTRY)
            registry = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(MEASURE_REGISTRY)
        else:
            saved = dict(registry)
            for key, (fn, floor) in saved.items():
                registry[key] = (tracer.wrap(fn, MEASURE_SPAN), floor)
        yield missing
    finally:
        if saved is not None:
            registry.update(saved)
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def still_wrapped() -> list[str]:
    """Trace points that hold a wrapper right now (empty after a clean exit)."""
    out = []
    for lookups in TRACE_POINTS.values():
        for lookup in lookups:
            try:
                owner, attr = _resolve(lookup)
                obj = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                continue
            if _is_traced(obj):
                out.append(lookup)
    try:
        owner, attr = _resolve(MEASURE_REGISTRY)
        registry = getattr(owner, attr)
    except (ImportError, AttributeError):
        registry = {}
    out += [f"{MEASURE_REGISTRY}[{key}]" for key, (fn, _) in registry.items() if _is_traced(fn)]
    return out


# ---------------------------------------------------------------------------
# Arithmetic over a finished span list
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> its duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def covered_time(spans, names) -> float:
    """Time inside spans named in ``names``, nested ones counted once."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and by_id[parent].name not in names:
            parent = by_id[parent].parent
        if parent is None:
            total += span.duration
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)
    counts = defaultdict(int)
    layer_self = defaultdict(float)
    loops = defaultdict(list)
    for span in spans:
        counts[span.name] += 1
        layer_self[span.layer] += selfs[span.id]
        if span.name == "simplex.pivot_loop":
            loops[span.parent].append(span)
    phase1 = phase2 = max_pivots = 0
    for group in loops.values():
        group.sort(key=lambda s: s.start)
        phase1 += group[0].info
        phase2 += sum(s.info for s in group[1:])
        max_pivots = max(max_pivots, sum(s.info for s in group))
    nonoptimal = sum(1 for s in spans if s.name == "simplex.solve" and s.info[0] != 0)
    return {
        "simplex.pivot_s": covered_time(spans, {"simplex.pivot_loop"}),
        "simplex.pivots_phase1": phase1,
        "simplex.pivots_phase2": phase2,
        "simplex.max_pivots": max_pivots,
        "simplex.nonoptimal": nonoptimal,
        "simplex.solve_s": covered_time(spans, {"simplex.solve"}),
        "lp.self_s": layer_self["lp"],
        "linalg.pauli_vectorize_s": covered_time(spans, {"linalg.pauli_vectorize"}),
        "lp.channel_calls": counts["lp.channel_robustness"],
        "lp.state_calls": counts["lp.rom_state"],
        "phasespace.wigner_channel_s": covered_time(spans, {"phasespace.wigner_channel"}),
        "phasespace.mana_state_s": covered_time(spans, {"phasespace.mana_state"}),
        "qswitch.build_switch_s": covered_time(spans, {"qswitch.build_switch"}),
        "qswitch.conditional_outputs_s": covered_time(spans, {"qswitch.conditional_outputs"}),
        "qswitch.closed_form_s": covered_time(spans, {"qswitch.closed_form"}),
        "channels.build_s": covered_time(spans, {"channels.build"}),
        "channels.choi_s": covered_time(spans, {"channels.choi"}),
        "experiments.self_s": layer_self["experiments"],
        "experiments.threshold_evals": counts[MEASURE_SPAN],
    }
