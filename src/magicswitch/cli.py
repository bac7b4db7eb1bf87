"""Command-line interface.

One subcommand per canned experiment (the sweeps of ``MEASURE_TABLE``,
then appendix-c) plus generic monotone evaluators (rom,
channel-robustness, mana) and a threshold finder.  Renormalization factors
are logged to stderr at info level, each LP's status at debug level; data
goes to --out (default stdout).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from functools import partial

import numpy as np

from . import __version__
from .channels import (
    DensityOperator,
    KrausChannel,
    depolarizing_channel,
    qutrit_k2_variant_report,
    unitary_channel,
)
from .experiments import (
    CHANNELS,
    MEASURE_TABLE,
    MEASURES,
    BracketError,
    SweepConfig,
    default_config,
    find_threshold,
    parse_config_file,
    run_appendix_c,
    run_experiment,
    write_rows,
    write_text,
)
from .gates import HADAMARD, T_GATE, basis_state, plus_state, qutrit_t_gate
from .lp import channel_robustness, rom_state
from .phasespace import build_frame, check_frame_dim, mana_channel, mana_state
from .stabilizers import cspo_choi_atoms, enumerate_stabilizer_states


def _parse_floats(text: str, form: str) -> tuple:
    """Colon-separated numbers shaped like ``form``, e.g. ``lo:hi``."""
    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_tols(text: str, keys=("lp", "threshold")) -> dict:
    """``lp=1e-7,threshold=1e-4`` -> ``{"lp_tol": 1e-7, "threshold_tol": 1e-4}``."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in keys:
            raise argparse.ArgumentTypeError(f"unknown tolerance {key!r} (use {'=, '.join(keys)}=)")
        try:
            out[f"{key}_tol"] = float(val)
        except ValueError:
            raise argparse.ArgumentTypeError(f"tolerance {piece!r} is not a number") from None
    return out


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output path ('-' for stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    grid = partial(_parse_floats, form="start:stop:step")
    sub.add_argument("--grid", type=grid, default=None, metavar="START:STOP:STEP")
    sub.add_argument("--tol", type=partial(_parse_tols, keys=("lp",)), default={}, metavar="lp=..")
    sub.add_argument("--config", default=None, help="key=value config file; flags override it")


def _sweep_config(args) -> SweepConfig:
    flags = dict(args.tol)
    if args.grid:
        flags["start"], flags["stop"], flags["step"] = args.grid
    if args.out is not None:
        flags["output_path"] = args.out
    if args.format is not None:
        flags["format"] = args.format
    config = parse_config_file(args.config, **flags) if args.config else default_config(args.experiment, **flags)
    if config.experiment != args.experiment:
        raise ValueError(f"config targets {config.experiment!r}, not {args.experiment}")
    return config


# ---------------------------------------------------------------------------
# Named states and channels for the generic subcommands
# ---------------------------------------------------------------------------

def _parse_spec(spec: str, known: dict, kind: str) -> tuple[str, dict]:
    """Split ``name:key=value,...`` into a ``kind`` name of ``known`` and its
    parameters, checked against ``known[name]`` (key -> default; None marks
    a required one)."""
    name, _, tail = spec.partition(":")
    name = name.strip().lower()
    if name not in known:
        raise ValueError(f"unknown {kind} {name!r}; choices: {', '.join(known)}")
    params = known[name]
    kwargs = {}
    for piece in filter(None, tail.split(",")):
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in params:
            raise ValueError(f"{name!r} takes no parameter {key!r} (takes: {', '.join(params) or 'none'})")
        try:
            kwargs[key] = float(val)
        except ValueError:
            raise ValueError(f"parameter {key}={val.strip()!r} of {name!r} is not a number") from None
    for key, default in params.items():
        if key not in kwargs and default is None:
            raise ValueError(f"{name!r} needs {key}=, as in {name}:{key}=0.3")
    return name, {**params, **kwargs}


_STATES = {
    "zero": lambda: DensityOperator.pure(basis_state(2, 0)),
    "one": lambda: DensityOperator.pure(basis_state(2, 1)),
    "plus": lambda: DensityOperator.pure(plus_state(2)),
    "t-plus": lambda: DensityOperator.pure(T_GATE @ plus_state(2)),
    "mixed": lambda: DensityOperator.maximally_mixed(2),
    "qutrit-plus": lambda: DensityOperator.pure(plus_state(3)),
    "qutrit-t-plus": lambda: DensityOperator.pure(qutrit_t_gate() @ plus_state(3)),
    "qutrit-mixed": lambda: DensityOperator.maximally_mixed(3),
}

# Channel name -> its parameters (key -> default; None marks a required one).
_CHANNEL_PARAMS = {
    **dict.fromkeys(CHANNELS, {"p": None}),
    "switch-minus-t": {"p": 0.0},
    "depolarizing": {"p": None, "d": 2},
    **dict.fromkeys(("t", "h", "qutrit-t"), {}),
}


def _named_state(spec: str) -> DensityOperator:
    name, _ = _parse_spec(spec, dict.fromkeys(_STATES, {}), "state")
    return _STATES[name]()


def _state_from_file(path: str) -> DensityOperator:
    """The state in a JSON file; its ``normalized`` claim (default true) is checked."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise ValueError(f"{path}: expected a JSON object with a 'matrix' key")
    try:
        entries = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: 'matrix' must be a list of rows of [re, im] pairs") from None
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"{path}: 'matrix' must be square, got shape {entries.shape}")
    normalized = payload.get("normalized", True)
    if not isinstance(normalized, bool):
        raise ValueError(f"{path}: 'normalized' must be true or false, got {normalized!r}")
    rho = DensityOperator(entries)
    if normalized and not rho.normalized:
        raise ValueError(f"{path}: 'normalized' state has trace {rho.trace!r}")
    return rho


def _named_channel(spec: str, d: int, mismatch: str) -> KrausChannel:
    """The channel ``spec`` names, for a command that scores channels on
    dimension ``d``.  A ``depolarizing`` channel of another dimension, whose
    stack would hold its d^2 operators of d x d, is refused before it is
    built, with ``mismatch`` formatted with its dimension."""
    name, params = _parse_spec(spec, _CHANNEL_PARAMS, "channel")
    if name in CHANNELS:
        return CHANNELS[name](params["p"])
    if name == "depolarizing":
        if not float(params["d"]).is_integer():
            raise ValueError(f"depolarizing dimension d={params['d']:g} is not an integer")
        if int(params["d"]) != d:
            raise ValueError(mismatch.format(int(params["d"])))
        return depolarizing_channel(d, params["p"])
    return unitary_channel({"t": T_GATE, "h": HADAMARD, "qutrit-t": qutrit_t_gate()}[name])


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _emit(payload: dict, out: str | None) -> None:
    write_text(json.dumps(payload, indent=2) + "\n", out)


def _cmd_sweep(args) -> int:
    config = _sweep_config(args)
    rows = run_experiment(config)
    write_rows(rows, config)
    return 0


def _cmd_appendix_c(args) -> int:
    try:
        d_values = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims {args.dims!r} is not a comma-separated list of integers") from None
    report = run_appendix_c(d_values=d_values, n_points=args.points)
    _emit(report, args.out)
    return 0 if report["strictly_negative"] else 1


def _cmd_threshold(args) -> int:
    result = find_threshold(args.measure, *args.bracket, **args.tol)
    _emit(
        {
            "measure": result.measure,
            "threshold": result.threshold,
            "bracket": list(result.bracket),
            "iterations": result.iterations,
        },
        args.out,
    )
    return 0


def _cmd_rom(args) -> int:
    rho = _state_from_file(args.state_file) if args.state_file else _named_state(args.state)
    if rho.dim not in (2, 4):
        raise ValueError(f"rom supports 1- and 2-qubit states, got dimension {rho.dim}")
    n = 1 if rho.dim == 2 else 2
    solution = rom_state(rho, enumerate_stabilizer_states(n))
    status = solution.checked_status
    _emit({"value": solution.value, "status": status, "renorm_factor": solution.renorm_factor}, args.out)
    return 0 if status == "optimal" else 1


def _cmd_channel_robustness(args) -> int:
    ch = _named_channel(args.channel, 2, "channel robustness is implemented for qubit channels")
    solution = channel_robustness(ch, cspo_choi_atoms(enumerate_stabilizer_states(2)))
    status = solution.checked_status
    _emit({"value": solution.value, "status": status}, args.out)
    return 0 if status == "optimal" else 1


def _cmd_mana(args) -> int:
    # The frame's own checks grow as about d^6, so a state or channel of
    # another dimension is refused before the frame is built.
    if args.channel:
        kind, mana = "channel", mana_channel
        target = _named_channel(args.channel, args.d, f"channel dims ({{0}},{{0}}) != frame dim {args.d}")
        check_frame_dim(target, args.d)
    else:
        kind, mana = "state", mana_state
        target = _state_from_file(args.state_file) if args.state_file else _named_state(args.state)
        check_frame_dim(target.matrix, args.d)
    _emit({"kind": kind, "d": args.d, "mana": mana(target, build_frame(args.d))}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicswitch",
        description="Coherent-order channel composition and non-stabilizerness monotones",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress info logging")
    subs = parser.add_subparsers(dest="command", required=True)

    for exp, entry in MEASURE_TABLE.items():
        sub = subs.add_parser(exp, help=entry.help)
        _add_sweep_options(sub)
        sub.set_defaults(handler=_cmd_sweep, experiment=exp)

    sub = subs.add_parser("appendix-c", help="strict inequality report for switched depolarizing noise")
    sub.add_argument("--dims", default="2,3,5,10", help="comma-separated dimensions")
    sub.add_argument("--points", type=int, default=10_000, help="grid points in (0, 1]")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_appendix_c)

    sub = subs.add_parser("threshold", help="find where a measure crosses its faithfulness floor")
    sub.add_argument("--measure", required=True, choices=sorted(MEASURES))
    sub.add_argument("--bracket", type=partial(_parse_floats, form="lo:hi"), required=True, metavar="LO:HI")
    sub.add_argument("--tol", type=_parse_tols, default={}, metavar="lp=..,threshold=..")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_threshold)

    sub = subs.add_parser("rom", help="robustness of a state over the stabilizer dictionary")
    sub.add_argument("--state", default="t-plus")
    sub.add_argument("--state-file", default=None, help="JSON with 'matrix': [[ [re,im], ...], ...]")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_rom)

    sub = subs.add_parser("channel-robustness", help="channel robustness of a named channel")
    sub.add_argument("--channel", required=True, help="e.g. noisy-th:p=0.3, t, depol-squared-t:p=0.2")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_channel_robustness)

    sub = subs.add_parser("mana", help="mana of a state or channel in odd prime dimension")
    sub.add_argument("--d", type=int, default=3)
    sub.add_argument("--channel", default=None)
    sub.add_argument("--state", default="qutrit-t-plus")
    sub.add_argument("--state-file", default=None)
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_mana)

    sub = subs.add_parser("k2-check", help="completeness residuals of both qutrit reset-row variants")
    sub.add_argument("--p", type=float, default=0.5)
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_k2_check)

    return parser


def _cmd_k2_check(args) -> int:
    _emit(qutrit_k2_variant_report(args.p), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (BracketError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BracketError) else 2


if __name__ == "__main__":
    sys.exit(main())
