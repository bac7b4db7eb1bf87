"""Command-line interface.

One subcommand per canned experiment (the sweeps of ``MEASURE_TABLE``,
then appendix-c) plus generic monotone evaluators (rom,
channel-robustness, mana) and a threshold finder.  Logging goes to stderr
at info level (warning with -q); renormalization factors and each LP's
status log at debug level, below it.  Data goes to --out (default
stdout).  A run builds the parser of its own subcommand only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
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
from .gates import HADAMARD, T_GATE, basis_state, check_odd_prime, plus_state, qutrit_t_gate
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


class _RepeatedKey(Exception):
    """A key given twice in a ``key=value,...`` list.  Not a ValueError, so
    that argparse passes it on from a ``type`` function rather than
    restating it: wherever a key is repeated, as in a config file, ``main``
    reports it as one error line."""


def _read_pairs(text: str, keys, owner: str) -> dict:
    """The numbers of the ``key=value,...`` list ``text`` by key, each key
    one of ``keys`` and given at most once; ``owner`` names the list in
    errors."""
    pairs = {}
    for piece in filter(None, text.split(",")):
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{owner} takes no parameter {key!r} (takes: {', '.join(keys) or 'none'})")
        if key in pairs:
            raise _RepeatedKey(f"parameter {key} of {owner} is given twice")
        try:
            pairs[key] = float(val)
        except ValueError:
            raise ValueError(f"parameter {key}={val.strip()!r} of {owner} is not a number") from None
    return pairs


def _parse_tols(text: str, keys=("lp", "threshold")) -> dict:
    """``lp=1e-7,threshold=1e-4`` -> ``{"lp_tol": 1e-7, "threshold_tol": 1e-4}``."""
    try:
        return {f"{key}_tol": value for key, value in _read_pairs(text, keys, "--tol").items()}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    kwargs = _read_pairs(tail, params, repr(name))
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


def _state_of(args) -> DensityOperator:
    """The state in ``--state-file`` if given, else the one ``--state`` names."""
    if args.state_file:
        return _state_from_file(args.state_file)
    name, _ = _parse_spec(args.state, dict.fromkeys(_STATES, {}), "state")
    return _STATES[name]()


def _named_channel(spec: str, d: int, mismatch: str) -> KrausChannel:
    """The channel ``spec`` names, for a command that scores channels on
    dimension ``d``.  A ``depolarizing`` channel of another integral
    dimension, whose stack would hold its d^2 operators of d x d, is refused
    before it is built, with ``mismatch`` formatted with its dimension; a
    non-integral one is refused by ``depolarizing_channel``."""
    name, params = _parse_spec(spec, _CHANNEL_PARAMS, "channel")
    if name in CHANNELS:
        return CHANNELS[name](params["p"])
    if name == "depolarizing":
        dim = params["d"]
        if float(dim).is_integer():
            dim = int(dim)
            if dim != d:
                raise ValueError(mismatch.format(dim))
        return depolarizing_channel(dim, params["p"])
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
    _emit(asdict(find_threshold(args.measure, *args.bracket, **args.tol)), args.out)
    return 0


def _cmd_rom(args) -> int:
    rho = _state_of(args)
    if rho.dim not in (2, 4):
        raise ValueError(f"rom supports 1- and 2-qubit states, got dimension {rho.dim}")
    n = 1 if rho.dim == 2 else 2
    solution = rom_state(rho, enumerate_stabilizer_states(n))
    _emit({"value": solution.value, "status": solution.status, "renorm_factor": solution.renorm_factor}, args.out)
    return 0 if solution.status == "optimal" else 1


def _cmd_channel_robustness(args) -> int:
    ch = _named_channel(args.channel, 2, "channel robustness is implemented for qubit channels")
    solution = channel_robustness(ch, cspo_choi_atoms(enumerate_stabilizer_states(2)))
    _emit({"value": solution.value, "status": solution.status}, args.out)
    return 0 if solution.status == "optimal" else 1


def _cmd_mana(args) -> int:
    # A frame exists for odd prime d alone, so any other d is refused before
    # anything is built.  The frame's own checks grow as about d^6, so a
    # state or channel of another dimension is refused before it is built.
    check_odd_prime(args.d)
    if args.channel:
        kind, mana = "channel", mana_channel
        target = _named_channel(args.channel, args.d, f"channel dims ({{0}},{{0}}) != frame dim {args.d}")
        check_frame_dim(target, args.d)
    else:
        kind, mana = "state", mana_state
        target = _state_of(args)
        check_frame_dim(target.matrix, args.d)
    _emit({"kind": kind, "d": args.d, "mana": mana(target, build_frame(args.d))}, args.out)
    return 0


def _cmd_k2_check(args) -> int:
    _emit(qutrit_k2_variant_report(args.p), args.out)
    return 0


# ---------------------------------------------------------------------------
# The parser: one declaration per subcommand
# ---------------------------------------------------------------------------

_OUT = {"--out": dict(default=None)}

# Each subcommand in the order --help lists them: name -> (help, options as
# flag -> add_argument keywords, handler defaults).
_COMMANDS = {
    **{exp: (entry.help, {
        "--out": dict(default=None, help="output path ('-' for stdout)"),
        "--format": dict(choices=("csv", "json"), default=None),
        "--grid": dict(type=partial(_parse_floats, form="start:stop:step"), default=None, metavar="START:STOP:STEP"),
        "--tol": dict(type=partial(_parse_tols, keys=("lp",)), default={}, metavar="lp=.."),
        "--config": dict(default=None, help="key=value config file; flags override it"),
    }, {"handler": _cmd_sweep, "experiment": exp}) for exp, entry in MEASURE_TABLE.items()},
    "appendix-c": ("strict inequality report for switched depolarizing noise", {
        "--dims": dict(default="2,3,5,10", help="comma-separated dimensions"),
        "--points": dict(type=int, default=10_000, help="grid points in (0, 1]"), **_OUT,
    }, {"handler": _cmd_appendix_c}),
    "threshold": ("find where a measure crosses its faithfulness floor", {
        "--measure": dict(required=True, choices=sorted(MEASURES)),
        "--bracket": dict(type=partial(_parse_floats, form="lo:hi"), required=True, metavar="LO:HI"),
        "--tol": dict(type=_parse_tols, default={}, metavar="lp=..,threshold=.."), **_OUT,
    }, {"handler": _cmd_threshold}),
    "rom": ("robustness of a state over the stabilizer dictionary", {
        "--state": dict(default="t-plus"),
        "--state-file": dict(default=None, help="JSON with 'matrix': [[ [re,im], ...], ...]"), **_OUT,
    }, {"handler": _cmd_rom}),
    "channel-robustness": ("channel robustness of a named channel", {
        "--channel": dict(required=True, help="e.g. noisy-th:p=0.3, t, depol-squared-t:p=0.2"), **_OUT,
    }, {"handler": _cmd_channel_robustness}),
    "mana": ("mana of a state or channel in odd prime dimension", {
        "--d": dict(type=int, default=3), "--channel": dict(default=None),
        "--state": dict(default="qutrit-t-plus"), "--state-file": dict(default=None), **_OUT,
    }, {"handler": _cmd_mana}),
    "k2-check": ("completeness residuals of both qutrit reset-row variants", {
        "--p": dict(type=float, default=0.5), **_OUT,
    }, {"handler": _cmd_k2_check}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser.  For a ``command`` of ``_COMMANDS`` it
    holds that subcommand alone, and its usage line and errors read as the
    full parser's; otherwise it holds every subcommand."""
    parser = argparse.ArgumentParser(
        prog="magicswitch",
        description="Coherent-order channel composition and non-stabilizerness monotones",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress info logging")
    lone = command in _COMMANDS
    # argparse spells the full parser's metavar from its choices.
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="{" + ",".join(_COMMANDS) + "}" if lone else None)
    for name in [command] if lone else _COMMANDS:
        help_text, options, defaults = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            sub.add_argument(flag, **keywords)
        sub.set_defaults(**defaults)
    return parser


def _command_of(argv) -> str | None:
    """The subcommand ``argv`` names: its first token that does not start
    with '-', if every token before it is -q or --quiet, which take no
    value; else None.  Any other leading token (-h, --version, an
    abbreviation, a bundle such as -qh) may print the full parser's help."""
    for token in argv:
        if not token.startswith("-"):
            return token
        if token not in ("-q", "--quiet"):
            return None
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(_command_of(argv)).parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.handler(args)
    except (BracketError, ValueError, OSError, _RepeatedKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BracketError) else 2


if __name__ == "__main__":
    sys.exit(main())
