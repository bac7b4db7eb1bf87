import argparse
import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from magicswitch import cli, experiments
from magicswitch.cli import main
from magicswitch.config import DEFAULT_TOL

from conftest import LP_BRACKETS, LP_THRESHOLDS, spy, sweep_config


def run_cli(capsys, *argv):
    code = main(["-q", *argv])
    out = capsys.readouterr().out
    return code, out


def test_fig3_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code, _ = run_cli(capsys, "fig3", "--grid", "0:0.02:0.01", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("p,rob_sequential")
    assert len(lines) == 4


def test_fig2_json_stdout(capsys):
    code, text = run_cli(capsys, "fig2", "--grid", "0.4:0.42:0.01", "--format", "json")
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 3
    assert abs(rows[0]["channel_robustness"] - 1.0) < 1e-6


@pytest.mark.parametrize("settings, flags", [
    ("start = 0\nstop = 0.01\nstep = 0.01\nformat = json", []),
    # A flag overrides a bad file value as well, which alone is refused.
    ("start = 0\nstop = 0.01\nstep = 0.01\nformat = xml", ["--format", "json"]),
    ("start = 0.5\nstop = 0.2\nformat = json", ["--grid", "0:0.01:0.01"]),
], ids=["good-file", "bad-format", "bad-grid"])
def test_config_file_with_flag_override(tmp_path, capsys, settings, flags):
    cfg = tmp_path / "sweep.cfg"
    # The file may name the subcommand's experiment by an alias.
    cfg.write_text(f"experiment = fig3_depolarized_t\n{settings}\n")
    out = tmp_path / "rows.json"
    code, _ = run_cli(capsys, "fig3", "--config", str(cfg), "--out", str(out), *flags)
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2


@pytest.mark.parametrize("line, flag, setting, from_file, from_flag", [
    ("stop = 0.5", ["--grid", "0:0.25:0.05"], "stop", 0.5, 0.25),
    ("lp_tol = 1e-7", ["--tol", "lp=1e-9"], "lp_tol", 1e-7, 1e-9),
    ("out = a.csv", ["--out", "b.csv"], "output_path", "a.csv", "b.csv"),
    ("format = json", ["--format", "csv"], "format", "json", "csv"),
], ids=["grid", "tol", "out", "format"])
@pytest.mark.parametrize("given", ["file", "flag"])
def test_config_file_setting_unless_flag_given(tmp_path, line, flag, setting, from_file, from_flag, given):
    # Each sweep flag overrides the config file's setting; without it the
    # file's value stands, not the experiment's default.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"experiment = fig2\n{line}\n")
    argv = ["fig2", "--config", str(cfg), *(flag if given == "flag" else [])]
    config = sweep_config(argv)
    assert getattr(config, setting) == (from_flag if given == "flag" else from_file)
    assert getattr(experiments.default_config("fig2"), setting) != from_file


@pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
def test_grid_whose_last_step_rounds_past_stop(tmp_path, capsys, experiment):
    # 0.09 + 13 * 0.07 is one ulp above 1; the last row is p = 1.
    out = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, experiment, "--grid", "0.09:1:0.07", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 15 and lines[-1].split(",")[0] == "1"


@pytest.mark.parametrize("experiment", ["fig3", "fig3_depolarized_t", "figs1"])
def test_config_for_another_experiment_is_a_one_line_error(tmp_path, capsys, experiment):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"experiment = {experiment}\n")
    assert_one_line_error(capsys, main(["-q", "fig2", "--config", str(cfg)]))


@pytest.mark.parametrize("line, want", [
    ("lp_tol = abc", "lp_tol must be float, got 'abc'"),
    ("start = x", "start must be float, got 'x'"),
    ("stop = 1..0", "stop must be float, got '1..0'"),
    ("step = half", "step must be float, got 'half'"),
    ("format = xml", "format must be csv or json, got 'xml'"),
    ("step = -1", "step must be positive and finite, got -1.0"),
], ids=["lp_tol = abc", "start = x", "stop = 1..0", "step = half", "format = xml", "step = -1"])
def test_bad_config_value_is_a_one_line_error_at_its_line(tmp_path, capsys, line, want):
    # A value of the wrong type, or one the sweep's checks refuse.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"experiment = fig2\n{line}\n")
    message = assert_one_line_error(capsys, main(["-q", "fig2", "--config", str(cfg)]))
    assert message == f"error: {cfg}:2: {want}"


def test_config_naming_the_appendix_c_report_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = appendixc_inequality\n")
    line = assert_one_line_error(capsys, main(["-q", "fig2", "--config", str(cfg)]))
    assert all(repr(name) in line for name in ("fig2", "fig3", "figs1"))


def test_threshold_command(capsys):
    # Each LP search reads its root off the optimal basis at the narrowed
    # bracket's low end: 3 iterations, on its closed form.
    for measure, exact in LP_THRESHOLDS.items():
        bracket = "{}:{}".format(*LP_BRACKETS[measure])
        code, text = run_cli(capsys, "threshold", "--measure", measure, "--bracket", bracket,
                             "--tol", "lp=1e-12,threshold=1e-6")
        payload = json.loads(text)
        assert code == 0 and payload["iterations"] == 3 and abs(payload["threshold"] - exact) <= 1e-11, measure


def test_threshold_prints_its_result(capsys):
    # The printed record is the ThresholdResult's fields, in order, the
    # bracket as a JSON list.
    code, text = run_cli(capsys, "threshold", "--measure", "fig3_switch_plus", "--bracket", "0.2:0.35")
    result = experiments.find_threshold("fig3_switch_plus", 0.2, 0.35)
    assert code == 0 and list(json.loads(text)) == ["measure", "threshold", "bracket", "iterations"]
    assert json.loads(text) == {**asdict(result), "bracket": list(result.bracket)}


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--tol", "foo=1"], "--tol takes no parameter 'foo' (takes: lp)"),
    (["fig2", "--tol", "threshold=1e-4"], "--tol takes no parameter 'threshold' (takes: lp)"),
    (["threshold", "--measure", "fig2_rom_plus", "--bracket", "0.2:0.4", "--tol", "lp=x"],
     "parameter lp='x' of --tol is not a number"),
], ids=["unknown", "threshold-on-a-sweep", "not-a-number"])
def test_bad_tolerance_is_an_argument_error(capsys, argv, message):
    # argparse exits 2 with its usage and names the argument.
    with pytest.raises(SystemExit) as exit_:
        main(["-q", *argv])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"magicswitch {argv[0]}: error: argument --tol: {message}"


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--grid", "0:1"], "argument --grid: expected start:stop:step, got '0:1'"),
    (["fig3", "--grid", "0:0.1:0.01:2"], "argument --grid: expected start:stop:step, got '0:0.1:0.01:2'"),
    (["threshold", "--measure", "fig2_rom_plus", "--bracket", "0.2"], "argument --bracket: expected lo:hi, got '0.2'"),
    (["threshold", "--measure", "fig2_rom_plus", "--bracket", "0.1:0.2:0.3"],
     "argument --bracket: expected lo:hi, got '0.1:0.2:0.3'"),
], ids=["grid-too-few", "grid-too-many", "bracket-too-few", "bracket-too-many"])
def test_wrong_number_of_fields_is_an_argument_error(capsys, argv, message):
    # argparse exits 2 with its usage, and the message gives the form.
    with pytest.raises(SystemExit) as exit_:
        main(["-q", *argv])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"magicswitch {argv[0]}: error: {message}"


def test_threshold_without_crossing_fails(capsys):
    code = main(["-q", "threshold", "--measure", "fig2_channel_robustness",
                 "--bracket", "0.5:0.9"])
    capsys.readouterr()
    assert code == 1


def test_rom_named_state(capsys):
    # One state's robustness is one LP, whose solution has scalar fields: a
    # plain JSON float within 1e-12 of sqrt(2), a status string and the
    # factor 1.
    code, text = run_cli(capsys, "rom", "--state", "t-plus")
    assert code == 0
    payload = json.loads(text)
    assert type(payload["value"]) is float and abs(payload["value"] - np.sqrt(2)) <= 1e-12
    assert payload["status"] == "optimal" and payload["renorm_factor"] == 1.0


def test_rom_state_file(tmp_path, capsys):
    mixed = np.eye(2) / 2
    payload = {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in mixed]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code, text = run_cli(capsys, "rom", "--state-file", str(path))
    assert code == 0
    assert abs(json.loads(text)["value"] - 1.0) < 1e-7


def test_channel_robustness_command(capsys):
    # The T gate's robustness, sqrt(2), through the 19-row channel program,
    # which leaves out the three Choi rows its marginal rows imply.  The T
    # gate behind two depolarizing passes, and behind the plus branch of the
    # switched passes, reads free at p = 0.4, off the reference start at the
    # end of fig3's grid; at p = 0.1 the sequential channel is still magic.
    for channel, value in (("noisy-th:p=0.5", 1.0), ("t", np.sqrt(2)),
                           ("depol-squared-t:p=0.4", 1.0), ("switch-plus-t:p=0.4", 1.0)):
        code, text = run_cli(capsys, "channel-robustness", "--channel", channel)
        payload = json.loads(text)
        assert code == 0 and payload["status"] == "optimal" and abs(payload["value"] - value) <= 1e-12, channel
    code, text = run_cli(capsys, "channel-robustness", "--channel", "depol-squared-t:p=0.1")
    assert code == 0 and json.loads(text)["value"] > 1 + 1e-6


def test_mana_command(capsys):
    code, text = run_cli(capsys, "mana", "--channel", "qutrit-noisy-th:p=0.9")
    assert code == 0
    assert json.loads(text)["mana"] == 0.0
    code, text = run_cli(capsys, "mana", "--state", "qutrit-t-plus")
    assert json.loads(text)["mana"] > 0.5


def test_k2_check_command(capsys):
    code, text = run_cli(capsys, "k2-check", "--p", "0.5")
    assert code == 0
    payload = json.loads(text)
    assert payload["selected"] == "aligned"
    assert payload["aligned"] < 1e-12 < payload["cross"]


def test_appendix_c_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(capsys, "appendix-c", "--dims", "2,3", "--points", "200", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["strictly_negative"]


def test_default_appendix_c_report_matches_reference_hash(tmp_path, capsys):
    # The default report's bytes are pinned, as the default sweep CSVs are;
    # stdout carries the same bytes as --out.
    reference = "c5463cead248875f4d9e567dc396ca18b6bb8aa4354c2ecb2a5b234373235bea"
    out = tmp_path / "appendix-c.json"
    assert run_cli(capsys, "appendix-c", "--out", str(out))[0] == 0
    code, text = run_cli(capsys, "appendix-c")
    assert code == 0 and text.encode() == out.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference


@pytest.mark.parametrize("experiment", ["fig2", "fig3", "figs1"])
def test_default_csv_matches_reference_hash(tmp_path, capsys, experiment):
    # A sweep with no --grid writes the pinned default CSV; stdout carries
    # the same bytes as --out.
    from perfbench.workloads import EXPECTED_SHA256

    out = tmp_path / f"{experiment}.csv"
    assert run_cli(capsys, experiment, "--out", str(out))[0] == 0
    code, text = run_cli(capsys, experiment)
    assert code == 0 and text.encode() == out.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_SHA256[experiment]


@pytest.mark.parametrize("experiment, grid, reference", [
    ("fig2", "0:1:0.0005", "76655881e04e68ff71be96e68c39cf9e25bb8dd85884796574a36d0c87e1d271"),
    ("fig3", "0:0.45:0.0002", "661e89bce74c15e540b39f9ebf7dd17ec291f1bad53df358caa13f2e05a78309"),
    ("figs1", "0.01:1:0.0005", "7be76b85876b0cebea17145fdc58d5083a84b4f25a7294a4d2c205cad1d92edd"),
], ids=["fig2", "fig3", "figs1"])
def test_fine_grid_csv_matches_reference_hash(tmp_path, capsys, experiment, grid, reference):
    # The fine grids run as many blocks of one warm-started run; their bytes
    # are pinned, as the default grids' are.
    out = tmp_path / f"{experiment}.csv"
    assert run_cli(capsys, experiment, "--grid", grid, "--out", str(out))[0] == 0
    with out.open(newline="") as f:
        assert len(list(csv.DictReader(f))) == {"fig2": 2001, "fig3": 2251, "figs1": 1981}[experiment]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference


def test_figs1_grid_whose_minus_branch_has_probability_near_p_squared(tmp_path, capsys):
    # The minus branch is renormalized from a probability of about 1e-12
    # without magnifying rounding into a non-Hermitian state.
    out = tmp_path / "figs1.csv"
    assert run_cli(capsys, "figs1", "--grid", "0.000001:0.000002:0.000001", "--out", str(out))[0] == 0
    assert len(out.read_text().strip().splitlines()) == 3


def assert_one_line_error(capsys, code):
    """Check for exit code 2 and one ``error:`` line on stderr; return it."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


def test_jobs_flag_is_an_unrecognized_argument(capsys):
    # A sweep runs in one process, and the parser defines no worker count:
    # argparse exits 2 and names the arguments it does not know.
    with pytest.raises(SystemExit) as exit_:
        main(["-q", "fig2", "--jobs", "2"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith("error: unrecognized arguments: --jobs 2")


def _matrix(rows):
    return {"matrix": [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in rows]}


STATE_FILES = {
    "no-matrix-key": {"rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
    "ragged": {"matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
    "non-hermitian": _matrix([[0.5, 0.5], [0.0, 0.5]]),
    "non-psd": _matrix([[1.5, 0.0], [0.0, -0.5]]),
    "normalized-string": {**_matrix([[0.5, 0.0], [0.0, 0.5]]), "normalized": "no"},
    "trace-not-one": _matrix([[0.25, 0.0], [0.0, 0.25]]),
    # Written as JSON's Infinity, which json reads as a float, as it reads 1e400.
    "infinity": _matrix([[np.inf, 0.0], [0.0, 0.0]]),
}

# Config files that fail on their last line, each with one line of error.
CONFIG_FILES = {
    "repeated-key": "experiment = fig2\nstep = 0.5\nstep = 0.25\n",
    "out-and-output-path": "experiment = fig2\nout = a.csv\noutput_path = b.csv\n",
    "jobs-key": "experiment = fig2\njobs = 2\n",
}


# The error line of some of the cases below: a named depolarizing channel of
# a non-integral dimension is refused by the channel's own dimension check; a
# key given twice in a channel spec or in --tol is refused by the one reader
# of key=value lists; a bracket that leaves [0, 1] is named as given.
BAD_INPUT_MESSAGES = {
    **{
        f"channel-robustness --channel depolarizing:p=0.2,d={d}":
            f"error: dimension d={d} must be an integer of at least 2"
        for d in ("2.5", "nan")
    },
    "channel-robustness --channel noisy-th:p=0.3,p=0.4": "error: parameter p of 'noisy-th' is given twice",
    "fig2 --tol lp=0,lp=1": "error: parameter lp of --tol is given twice",
    "threshold --measure fig2_channel_robustness --bracket 0.2:0.4 --tol threshold=1e-3,threshold=1e-4":
        "error: parameter threshold of --tol is given twice",
    "threshold --measure fig2_rom_plus --bracket 0.1:2": "error: bracket [0.1, 2.0] leaves [0, 1], the range of p",
    "appendix-c --dims 2,3,2": "error: dimension d=2 is given twice",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--measure", "fig2_channel_robustness", "--bracket", "0.5:0.2"],
        ["threshold", "--measure", "figs1_mana_minus", "--bracket", "0:0.5"],
        *(
            ["threshold", "--measure", "fig2_channel_robustness", "--bracket", bracket]
            for bracket in ("nan:0.4", "0.2:nan", "0.2:inf")
        ),
        *(
            ["threshold", "--measure", "fig2_channel_robustness", "--bracket", "0.2:0.4", "--tol", tol]
            for tol in ("threshold=0", "threshold=-1", "threshold=nan", "threshold=inf", "lp=nan", "lp=-1")
        ),
        ["fig2", "--tol", "lp=-1"],
        ["fig2", "--tol", "lp=nan"],
        ["fig2", "--grid", "0:1:nan"],
        ["fig2", "--grid", "0:1:1e-300"],
        ["channel-robustness", "--channel", "noisy-th"],
        ["channel-robustness", "--channel", "noisy-th:p=abc"],
        ["channel-robustness", "--channel", "t:p=0.3"],
        ["channel-robustness", "--channel", "noisy-th:p=0.3,q=1"],
        ["channel-robustness", "--channel", "depolarizing:p=0.2,d=2.5"],
        ["channel-robustness", "--channel", "depolarizing:p=0.2,d=1"],
        ["channel-robustness", "--channel", "depolarizing:p=0.2,d=nan"],
        ["rom", "--state", "plus:p=0.3"],
        ["rom", "--state", "warp"],
        ["channel-robustness", "--channel", "teleporter:p=1"],
        *(["appendix-c", "--points", points] for points in ("0", "-5", "1000000000000")),
        *(["appendix-c", "--dims", dims] for dims in ("1", "2,x", "2,3,2")),
        ["mana", "--d", "4"],
        ["mana", "--d", "41"],
        ["mana", "--d", "41", "--channel", "qutrit-noisy-th:p=0.3"],
        ["rom", "--state-file", "no-such-file.json"],
        *(["rom", "--state-file", name] for name in STATE_FILES),
        ["rom", "--state-file", "not-json"],
        ["mana", "--state-file", "not-json"],
        *(["fig2", "--config", name] for name in CONFIG_FILES),
        ["channel-robustness", "--channel", "noisy-th:p=0.3,p=0.4"],
        ["fig2", "--tol", "lp=0,lp=1"],
        ["threshold", "--measure", "fig2_channel_robustness", "--bracket", "0.2:0.4",
         "--tol", "threshold=1e-3,threshold=1e-4"],
        ["threshold", "--measure", "fig2_rom_plus", "--bracket", "0.1:2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_is_a_one_line_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, payload in STATE_FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "not-json").write_text("matrix: [[1, 0], [0, 0]]\n")
    line = assert_one_line_error(capsys, main(["-q", *argv]))
    assert line == BAD_INPUT_MESSAGES.get(" ".join(argv), line)


@pytest.mark.parametrize("argv, message", [
    (["mana", "--d", "41"], "operator shape (3, 3) != frame dim 41"),
    (["mana", "--d", "5", "--channel", "qutrit-noisy-th:p=0.3"], "channel dims (3,3) != frame dim 5"),
    (["mana", "--d", "5", "--state-file", "qubit.json"], "operator shape (2, 2) != frame dim 5"),
    # No frame exists for a d that is not an odd prime: it is refused first,
    # before any dimension match and before any channel is built.
    (["mana", "--d", "4"], "dimension d=4 must be an odd prime"),
    (["mana", "--d", "0"], "dimension d=0 must be an odd prime"),
    (["mana", "--d", "-3"], "dimension d=-3 must be an odd prime"),
    (["mana", "--d", "9", "--channel", "depolarizing:p=0.1,d=9"], "dimension d=9 must be prime"),
])
def test_mana_refuses_a_dimension_mismatch_before_building_the_frame(tmp_path, monkeypatch, capsys, argv, message):
    # Building a frame checks its d^2 phase points against each other, about
    # d^6 work: tens of seconds at d = 41, for a state it can never score.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qubit.json").write_text(json.dumps(_matrix([[1, 0], [0, 0]])))
    built = []
    monkeypatch.setattr(cli, "build_frame", lambda d: built.append(d))
    monkeypatch.setattr(cli, "depolarizing_channel", lambda *args: built.append(args))
    assert assert_one_line_error(capsys, main(["-q", *argv])) == f"error: {message}"
    assert built == []


@pytest.mark.parametrize("argv, message", [
    (["channel-robustness"], "channel robustness is implemented for qubit channels"),
    (["mana", "--d", "3"], "channel dims (101,101) != frame dim 3"),
])
def test_named_channel_of_another_dimension_is_refused_before_it_is_built(monkeypatch, capsys, argv, message):
    # A d = 101 depolarizing stack holds 101^2 operators of 101 x 101: about
    # 1.6 GB, for a channel the command can never score.
    built = []
    monkeypatch.setattr(cli, "depolarizing_channel", lambda *args: built.append(args))
    line = assert_one_line_error(capsys, main(["-q", *argv, "--channel", "depolarizing:p=0.1,d=101"]))
    assert line == f"error: {message}" and built == []


@pytest.mark.parametrize("argv, mismatched, dim", [
    (["channel-robustness"], "qutrit-noisy-th:p=0.1", 3),
    (["mana", "--d", "3"], "t", 2),
])
def test_refused_depolarizing_dimension_reads_as_any_other_mismatch(capsys, argv, mismatched, dim):
    # The message is the one the scoring code gives a built channel of that
    # dimension.
    built = assert_one_line_error(capsys, main(["-q", *argv, "--channel", mismatched]))
    refused = assert_one_line_error(capsys, main(["-q", *argv, "--channel", f"depolarizing:p=0.1,d={dim}"]))
    assert refused == built


def test_threshold_refuses_an_uncertified_value(monkeypatch, capsys):
    # The search stops at its first LP that fails its certificate: here
    # every entry of its opening block, the low end first.
    solve = experiments.channel_robustness

    def uncertified(*args, **kwargs):
        solution = solve(*args, **kwargs)
        return replace(solution, residual=np.ones_like(solution.residual))

    monkeypatch.setattr(experiments, "channel_robustness", uncertified)
    argv = ["-q", "threshold", "--measure", "fig2_channel_robustness", "--bracket", "0.2:0.4"]
    line = assert_one_line_error(capsys, main(argv))
    assert line == "error: measure fig2_channel_robustness has status check_failed at p=0.2"


def test_state_file_errors_name_the_file(tmp_path, capsys):
    for name, text in (("not-json", "matrix:"), ("flag", json.dumps({**_matrix([[1, 0], [0, 0]]), "normalized": 1}))):
        path = tmp_path / name
        path.write_text(text)
        assert main(["-q", "rom", "--state-file", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


def test_near_hermitian_state_file(tmp_path, capsys):
    # An anti-Hermitian part within the Hermiticity tolerance is accepted,
    # by mana (qutrit) and by rom (qubit).
    payloads = {}
    for name, d in (("mana", 3), ("rom", 2)):
        rows = np.eye(d, dtype=complex) / d
        rows[0, 1] = 5e-11j
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_matrix(rows)))
        code, text = run_cli(capsys, name, "--state-file", str(path))
        assert code == 0
        payloads[name] = json.loads(text)
    assert payloads["mana"]["mana"] == 0.0
    assert abs(payloads["rom"]["value"] - 1.0) < 1e-7


def test_unnormalized_state_file_is_renormalized(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**_matrix([[0.25, 0.0], [0.0, 0.25]]), "normalized": False}))
    code, text = run_cli(capsys, "rom", "--state-file", str(path))
    assert code == 0 and json.loads(text)["renorm_factor"] == 0.5


@pytest.mark.parametrize("argv, solver", [
    (("rom", "--state", "t-plus"), "rom_state"),
    (("channel-robustness", "--channel", "noisy-th:p=0.1"), "channel_robustness"),
])
def test_failed_certificate_exits_one(capsys, monkeypatch, argv, solver):
    # The value prints as computed; the status names the failed check.
    code, text = run_cli(capsys, *argv)
    good = json.loads(text)
    assert code == 0 and good["status"] == "optimal"
    solve = getattr(cli, solver)
    monkeypatch.setattr(cli, solver, lambda *args: replace(solve(*args), residual=10 * DEFAULT_TOL.lp_residual))
    code, text = run_cli(capsys, *argv)
    assert code == 1 and json.loads(text) == {**good, "status": "check_failed"}


def run_module(*argv, memory_kib=None):
    """Run ``python -m magicswitch.cli`` on ``argv`` from this checkout's
    ``src``, with the child's address space capped at ``memory_kib`` KiB
    when given (the cap acts on that child only)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = memory_kib and (lambda: resource.setrlimit(resource.RLIMIT_AS, (memory_kib * 1024,) * 2))
    return subprocess.run([sys.executable, "-m", "magicswitch.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=cap)


def test_threshold_logs_one_info_line_unless_quiet():
    command = ["threshold", "--measure", "fig2_channel_robustness", "--bracket", "0.2:0.4"]
    loud, quiet = (run_module(*flags, *command) for flags in ([], ["-q"]))
    assert loud.returncode == quiet.returncode == 0
    (line,) = loud.stderr.splitlines()
    assert line.startswith("INFO magicswitch.experiments: threshold fig2_channel_robustness: ")
    assert line.endswith("after 5 evaluations, root proposed")
    assert quiet.stderr == "" and quiet.stdout == loud.stdout


@pytest.mark.parametrize("argv, memory_kib", [
    (["fig2", "--grid", "0:1:1e-300", "--out", os.devnull], 2_000_000),
    (["appendix-c", "--points", "1000000000000", "--out", os.devnull], 2_000_000),
    (["channel-robustness", "--channel", "depolarizing:p=0.1,d=101"], 1_500_000),
    (["mana", "--d", "3", "--channel", "depolarizing:p=0.1,d=101"], 1_500_000),
], ids=["fig2-grid", "appendix-c-points", "channel-robustness-d101", "mana-d101"])
def test_oversized_input_is_refused_under_a_memory_cap(argv, memory_kib):
    # An oversized grid, and a named depolarizing channel of another
    # dimension than the command scores, are refused before they are built:
    # exit code 2 and one error line, in a process that could not build them.
    run = run_module("-q", *argv, memory_kib=memory_kib)
    assert run.returncode == 2 and run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_mana_of_a_23_dimensional_mixed_state(tmp_path, capsys):
    # A 23-dimensional frame builds and checks in well under a second (its
    # Gram matrix is one BLAS product), and the maximally mixed state has
    # mana 0.
    path = tmp_path / "mixed23.json"
    path.write_text(json.dumps(_matrix(np.eye(23) / 23)))
    start = time.perf_counter()
    code, text = run_cli(capsys, "mana", "--d", "23", "--state-file", str(path))
    assert time.perf_counter() - start < 20
    assert code == 0 and json.loads(text)["mana"] == 0.0


def cli_surface(parser):
    """What ``parser`` accepts and documents: per action its option strings,
    dest, default, choices, metavar, ``required`` and help, and per
    subcommand its name, help and surface."""
    record = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            helps = {sub.dest: sub.help for sub in action._choices_actions}
            choices = [{"name": name, "help": helps[name], "surface": cli_surface(sub)}
                       for name, sub in action.choices.items()]
        record.append({"option_strings": action.option_strings, "dest": action.dest, "default": action.default,
                       "choices": choices, "metavar": action.metavar, "required": action.required,
                       "help": action.help})
    return record


def test_cli_surface_is_unchanged():
    # Every subcommand, option, default, choice and help text, hashed as
    # canonical JSON rather than as --help output, which wraps to the
    # terminal and differs between Python versions.
    text = json.dumps(cli_surface(cli.build_parser()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "68b2e65cc2faf8d57fe57ec5a72e3c5c24cb8dfcb4f813d1d5c431e4415e45d0"


# Each path below ends in argparse: an error, a help text or the version.
PARSE_ONLY_ARGV = [
    ["fig2", "--bogus"],
    ["rom", "extra"],
    ["nosuch"],
    [],
    ["--help"],
    ["--version"],
    ["fig2", "--help"],
    ["mana", "--d", "x"],
    ["threshold"],
    # -h before the command prints the top-level help, which lists every command.
    ["-h", "fig2"],
    ["-qh", "fig2"],
]


def parse_output(capsys, run, argv):
    """(stdout, stderr, exit code) of ``run(argv)``, which exits."""
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    return (*capsys.readouterr(), exit_.value.code)


@pytest.mark.parametrize("argv", PARSE_ONLY_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_prints_what_the_full_parser_prints(capsys, argv):
    # main builds only the parser of the command argv names; its usage line
    # still lists every command, so each of these paths reads byte for byte
    # as the full parser's.
    assert parse_output(capsys, main, argv) == parse_output(capsys, cli.build_parser().parse_args, argv)


def test_a_lone_command_parser_has_the_full_parsers_surface():
    # The parser built for ["-q", name] holds that subcommand alone, as the
    # full parser declares it.
    def subcommands(parser):
        (entry,) = (entry for entry in cli_surface(parser) if entry["dest"] == "command")
        return entry["choices"]

    for choice in subcommands(cli.build_parser()):
        assert subcommands(cli.build_parser(cli._command_of(["-q", choice["name"]]))) == [choice]


def test_a_command_builds_two_parsers(monkeypatch, tmp_path):
    # The top-level parser and the one subcommand argv names; the full tree
    # is ten.
    built = spy(monkeypatch, argparse.ArgumentParser, "__init__")
    assert main(["-q", "k2-check", "--out", str(tmp_path / "k2.json")]) == 0
    assert len(built) == 2
