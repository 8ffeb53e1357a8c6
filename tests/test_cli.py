import argparse
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qcr
import qcr.cli
from qcr.cli import main
from qcr.errors import NumericError
from qcr.serialize import dumps_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model_file(path, rho, tangents):
    doc = {
        "dim": rho.shape[0],
        "rho": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
        "tangent": [{"re": t.real.tolist(), "im": t.imag.tolist()} for t in tangents],
    }
    path.write_text(json.dumps(doc))


def test_info_builtin(capsys):
    code, out, _ = run(capsys, "info", "--model", "qubit-full", "--alpha", "0.6")
    assert code == 0
    assert "dim = 2, n = 3" in out
    assert "1.5625" in out


def test_info_model_file(capsys, tmp_path):
    rho = np.diag([0.8, 0.2]).astype(complex)
    sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    path = tmp_path / "model.json"
    write_model_file(path, rho, [sx])
    code, out, _ = run(capsys, "info", "--model-file", str(path))
    assert code == 0
    assert "dim = 2, n = 1" in out
    # a whole-valued float dim is an integer
    path.write_text(json.dumps(_model_doc(dim=2.0)))
    code, out, _ = run(capsys, "info", "--model-file", str(path))
    assert code == 0
    assert "dim = 2, n = 1" in out


def test_malformed_model_file_exits_2(capsys, tmp_path):
    rho = np.array([[0.8, 0.5], [0.0, 0.2]], dtype=complex)  # not Hermitian
    path = tmp_path / "bad.json"
    write_model_file(path, rho, [np.diag([1.0, -1.0]).astype(complex)])
    code, _, err = run(capsys, "info", "--model-file", str(path))
    assert code == 2
    assert "rho" in err


def test_missing_model_exits_2(capsys):
    code, _, err = run(capsys, "bound")
    assert code == 2
    assert "model" in err


def test_bound_values(capsys):
    code, out, _ = run(capsys, "bound", "--model", "qubit-full", "--alpha", "0.6")
    assert code == 0
    assert "7.84" in out
    assert "2.64" in out


def test_bound_weight_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": np.diag([1.0, 1.0, 1.5625]).tolist()}))
    code, out, _ = run(capsys, "bound", "--model", "qubit-full", "--alpha", "0.6",
                       "--g-file", str(path))
    assert code == 0
    assert "9" in out


def test_bound_non_pd_weight_exits_2(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": np.diag([1.0, -1.0, 1.0]).tolist()}))
    code, _, err = run(capsys, "bound", "--model", "qubit-full", "--alpha", "0.6",
                       "--g-file", str(path))
    assert code == 2
    assert "weight" in err


def test_weight_scale_does_not_decide_validity(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": (1e-11 * np.eye(3)).tolist()}))
    code, out, _ = run(capsys, "bound", "--model", "qubit-full", "--alpha", "0.6",
                       "--g-file", str(path))
    assert code == 0
    assert "7.84e-11" in out


@pytest.mark.parametrize("big", [1e11, 1e300])
@pytest.mark.parametrize("command", [["bound"], ["dual", "--seed", "0"],
                                     ["simulate", "--samples", "100", "--seed", "0"]],
                         ids=["bound", "dual", "simulate"])
def test_ill_conditioned_weight_exits_2(capsys, tmp_path, command, big):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": np.diag([1.0, 1.0, big]).tolist()}))
    code, out, err = run(capsys, *command, "--model", "qubit-full", "--alpha", "0.6",
                         "--g-file", str(path))
    assert code == 2
    assert err.startswith("error: weight matrix: not positive definite")
    assert out == ""


def test_check_random_exit_codes(capsys):
    code, out, _ = run(capsys, "check-random", "--model", "qubit-full", "--alpha", "0.3")
    assert code == 0
    assert "True" in out
    code, out, _ = run(capsys, "check-random", "--model", "qutrit-diagonal",
                       "--probs", "0.5,0.25,0.25")
    assert code == 1
    assert "witness" in out


def test_dual_converges_and_matches_bound(capsys):
    code, out, _ = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6",
                       "--tol", "1e-4", "--seed", "0")
    assert code == 0
    line = [l for l in out.splitlines() if "dual optimum" in l][0]
    value = float(line.split(":")[1])
    assert value == pytest.approx(7.84, abs=1e-3)


def test_dual_unconverged_exits_3(capsys):
    code, out, _ = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6",
                       "--max-rounds", "2", "--seed", "0")
    assert code == 3
    assert "unconverged" in out


def test_dual_solver_failure_exits_3(capsys, monkeypatch):
    def fail(*_args, **_kwargs):
        raise NumericError("cutting-plane relaxation came back infeasible")

    monkeypatch.setattr("qcr.cli.solve_dual", fail)
    code, out, err = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6", "--seed", "0")
    assert code == 3
    assert err.startswith("error: ")
    assert out == ""


def test_dual_certify(capsys):
    code, out, _ = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6",
                       "--tol", "1e-4", "--seed", "0", "--certify")
    assert code == 0
    assert "certificate spur" in out
    assert "certified           : yes" in out


def test_json_report_round_trips(capsys):
    code, out, _ = run(capsys, "bound", "--model", "qubit-full", "--alpha", "0.6", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert dumps_report(parsed) == out
    assert parsed["results"]["random_bound"] == pytest.approx(7.84)


def test_json_simulate_round_trips(capsys):
    code, out, _ = run(capsys, "simulate", "--model", "qubit-full", "--alpha", "0.6",
                       "--samples", "2000", "--seed", "11", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert dumps_report(parsed) == out
    assert parsed["seed"] == 11


def test_json_dual_and_checker_round_trip(capsys):
    code, out, _ = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6",
                       "--tol", "1e-3", "--seed", "1", "--certify", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert dumps_report(parsed) == out
    assert parsed["results"]["certificate"]["applicable"] is True
    assert parsed["results"]["certified"] is True
    code, out, _ = run(capsys, "check-random", "--model", "qubit-full", "--alpha", "0.3", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert dumps_report(parsed) == out
    assert parsed["results"]["verdict"] is True


def test_json_randomized_commands_require_seed(capsys, tmp_path):
    code, _, err = run(capsys, "limitset", "--model", "qubit-equatorial", "--alpha", "0.6",
                       "--samples", "3", "--json", "--csv", str(tmp_path / "x.csv"))
    assert code == 2
    assert "seed" in err
    code, _, err = run(capsys, "simulate", "--model", "qubit-full", "--alpha", "0.6",
                       "--samples", "10", "--json")
    assert code == 2
    assert "seed" in err


def test_limitset_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run(capsys, "limitset", "--model", "qubit-equatorial", "--alpha", "0.6",
                           "--samples", "25", "--seed", "5", "--csv", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "V00,V01,V10,V11,min_eig_vs_inverse_fisher,det_witness"
    assert len(lines) == 26
    for row in lines[1:]:
        cells = [float(x) for x in row.split(",")]
        assert cells[4] >= -1e-9
        assert cells[5] == pytest.approx(1.0, abs=1e-9)
    # a text report without --seed samples with seed 0 and says so
    for path, seed in ((a, []), (b, ["--seed", "0"])):
        code, out, _ = run(capsys, "limitset", "--model", "qubit-equatorial", "--alpha", "0.6",
                           "--samples", "25", *seed, "--csv", str(path))
        assert code == 0
        assert "sampled 25 frontier covariances (seed 0)" in out
    assert a.read_bytes() == b.read_bytes()


def test_limitset_unwritable_csv_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "limitset", "--model", "qubit-equatorial", "--alpha", "0.6",
                       "--samples", "2", "--seed", "5", "--csv",
                       str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert "CSV" in err or "csv" in err


def test_simulate_report(capsys):
    code, out, _ = run(capsys, "simulate", "--model", "qubit-full", "--alpha", "0.6",
                       "--samples", "50000", "--seed", "2")
    assert code == 0
    assert "theoretical tr(G V): 7.84" in out


def test_simulate_standard_error_belongs_to_the_second_moment(capsys, tmp_path):
    g = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"g": g.tolist()}))
    code, out, _ = run(capsys, "simulate", "--model", "qubit-full", "--alpha", "0.6",
                       "--samples", "20000", "--seed", "4", "--g-file", str(path), "--json")
    assert code == 0
    res = json.loads(out)["results"]
    mean = np.array(res["empirical_mean"])
    assert res["second_moment"] == pytest.approx(res["empirical_deviation"] + mean @ g @ mean,
                                                 rel=1e-9)
    # the sampled second moment lies within a few of its standard errors of the theory
    assert abs(res["second_moment"] - res["theory_deviation"]) <= 5.0 * res["deviation_standard_error"]
    # on the equatorial qubit every sample has the same quadratic form: the
    # standard error is 0 and the second moment is the theoretical deviation
    code, out, _ = run(capsys, "simulate", "--model", "qubit-equatorial", "--alpha", "0.3",
                       "--samples", "20000", "--seed", "4", "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["deviation_standard_error"] == 0.0
    assert res["second_moment"] == pytest.approx(res["theory_deviation"], rel=1e-12)


def test_simulate_single_sample_flags_uncertainty(capsys):
    code, out, _ = run(capsys, "simulate", "--model", "qubit-full", "--alpha", "0.6",
                       "--samples", "1", "--seed", "2")
    assert code == 0
    assert "uncertainty is wide" in out


def test_bad_probs_exit_2(capsys):
    code, _, err = run(capsys, "check-random", "--model", "qutrit-diagonal",
                       "--probs", "0.5,0.5,0.5")
    assert code == 2
    assert "sum" in err


def test_module_entry_point_and_log_env():
    # the child imports qcr from wherever this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcr.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, QCR_LOG="debug", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "qcr.cli", "dual", "--model", "qubit-full", "--alpha", "0.6",
         "--tol", "1e-3", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0
    assert "dual optimum" in proc.stdout
    # debug diagnostics land on stderr only, with the round's LP and separation seconds
    assert "round 1" in proc.stderr
    assert "round 1" not in proc.stdout
    assert re.search(r"round 1: .* warm=\w+ lp_s=\S+ sep_s=\S+", proc.stderr)


def _model_doc(**overrides):
    doc = {
        "dim": 2,
        "rho": {"re": [[0.8, 0.0], [0.0, 0.2]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "tangent": [{"re": [[0.0, 0.5], [0.5, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
    }
    doc.update(overrides)
    return doc


MALFORMED_NUMBERS = [
    ("probs", ["bound", "--model", "qutrit-diagonal", "--probs", "0.5,abc,0.25"], None, None),
    ("model-dim", ["info"], "model", _model_doc(dim="two")),
    ("model-dim-null", ["info"], "model", _model_doc(dim=None)),
    ("model-dim-fraction", ["info"], "model", _model_doc(dim=2.5)),
    ("model-dim-inf", ["info"], "model", _model_doc(dim=float("inf"))),
    ("model-dim-bool", ["info"], "model", _model_doc(dim=True)),
    ("model-dim-string", ["info"], "model", _model_doc(dim="2")),
    ("model-dim-zero", ["info"], "model", _model_doc(dim=0)),
    ("model-entry", ["info"], "model",
     _model_doc(rho={"re": [[0.8, "x"], [0.0, 0.2]], "im": [[0.0, 0.0], [0.0, 0.0]]})),
    ("model-rho-inf", ["info"], "model",
     _model_doc(rho={"re": [[0.8, 0.0], [0.0, float("inf")]], "im": [[0.0, 0.0], [0.0, 0.0]]})),
    ("model-tangent-inf", ["info"], "model",
     _model_doc(tangent=[{"re": [[0.0, 0.5], [0.5, 0.0]],
                          "im": [[0.0, float("-inf")], [float("inf"), 0.0]]}])),
    ("g-entry", ["bound", "--model", "qubit-full", "--alpha", "0.6"], "g",
     {"g": [[1.0, 0.0, 0.0], [0.0, "one", 0.0], [0.0, 0.0, 1.0]]}),
    ("g-ragged", ["bound", "--model", "qubit-full", "--alpha", "0.6"], "g",
     {"g": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]}),
    ("tol-nan", ["dual", "--model", "qubit-full", "--alpha", "0.6", "--tol", "nan", "--seed", "0"],
     None, None),
    ("tol-inf", ["dual", "--model", "qubit-full", "--alpha", "0.6", "--tol", "inf", "--seed", "0"],
     None, None),
    # SolverConfig refuses these: only dual reads --tol
    ("tol-negative-dual", ["dual", "--model", "qubit-full", "--alpha", "0.6", "--tol", "-1"], None, None),
    ("tol-zero-dual", ["dual", "--model", "qubit-full", "--alpha", "0.6", "--tol", "0"], None, None),
    ("seed-negative-dual", ["dual", "--model", "qubit-full", "--alpha", "0.6", "--seed", "-1"],
     None, None),
    ("seed-negative-simulate", ["simulate", "--model", "qubit-full", "--alpha", "0.6",
                                "--samples", "10", "--seed", "-1"], None, None),
    # a count numpy cannot draw, and one (65.5 TiB) it refuses to allocate
    # before touching any memory
    ("samples-huge-limitset", ["limitset", "--model", "qubit-full", "--alpha", "0.6",
                               "--samples", "100000000000000000000", "--seed", "1"], None, None),
    ("samples-unheld-limitset", ["limitset", "--model", "qubit-full", "--alpha", "0.6",
                                 "--samples", "1000000000000", "--seed", "1"], None, None),
]


@pytest.mark.parametrize("argv, file_kind, doc", [case[1:] for case in MALFORMED_NUMBERS],
                         ids=[case[0] for case in MALFORMED_NUMBERS])
def test_malformed_numbers_exit_2(capsys, tmp_path, argv, file_kind, doc):
    argv = list(argv)
    if file_kind is not None:
        path = tmp_path / f"{file_kind}.json"
        path.write_text(json.dumps(doc))
        argv += ["--model-file" if file_kind == "model" else "--g-file", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert out == ""


# each message names the number it rejects, as a plain float, and the bound it checks
ERROR_MESSAGES = [
    (["info", "--model", "qutrit-diagonal", "--probs", "0.5,0.25,0.3"], None,
     "qutrit-diagonal: probabilities sum to 1.05, not 1 within 1e-12"),
    (["info", "--model", "qubit-full", "--alpha", "0.99999999999"], None,
     "qubit-full: alpha = 0.99999999999 outside (-0.9999999998, 0.9999999998)"),
    (["info"], _model_doc(tangent=[{"re": [[0.25, 0.5], [0.5, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]),
     "tangent[0]: trace 0.25 exceeds 1.0e-10 in magnitude"),
    (["info"], _model_doc(dim=True), "model file: 'dim' must be a positive integer, got True"),
    (["info"], _model_doc(dim="2"), "model file: 'dim' must be a positive integer, got '2'"),
    (["info"], _model_doc(dim=-1), "model file: 'dim' must be a positive integer, got -1"),
    # a model option the chosen model does not take is refused, not ignored
    (["info", "--model", "qutrit-diagonal", "--probs", "0.5,0.25,0.25", "--alpha", "0.6"], None,
     "--alpha does not apply to qutrit-diagonal"),
    (["info", "--alpha", "0.6"], _model_doc(), "--alpha does not apply to a model file"),
    (["info", "--model", "qubit-equatorial", "--alpha", "0.6", "--probs", "0.5,0.25,0.25"], None,
     "--probs does not apply to qubit-equatorial"),
    (["info", "--probs", "0.5,0.25,0.25"], _model_doc(), "--probs does not apply to a model file"),
]


@pytest.mark.parametrize("argv, doc, message", ERROR_MESSAGES,
                         ids=["probs-sum", "alpha-bound", "tangent-trace", "dim-bool", "dim-string", "dim-negative",
                              "alpha-qutrit", "alpha-model-file", "probs-qubit", "probs-model-file"])
def test_error_messages_state_the_checked_number_and_bound(capsys, tmp_path, argv, doc, message):
    argv = list(argv)
    if doc is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv += ["--model-file", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


_QUBIT = ["--model", "qubit-full", "--alpha", "0.6"]

# (argv, file contents, part of the message); FILE in argv names a file holding
# the contents, or a missing file when they are None
MALFORMED_INPUTS = {
    "model-block-not-re-im": (["info", "--model-file", "FILE"],
                              _model_doc(rho=[[0.8, 0.0], [0.0, 0.2]]),
                              "rho: expected an object with 're' and 'im' matrices"),
    "model-block-shape": (["info", "--model-file", "FILE"],
                          _model_doc(tangent=[{"re": [[0.0, 0.5, 0.0]], "im": [[0.0, 0.0, 0.0]]}]),
                          "tangent[0]: expected 2x2 're' and 'im' blocks"),
    "model-no-dim": (["info", "--model-file", "FILE"],
                     {k: v for k, v in _model_doc().items() if k != "dim"},
                     "model file: expected an object with 'dim', 'rho' and 'tangent'"),
    "model-empty-tangent": (["info", "--model-file", "FILE"], _model_doc(tangent=[]),
                            "model file: 'tangent' must be a nonempty list"),
    "model-file-unreadable": (["info", "--model-file", "FILE"], None, "cannot read model file"),
    "model-file-not-json": (["info", "--model-file", "FILE"], "{'dim': 2}", "is not valid JSON"),
    "weight-no-g": (["bound", *_QUBIT, "--g-file", "FILE"], {"G": np.eye(3).tolist()},
                    "weight file: expected an object with a 'g' matrix"),
    "qutrit-no-probs": (["info", "--model", "qutrit-diagonal"], None,
                        "qutrit-diagonal needs --probs P1,P2,P3"),
    "qubit-no-alpha": (["info", "--model", "qubit-full"], None, "qubit-full needs --alpha"),
    "limitset-no-samples": (["limitset", *_QUBIT, "--seed", "1"], None, "limitset needs --samples >= 1"),
    "limitset-samples-0": (["limitset", *_QUBIT, "--seed", "1", "--samples", "0"], None,
                           "limitset needs --samples >= 1"),
    "simulate-no-samples": (["simulate", *_QUBIT, "--seed", "1"], None, "simulate needs --samples >= 1"),
    "simulate-samples-0": (["simulate", *_QUBIT, "--seed", "1", "--samples", "0"], None,
                           "simulate needs --samples >= 1"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_inputs_exit_2(capsys, tmp_path, case):
    argv, contents, message = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    if contents is not None:
        path.write_text(contents if isinstance(contents, str) else json.dumps(contents))
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_dual_certify_on_a_model_that_is_not_random(capsys):
    code, out, _ = run(capsys, "dual", "--model", "qutrit-diagonal", "--probs", "0.5,0.25,0.25",
                       "--certify", "--json")
    assert code == 0
    certificate = json.loads(out)["results"]["certificate"]
    assert certificate["applicable"] is False
    assert certificate["witness_score"] > 0


# -- each command's options ----------------------------------------------------------

SHARED_OPTIONS = {"--model", "--model-file", "--alpha", "--probs", "--json", "--seed"}
# the options each command reads besides the shared ones
COMMAND_OPTIONS = {
    "info": set(),
    "bound": {"--g-file"},
    "dual": {"--g-file", "--tol", "--certify", "--max-rounds"},
    "check-random": set(),
    "limitset": {"--samples", "--csv"},
    "simulate": {"--g-file", "--samples"},
}


def test_each_command_takes_only_the_options_it_reads():
    parser = qcr.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMAND_OPTIONS)
    for name, sub in commands.choices.items():
        options = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == SHARED_OPTIONS | COMMAND_OPTIONS[name], name


# a value for each option some command does not read; --tol also with the
# values a command that reads it refuses
UNREAD_VALUES = {"--g-file": [("", "g.json")], "--samples": [("", "10")], "--csv": [("", "x.csv")],
                 "--tol": [("", "1e-5"), ("negative-", "-1"), ("zero-", "0")]}
UNREAD_OPTIONS = [
    pytest.param(command, option, value, id=f"{option[2:]}-{label}{command}")
    for command, own in COMMAND_OPTIONS.items()
    for option, values in UNREAD_VALUES.items() if option not in own
    for label, value in values
]


@pytest.mark.parametrize("command, option, value", UNREAD_OPTIONS)
def test_options_a_command_does_not_read_exit_2(capsys, command, option, value):
    sampled = ["--samples", "10"] if command in ("limitset", "simulate") else []
    code, out, err = run(capsys, command, *_QUBIT, "--seed", "1", *sampled, option, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {option} {value}" in err
    assert "Traceback" not in err


# (extra arguments, seeded report, results keys, text labels) per command
REPORT_SHAPES = {
    "info": ([], False, ["fisher", "fisher_inverse"],
             ["rho eigenvalues", "fisher matrix J", "inverse J"]),
    "bound": ([], False, ["random_bound", "classical_bound", "gap"],
              ["random-measurement bound", "classical reference", "gap"]),
    "dual": (["--tol", "1e-4", "--certify"], False,
             ["optimum", "lp_value", "rounds", "n_cuts", "feasibility_residual", "solver_status",
              "certified", "dual_a", "dual_s", "certificate"],
             ["dual optimum", "lp relaxation value", "rounds / cuts", "feasibility residual",
              "status", "certified", "certificate spur"]),
    "check-random": ([], False, ["verdict", "score", "constant"],
                     ["random model", "constant block C"]),
    "limitset": (["--samples", "5", "--csv", "CSV"], True,
                 ["samples", "csv", "min_eig_worst", "det_witness_max_error"],
                 ["worst min-eig of V - J^-1", "max |det witness - 1|"]),
    "simulate": (["--samples", "200"], True,
                 ["samples", "empirical_mean", "mean_standard_errors", "empirical_cov",
                  "empirical_deviation", "second_moment", "deviation_standard_error",
                  "theory_deviation", "wide_uncertainty"],
                 ["samples", "empirical mean", "mean standard err", "empirical tr(G V)",
                  "empirical tr(G E[xx^T])", "theoretical tr(G V)"]),
}


@pytest.mark.parametrize("command", list(REPORT_SHAPES))
def test_report_shape(capsys, tmp_path, command):
    extra, seeded, result_keys, labels = REPORT_SHAPES[command]
    extra = [str(tmp_path / "x.csv") if a == "CSV" else a for a in extra]
    argv = [command, "--model", "qubit-equatorial", "--alpha", "0.3", "--seed", "3", *extra]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    report = json.loads(out)
    top = ["command", "model", "seed", "results", "status", "wall_time_s"]
    assert list(report) == (top if seeded else [k for k in top if k != "seed"])
    assert report["command"] == command
    assert list(report["model"]) == ["dim", "n", "rho_eigenvalues", "fisher_eigenvalues"]
    assert list(report["results"]) == result_keys
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [line.split(":")[0].rstrip() for line in out.splitlines() if ":" in line] == labels


# -- one parser per process ----------------------------------------------------------


def _without_time(out):
    report = json.loads(out)
    report.pop("wall_time_s")
    return report


def test_reused_parser_carries_nothing_over(capsys):
    info = ["info", "--model", "qubit-full", "--alpha", "0.6", "--json"]
    code, before, _ = run(capsys, *info)
    assert code == 0
    code, out, _ = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6", "--certify",
                       "--max-rounds", "2", "--seed", "5", "--json")
    # the deterministic dual solve checks --seed but leaves it out of its report
    assert code == 3 and "seed" not in json.loads(out)
    code, after, _ = run(capsys, *info)
    assert code == 0
    assert _without_time(after) == _without_time(before)
    # the shared parser gives the namespace a new parser gives
    shared = qcr.cli._parser().parse_args(info)
    assert shared is not qcr.cli._parser().parse_args(info)
    assert vars(shared) == vars(qcr.cli.build_parser().parse_args(info))
    assert qcr.cli._parser() is qcr.cli._parser()
    assert qcr.cli.build_parser() is not qcr.cli.build_parser()


def test_repeated_usage_errors_and_help(capsys):
    runs = [run(capsys, "info", "--alpha", "abc") for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and runs[0][1] == ""
    assert "invalid float value: 'abc'" in runs[0][2]
    helps = [run(capsys, "--help") for _ in range(2)]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: qcr ")


def test_patched_command_takes_effect_after_an_earlier_call(capsys, monkeypatch):
    argv = ["bound", "--model", "qubit-full", "--alpha", "0.6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "random-measurement bound" in out
    monkeypatch.setattr(qcr.cli, "cmd_bound",
                        lambda args, model: qcr.cli.Outcome({}, ["patched"], "false", 1))
    assert run(capsys, *argv) == (1, "patched\n", "")


def test_log_level_is_read_on_every_call(capsys, monkeypatch):
    argv = ["dual", "--model", "qubit-full", "--alpha", "0.6", "--max-rounds", "2"]
    qcr_logger = logging.getLogger("qcr")
    level = qcr_logger.level
    try:
        monkeypatch.setenv("QCR_LOG", "error")
        code, _, err = run(capsys, *argv)
        assert code == 3 and err == ""
        monkeypatch.setenv("QCR_LOG", "debug")
        code, _, err = run(capsys, *argv)
        assert code == 3
        # one handler, writing to the stderr of this call
        assert err.count("round 1:") == 1
        assert err.startswith("DEBUG qcr.dual: round 1: ")
    finally:
        qcr_logger.setLevel(level)
