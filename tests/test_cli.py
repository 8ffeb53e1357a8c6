import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qcr
from qcr.cli import main
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


def test_dual_certify(capsys):
    code, out, _ = run(capsys, "dual", "--model", "qubit-full", "--alpha", "0.6",
                       "--tol", "1e-4", "--seed", "0", "--certify")
    assert code == 0
    assert "certificate spur" in out


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
    # debug diagnostics land on stderr only
    assert "round 1" in proc.stderr
    assert "round 1" not in proc.stdout


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
    ("model-entry", ["info"], "model",
     _model_doc(rho={"re": [[0.8, "x"], [0.0, 0.2]], "im": [[0.0, 0.0], [0.0, 0.0]]})),
    ("g-entry", ["bound", "--model", "qubit-full", "--alpha", "0.6"], "g",
     {"g": [[1.0, 0.0, 0.0], [0.0, "one", 0.0], [0.0, 0.0, 1.0]]}),
    ("g-ragged", ["bound", "--model", "qubit-full", "--alpha", "0.6"], "g",
     {"g": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]}),
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
