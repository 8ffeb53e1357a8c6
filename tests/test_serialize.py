import json

import numpy as np
import pytest

from qcr.errors import ValidationError
from qcr.serialize import CSV_CHUNK_ROWS, _format_float, dumps_report, write_csv


def reference_csv(header, rows) -> bytes:
    """One _format_float call per value: the writer's byte reference."""
    lines = [",".join(header)] + [",".join(_format_float(float(x)) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_write_csv_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(11)
    special = [[-0.0, 0.0, 5e-324, -5e-324],
               [1e22, -1e22, 1.0 / 3.0, -2.0 / 3.0],
               [1.0, -7.0, 123456789.0, 2.0 ** 53],
               [1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1]]
    random = rng.normal(size=(600, 4)) * 10.0 ** rng.integers(-320, 300, size=(600, 4))
    rows = np.vstack([special, random])
    assert rows.shape[0] > 2 * CSV_CHUNK_ROWS
    header = ["a", "b", "c", "d"]
    path = tmp_path / "x.csv"
    write_csv(str(path), header, rows)
    assert path.read_bytes() == reference_csv(header, rows)
    assert path.read_text().splitlines()[1] == "0,0,4.9406564584124654e-324,-4.9406564584124654e-324"
    # nested lists are accepted as well as arrays
    write_csv(str(path), header, rows.tolist())
    assert path.read_bytes() == reference_csv(header, rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_rejects_non_finite_rows_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "x.csv"
    rows = np.ones((3, 2))
    rows[2, 1] = bad
    with pytest.raises(ValidationError):
        write_csv(str(path), ["a", "b"], rows)
    assert not path.exists()


@pytest.mark.parametrize("rows", [np.ones((2, 3)), np.ones(2), np.ones((1, 2, 2)),
                                  [[1.0, 2.0], [3.0]], [["a", "b"]]])
def test_write_csv_rejects_rows_that_do_not_fit_the_header(tmp_path, rows):
    path = tmp_path / "x.csv"
    with pytest.raises(ValidationError):
        write_csv(str(path), ["a", "b"], rows)
    assert not path.exists()


@pytest.mark.parametrize("report, match", [
    ({"x": float("nan")}, "NaN"),
    ({"x": [1.0, np.inf]}, "NaN"),
    ({1: 0.0}, "keys must be strings"),
    ({"x": {1.0, 2.0}}, "cannot serialize set"),
    ({"x": 1j}, "cannot serialize complex"),
], ids=["nan", "inf-in-list", "int-key", "set", "complex"])
def test_dumps_report_rejects_what_json_cannot_hold(report, match):
    with pytest.raises(ValidationError, match=match):
        dumps_report(report)


def test_dumps_report_round_trips_null_and_empty_containers():
    report = {"none": None, "empty_dict": {}, "empty_list": [], "nested": [{}, [], None]}
    text = dumps_report(report)
    assert json.loads(text) == report
    assert dumps_report(json.loads(text)) == text


def test_dumps_report_writes_arrays_as_nested_float_lists():
    rng = np.random.default_rng(3)
    real = rng.normal(size=(3, 2))
    cplx = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    report = {"vector": real[:, 0], "matrix": real, "ints": np.arange(3), "complex": cplx,
              "empty": np.zeros(0)}
    # the bytes of the same report built from Python floats
    plain = {"vector": [float(x) for x in real[:, 0]],
             "matrix": [[float(x) for x in row] for row in real],
             "ints": [0.0, 1.0, 2.0],
             "complex": {"re": [[float(x) for x in row] for row in cplx.real],
                         "im": [[float(x) for x in row] for row in cplx.imag]},
             "empty": []}
    text = dumps_report(report)
    assert text == dumps_report(plain)
    assert json.loads(text) == plain
    with pytest.raises(ValidationError, match="NaN"):
        dumps_report({"x": np.array([1.0, np.nan])})
    with pytest.raises(ValidationError, match="cannot serialize ndarray"):
        dumps_report({"x": np.array([True, False])})
