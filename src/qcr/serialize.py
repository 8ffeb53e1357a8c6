"""Report serialization: JSON with 17-significant-digit floats, and CSV.

The JSON writer is deliberately tiny and deterministic so that parsing an
emitted report and re-serializing it reproduces the bytes exactly. It
writes a real NumPy array as nested lists of floats and a complex one as
{"re": ..., "im": ...}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError

FLOAT_FORMAT = ".17g"
CSV_CHUNK_ROWS = 256


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValidationError("reports must not contain NaN or infinite values")
    if x == 0.0:
        x = 0.0  # drop the sign of negative zero so round-trips stay byte-stable
    return format(x, FLOAT_FORMAT)


def _serialize(obj, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValidationError(f"report keys must be strings, got {key!r}")
            pieces.append(f"{pad}  {json.dumps(key)}: ")
            _serialize(val, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "iufc":
        if obj.dtype.kind == "c":
            _serialize({"re": obj.real, "im": obj.imag}, indent, pieces)
        else:
            _serialize(obj.astype(float).tolist(), indent, pieces)
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, val in enumerate(obj):
            pieces.append(pad + "  ")
            _serialize(val, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(report: dict) -> str:
    pieces: list[str] = []
    _serialize(report, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_csv(path: str, header: list[str], rows) -> None:
    """CSV with one header row, 17-significant-digit decimals and LF endings.

    ``rows`` is a 2-D real array with one column per header field. It is
    validated before the file is opened: a wrong shape or a NaN or infinite
    value raises ``ValidationError`` and writes nothing. Each value is
    written as ``_format_float`` writes it, negative zero as 0. Rows are
    formatted and written ``CSV_CHUNK_ROWS`` at a time, so memory beyond
    the array does not grow with its length.
    """
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"CSV rows must be real numbers: {exc}") from exc
    if a.ndim != 2 or a.shape[1] != len(header):
        raise ValidationError(f"CSV rows must be a 2-D array with {len(header)} columns, "
                              f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("reports must not contain NaN or infinite values")
    # -0.0 + 0.0 is +0.0 and x + 0.0 is x for every other x
    a = a + 0.0
    line = ",".join([f"%{FLOAT_FORMAT}"] * a.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, a.shape[0], CSV_CHUNK_ROWS):
            chunk = a[start: start + CSV_CHUNK_ROWS].tolist()
            fh.write("".join([line % tuple(row) for row in chunk]))
