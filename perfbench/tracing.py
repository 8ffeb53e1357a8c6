"""Spans around the package's layers, recorded from outside the package.

A layer is timed by replacing one of its public functions, in the module
where the caller looks it up, with a wrapper that records a span (name,
start, end, parent) and a few counts taken from the arguments and the
result. No source file of the package changes. Spans stay in memory; the
benchmark writes them out when the run ends. ``Tracer`` is a context
manager: leaving it restores every original function.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

WRAPPED_MARK = "__perfbench_wrapped__"


def _simplex_counts(args, out):
    return {"pivots": out.iterations, "rows": len(args[1])}


def _dual_counts(args, out):
    return {"rounds": out.rounds, "cuts": len(out.cuts), "converged": out.status == "converged"}


def _simulate_counts(args, out):
    return {"samples": out.n_samples}


def _dumps_counts(args, out):
    return {"bytes": len(out.encode())}


def _csv_counts(args, out):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts): the module is the one the caller
# looks the function up in
TARGETS = (
    ("qcr.dual", "solve_boxed_lp", "simplex", _simplex_counts),
    ("qcr.dual", "solve_dual", "dual", _dual_counts),
    ("qcr.dual", "separation_oracle", "dual.separation_oracle", None),
    ("qcr.cli", "main", "cli", None),
    ("qcr.cli", "simulate", "measurement.simulate", _simulate_counts),
    ("qcr.cli", "sample_frontier", "measurement.sample_frontier", None),
    ("qcr.cli", "is_random_model", "randomness.is_random_model", None),
    ("qcr.model", "build_model", "model.build_model", None),
    ("qcr.cli", "build_model", "model.build_model", None),
    ("qcr.cli", "dumps_report", "serialize", _dumps_counts),
    ("qcr.cli", "write_csv", "serialize", _csv_counts),
)


def installed_wrappers() -> list[str]:
    """Targets currently replaced by a tracing wrapper (empty outside a trace)."""
    found = []
    for module, attr, _, _ in TARGETS:
        if hasattr(getattr(importlib.import_module(module), attr, None), WRAPPED_MARK):
            found.append(f"{module}.{attr}")
    return found


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, out)
            return out

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def __enter__(self) -> Tracer:
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time, self time and counts from one traced phase."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    rows_max = 0
    for s, kids in zip(spans, child_time):
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        own[s.name] += s.end - s.start - kids
        for key, val in s.counts.items():
            counts[f"{s.name}.{key}"] += val
        if s.name == "simplex":
            rows_max = max(rows_max, s.counts["rows"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "simplex.calls": calls["simplex"],
        "simplex.busy_s": busy["simplex"],
        "simplex.pivots": counts["simplex.pivots"],
        "simplex.pivots_per_call": ratio(counts["simplex.pivots"], calls["simplex"]),
        "simplex.rows_max": rows_max,
        "simplex.share_of_dual": ratio(busy["simplex"], busy["dual"]),
        "dual.solves": calls["dual"],
        "dual.busy_s": busy["dual"],
        "dual.self_s": own["dual"],
        "dual.rounds": counts["dual.rounds"],
        "dual.self_s_per_round": ratio(own["dual"], counts["dual.rounds"]),
        "dual.cuts_final": counts["dual.cuts"],
        "dual.converged_ratio": ratio(counts["dual.converged"], calls["dual"]),
        "dual.separation_oracle.calls": calls["dual.separation_oracle"],
        "dual.separation_oracle.busy_s": busy["dual.separation_oracle"],
        "measurement.simulate.busy_s": busy["measurement.simulate"],
        "measurement.simulate.samples": counts["measurement.simulate.samples"],
        "measurement.sample_frontier.busy_s": busy["measurement.sample_frontier"],
        "randomness.is_random_model.calls": calls["randomness.is_random_model"],
        "randomness.is_random_model.busy_s": busy["randomness.is_random_model"],
        "model.build_model.calls": calls["model.build_model"],
        "model.build_model.busy_s": busy["model.build_model"],
        "serialize.busy_s": busy["serialize"],
        "serialize.bytes": counts["serialize.bytes"],
        "cli.self_s": own["cli"],
        "trace.spans": len(spans),
    }
