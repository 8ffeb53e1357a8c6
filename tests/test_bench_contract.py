"""What perfbench relies on from the package and the acceptance suite.

The benchmark records spans by replacing attributes named in
``tracing.TARGETS``, checks that its instances are the acceptance suite's,
and reads a few ``DualResult`` fields. A change that breaks any of these
fails here instead of only in a benchmark run.
"""

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import os
import sys

import numpy as np

import qcr.cli
import qcr.dual
import qcr.model
from qcr.dual import DualResult, SeparationResult
from qcr.simplex import LpResult

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_module(name):
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, os.path.join(ROOT, "perfbench", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_bench_instances_are_the_acceptance_suites():
    assert load_bench_module("workloads").check_instances(ROOT) == []


def test_bench_trace_targets_resolve():
    for module, attr, _, _ in load_bench_module("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_bench_spans_fire():
    qubit = ["--model", "qubit-full", "--alpha", "0.6"]
    with load_bench_module("tracing").Tracer() as tracer:
        with contextlib.redirect_stdout(io.StringIO()):
            assert qcr.cli.main(["bound", *qubit, "--json"]) == 0
        bound_spans = {s.name for s in tracer.spans}
        with contextlib.redirect_stdout(io.StringIO()):
            assert qcr.cli.main(["dual", *qubit, "--max-rounds", "2", "--seed", "0"]) == 3
        # the dual workloads call the solver through qcr.dual, as here
        model = qcr.model.builtin_model("qubit-full", alpha=0.6)
        qcr.dual.solve_dual(model, np.eye(3), qcr.dual.SolverConfig(max_rounds=2))
    assert {"cli", "serialize", "model.build_model"} <= bound_spans
    cli_runs = [i for i, s in enumerate(tracer.spans) if s.name == "cli"]
    assert any(s.name == "simplex" and s.parent == cli_runs[-1] for s in tracer.spans)
    duals = [s for s in tracer.spans if s.name == "dual"]
    assert [s.counts["rounds"] for s in duals] == [2]
    assert any(s.name == "simplex" and tracer.spans[s.parent].name == "dual" for s in tracer.spans)


def test_results_have_the_fields_the_bench_reads():
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"rounds", "cuts", "status", "optimum", "lp_value"} <= fields(DualResult)
    assert "min_value" in fields(SeparationResult)
    assert "iterations" in fields(LpResult)
