"""What perfbench relies on from the package and the acceptance suite.

The benchmark records spans by replacing attributes named in
``tracing.TARGETS``, checks that its instances are the acceptance suite's,
and reads a few ``DualResult`` fields. A change that breaks any of these
fails here instead of only in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import os
import sys

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


def test_results_have_the_fields_the_bench_reads():
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"rounds", "cuts", "status", "optimum", "lp_value"} <= fields(DualResult)
    assert "min_value" in fields(SeparationResult)
    assert "iterations" in fields(LpResult)
