"""Benchmark workloads: inputs made from a seed, one pass of ops, and output checks.

Every op is split in two: ``call`` is the program's work and is the only part
that is timed; ``check`` inspects what the call returned, outside the timing,
and returns a list of failure messages (empty when the output is correct)
plus per-op statistics. Library functions are always looked up through their
module at call time (``qcr.dual.solve_dual``), so that tracing wrappers, when
installed, see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import types
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qcr.cli
import qcr.dual
import qcr.model
import qcr.serialize
from qcr.measurement import optimal_random_bound

# seed 4 reproduces acceptance criterion 04's weight matrices
DEFAULT_SEED = 4
WARMUP_ROUNDS = 3


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict]]


# -- dual workloads ------------------------------------------------------------


def commuting_model_spec(rng: np.random.Generator, d: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """rho = diag(0.8 Dirichlet(1) + 0.2/d) with tangents diag(x - mean x), x ~ N(0, I)."""
    rho = np.diag(0.8 * rng.dirichlet(np.ones(d)) + 0.2 / d).astype(complex)
    tangents = []
    for _ in range(n):
        x = rng.normal(size=d)
        tangents.append(np.diag(x - x.mean()).astype(complex))
    return rho, tangents


@dataclass
class DualInstance:
    name: str
    make_model: Callable[[], qcr.model.StatisticalModel]
    g: np.ndarray
    config: qcr.dual.SolverConfig
    certify: bool


def _dual_op(inst: DualInstance, config: qcr.dual.SolverConfig) -> Op:
    def call():
        model = inst.make_model()
        res = qcr.dual.solve_dual(model, inst.g, config)
        cert = None
        if inst.certify:
            point = qcr.dual.random_model_certificate(model, inst.g)
            cert = qcr.dual.separation_oracle(model, inst.g, point, config)
        return model, res, cert

    def check(out):
        model, res, cert = out
        if inst.certify:
            exact = optimal_random_bound(model, inst.g)
        else:
            # commuting models: the classical bound tr(G J^-1) is attained
            exact = float(np.trace(inst.g @ model.fisher_inverse))
        tol = config.obj_tol
        fails = []
        if not res.optimum <= exact + tol:
            fails.append(f"{inst.name}: optimum {res.optimum!r} above exact {exact!r}")
        if not res.lp_value >= exact - tol:
            fails.append(f"{inst.name}: lp_value {res.lp_value!r} below exact {exact!r}")
        if cert is not None and not cert.min_value >= -config.feas_tol:
            fails.append(f"{inst.name}: certificate residual {cert.min_value!r} below -feas_tol")
        stats = {
            "rounds": res.rounds,
            "converged": res.status == "converged",
            "bracket_rel": (res.lp_value - res.optimum) / abs(exact),
        }
        return fails, stats

    return Op(inst.name, call, check)


class DualWorkload:
    def __init__(self, instances: list[DualInstance]):
        self.instances = instances

    def ops(self) -> list[Op]:
        return [_dual_op(inst, inst.config) for inst in self.instances]

    def warmup(self) -> None:
        """First op with the solver capped at a few rounds: every code path, little work."""
        inst = self.instances[0]
        _dual_op(inst, dataclasses.replace(inst.config, max_rounds=WARMUP_ROUNDS)).call()


def qubit_dual(seed: int) -> DualWorkload:
    """Criterion 04's ten qubit-full solves, each followed by the certificate check."""
    cfg = qcr.dual.SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=0)
    rng = np.random.default_rng(seed)
    instances = []
    for alpha in (0.3, 0.6):
        for k in range(5):
            a = rng.normal(size=(3, 3))
            g = a @ a.T + 0.3 * np.eye(3)
            make = (lambda al=alpha: qcr.model.builtin_model("qubit-full", alpha=al))
            instances.append(DualInstance(f"qubit-full-{alpha}-{k}", make, g, cfg, True))
    return DualWorkload(instances)


def qutrit_diagonal() -> qcr.model.StatisticalModel:
    return qcr.model.builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))


def commuting_dual(seed: int) -> DualWorkload:
    """Criterion 05's diagonal qutrit, then seeded commuting models at d = 4 and d = 8."""
    rng = np.random.default_rng(seed)
    instances = [DualInstance("qutrit-diagonal", qutrit_diagonal, np.eye(2),
                              qcr.dual.SolverConfig(feas_tol=1e-5, obj_tol=1e-5, seed=0), False)]
    capped = qcr.dual.SolverConfig(feas_tol=1e-5, obj_tol=1e-5, seed=0, max_rounds=30)
    for d in (4, 8):
        rho, tangents = commuting_model_spec(rng, d, 3)
        make = (lambda r=rho, t=tangents: qcr.model.build_model(r, t))
        instances.append(DualInstance(f"commuting-d{d}", make, np.eye(3), capped, False))
    return DualWorkload(instances)


# -- closed-form workload ------------------------------------------------------


def _write_model_file(path: str, rho: np.ndarray, tangents: list[np.ndarray]) -> None:
    def block(m):
        return {"re": m.real.tolist(), "im": m.imag.tolist()}

    doc = {"dim": rho.shape[0], "rho": block(rho), "tangent": [block(t) for t in tangents]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _det_witness_ok(rows: np.ndarray, header: list[str], fisher: np.ndarray) -> bool:
    """|det(V J - I) - 1| within 1e-9 plus the determinant's rounding scale 64 eps |X|_F^2.

    Frontier samples with a small weight eigenvalue give X = V J - I entries
    in the thousands, and the identity then holds only to that scale.
    """
    v = rows[:, [header.index(f"V{i}{j}") for i in range(2) for j in range(2)]].reshape(-1, 2, 2)
    x = v @ fisher - np.eye(2)
    tol = 1e-9 + 64.0 * np.finfo(float).eps * np.sum(x * x, axis=(1, 2))
    return bool(np.all(np.abs(rows[:, header.index("det_witness")] - 1.0) <= tol))


class ClosedFormWorkload:
    """Five CLI commands on four models, in-process through qcr.cli.main, all with --seed."""

    LIMITSET_SAMPLES = 2000
    SIMULATE_SAMPLES = 2_000_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        model_file = os.path.join(workdir, "commuting-d4.json")
        # the model is fixed (commuting-dual's d = 4 model at the default seed):
        # simulate's peak memory depends on the model's atom weights, and the
        # seed varies only the commands' sampling
        _write_model_file(model_file, *commuting_model_spec(np.random.default_rng(DEFAULT_SEED), 4, 3))
        # (name, model arguments, Fisher matrix when n = 2, randomness verdict)
        self.models = [
            ("qubit-full", ["--model", "qubit-full", "--alpha", "0.6"], None, True),
            ("qubit-equatorial", ["--model", "qubit-equatorial", "--alpha", "0.3"],
             qcr.model.builtin_model("qubit-equatorial", alpha=0.3).fisher, True),
            ("qutrit-diagonal", ["--model", "qutrit-diagonal", "--probs", "0.5,0.25,0.25"],
             qutrit_diagonal().fisher, False),
            ("commuting-d4", ["--model-file", model_file], None, False),
        ]

    def _op(self, command: str, model) -> Op:
        name, model_args, fisher, is_random = model
        csv_path = os.path.join(self.workdir, f"limitset-{name}.csv")
        argv = [command, *model_args, "--json", "--seed", str(self.seed)]
        if command == "limitset":
            argv += ["--samples", str(self.LIMITSET_SAMPLES), "--csv", csv_path]
        elif command == "simulate":
            argv += ["--samples", str(self.SIMULATE_SAMPLES)]
        expected_code = 1 if command == "check-random" and not is_random else 0

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qcr.cli.main(argv)
            return code, buf.getvalue()

        def check(out):
            code, text = out
            label = f"{command} {name}"
            if code != expected_code:
                return [f"{label}: exit code {code}, expected {expected_code}"], {}
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                return [f"{label}: report is not JSON ({exc})"], {}
            fails = []
            if qcr.serialize.dumps_report(report) != text:
                fails.append(f"{label}: report does not re-serialize byte-identically")
            stats = {}
            if command == "limitset":
                header, rows = _read_csv(csv_path)
                if rows.shape[0] != self.LIMITSET_SAMPLES:
                    fails.append(f"{label}: {rows.shape[0]} CSV rows")
                elif not np.all(rows[:, header.index("min_eig_vs_inverse_fisher")] >= -1e-9):
                    fails.append(f"{label}: frontier sample below the inverse Fisher matrix")
                if fisher is not None and not _det_witness_ok(rows, header, fisher):
                    fails.append(f"{label}: determinant witness off by more than its tolerance")
            elif command == "simulate":
                res = report["results"]
                # deviation_standard_error is the standard error of the raw second
                # moment tr(G E[x x^T]) (G = I here), so compare that moment
                second = res["empirical_deviation"] + float(np.sum(np.square(res["empirical_mean"])))
                gap = abs(second - res["theory_deviation"])
                if not gap <= 5.0 * res["deviation_standard_error"] + 1e-9 * res["theory_deviation"]:
                    fails.append(f"{label}: deviation {gap!r} beyond 5 standard errors")
                stats["samples"] = res["samples"]
            return fails, stats

        return Op(f"{command}:{name}", call, check)

    def ops(self) -> list[Op]:
        commands = ("info", "bound", "check-random", "limitset", "simulate")
        return [self._op(c, m) for m in self.models for c in commands]

    def warmup(self) -> None:
        self.ops()[0].call()


def make_workload(name: str, seed: int, workdir: str):
    if name == "qubit-dual":
        return qubit_dual(seed)
    if name == "commuting-dual":
        return commuting_dual(seed)
    if name == "closed-form":
        return ClosedFormWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")



# -- instance self-check ---------------------------------------------------------


def check_instances(root: str) -> list[str]:
    """The default-seed instances must be the acceptance suite's.

    Runs criteria 04 and 05 from tests/test_acceptance.py with their
    ``solve_dual`` replaced by a recorder, and compares the recorded
    (model, G, config) triples with this benchmark's instances.
    """
    path = os.path.join(root, "tests", "test_acceptance.py")
    if not os.path.exists(path):
        return [f"self-check: {path} not found"]
    spec = importlib.util.spec_from_file_location("_perfbench_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    recorded = []

    def recorder(model, g, config=None):
        recorded.append((model, np.asarray(g), config))
        return types.SimpleNamespace(optimum=float("nan"))

    runs = {}
    saved = module.solve_dual
    module.solve_dual = recorder
    try:
        for key, test in (("04", module.test_criterion_04_strong_duality_random_model),
                          ("05", module.test_criterion_05_nonrandom_model_separation)):
            recorded.clear()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(AssertionError):
                test()
            runs[key] = list(recorded)
    finally:
        module.solve_dual = saved

    def same(inst: DualInstance, rec) -> bool:
        model, g, cfg = rec
        ours = inst.make_model()
        return (np.array_equal(g, inst.g) and cfg == inst.config
                and np.array_equal(model.rho.matrix, ours.rho.matrix)
                and len(model.tangent) == len(ours.tangent)
                and all(np.array_equal(a, b) for a, b in zip(model.tangent, ours.tangent)))

    fails = []
    qubit = qubit_dual(DEFAULT_SEED).instances
    if len(runs["04"]) != len(qubit) or not all(map(same, qubit, runs["04"])):
        fails.append("self-check: qubit-dual instances differ from criterion 04")
    commuting = commuting_dual(DEFAULT_SEED).instances
    if len(runs["05"]) != 1 or not any(same(inst, runs["05"][0]) for inst in commuting):
        fails.append("self-check: commuting-dual does not contain criterion 05's instance")
    return fails
