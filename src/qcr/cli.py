"""Command-line surface: model ingestion, dispatch, report emission.

Exit codes: 0 success (and checker-true), 1 checker-false, 2 input error,
3 solver unconverged or failed. Reports go to stdout as text or, with
--json, as a deterministic JSON document; diagnostics go to stderr, with
verbosity selected by the QCR_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .dual import SolverConfig, random_model_certificate, separation_oracle, solve_dual, spur
from .errors import NumericError, QcrError, ValidationError
from .measurement import (
    covariance,
    frontier_witnesses_2d,
    optimal_random_bound,
    optimal_random_measurement,
    require_weight_matrix,
    sample_frontier,
    simulate,
)
from .model import StatisticalModel, build_model, builtin_model
from .operators import DensityOperator, require_hermitian
from .randomness import is_random_model
from .serialize import dumps_report, write_csv

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNCONVERGED = 3

FILE_HERMITIAN_TOL = 1e-9

log = logging.getLogger("qcr.cli")


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: expected numbers: {exc}") from exc


def _parse_complex_matrix(node, dim: int, name: str) -> np.ndarray:
    if not isinstance(node, dict) or "re" not in node or "im" not in node:
        raise ValidationError(f"{name}: expected an object with 're' and 'im' matrices")
    re = _float_array(node["re"], f"{name}.re")
    im = _float_array(node["im"], f"{name}.im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(f"{name}: expected {dim}x{dim} 're' and 'im' blocks")
    # not re + 1j * im: an infinite imaginary part would warn in 1j * inf
    h = re.astype(complex)
    h.imag = im
    return require_hermitian(h, tol=FILE_HERMITIAN_TOL, name=name)


def _read_json(path: str, kind: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {kind} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def load_model_file(path: str) -> StatisticalModel:
    doc = _read_json(path, "model")
    if not isinstance(doc, dict) or "dim" not in doc:
        raise ValidationError("model file: expected an object with 'dim', 'rho' and 'tangent'")
    dim = doc["dim"]
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    # bool is an int subclass: true would read as 1
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"model file: 'dim' must be a positive integer, got {doc['dim']!r}")
    rho = _parse_complex_matrix(doc.get("rho"), dim, "rho")
    tangent_nodes = doc.get("tangent")
    if not isinstance(tangent_nodes, list) or not tangent_nodes:
        raise ValidationError("model file: 'tangent' must be a nonempty list")
    tangents = [
        _parse_complex_matrix(node, dim, f"tangent[{i}]") for i, node in enumerate(tangent_nodes)
    ]
    return build_model(DensityOperator(rho), tangents)


def load_weight_file(path: str, n: int) -> np.ndarray:
    doc = _read_json(path, "weight")
    if not isinstance(doc, dict) or "g" not in doc:
        raise ValidationError("weight file: expected an object with a 'g' matrix")
    return require_weight_matrix(_float_array(doc["g"], "weight file 'g'"), n)


def _resolve_model(args) -> StatisticalModel:
    # argparse requires exactly one of --model and --model-file; a built-in
    # model takes one of --alpha and --probs, a model file neither
    takes = {"qutrit-diagonal": "--probs"}.get(args.model, "--alpha" if args.model else None)
    for option, value in (("--alpha", args.alpha), ("--probs", args.probs)):
        if value is not None and option != takes:
            raise ValidationError(f"{option} does not apply to {args.model or 'a model file'}")
    if args.model_file:
        return load_model_file(args.model_file)
    if args.model == "qutrit-diagonal":
        if not args.probs:
            raise ValidationError("qutrit-diagonal needs --probs P1,P2,P3")
        try:
            probs = [float(p) for p in args.probs.split(",")]
        except ValueError as exc:
            raise ValidationError(f"--probs: expected comma-separated numbers, got {args.probs!r}") from exc
        return builtin_model(args.model, probs=probs)
    if args.alpha is None:
        raise ValidationError(f"{args.model} needs --alpha")
    return builtin_model(args.model, alpha=args.alpha)


def _resolve_weight(args, model: StatisticalModel) -> np.ndarray:
    if args.g_file:
        return load_weight_file(args.g_file, model.n)
    return np.eye(model.n)


def _model_summary(model: StatisticalModel) -> dict:
    return {
        "dim": model.dim,
        "n": model.n,
        "rho_eigenvalues": np.linalg.eigvalsh(model.rho.matrix),
        "fisher_eigenvalues": np.linalg.eigvalsh(model.fisher),
    }


def _fmt_matrix(m: np.ndarray) -> str:
    return np.array2string(np.asarray(m), precision=10, suppress_small=True)


@dataclass
class Outcome:
    """What one command computed: report results, text lines, and how it ended."""

    results: dict
    text: list[str]
    status: str = "ok"
    code: int = EXIT_OK
    seed: int | None = None  # in the report only for commands that use one


def run_command(args) -> int:
    """Resolve the model, run ``args.command``, and emit its report as text or JSON.

    The command body ``cmd_<command>`` is looked up in this module at call
    time, so a patched ``qcr.cli.cmd_*`` takes effect on the next call.
    """
    start = time.perf_counter()
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    model = _resolve_model(args)
    out = globals()["cmd_" + args.command.replace("-", "_")](args, model)
    report = {"command": args.command, "model": _model_summary(model)}
    if out.seed is not None:
        report["seed"] = out.seed
    report.update(results=out.results, status=out.status,
                  wall_time_s=time.perf_counter() - start)
    if args.json:
        sys.stdout.write(dumps_report(report))
    else:
        for line in out.text:
            print(line)
    return out.code


def cmd_info(args, model: StatisticalModel) -> Outcome:
    results = {
        "fisher": model.fisher,
        "fisher_inverse": model.fisher_inverse,
    }
    return Outcome(results, [
        f"dim = {model.dim}, n = {model.n}",
        f"rho eigenvalues: {np.linalg.eigvalsh(model.rho.matrix)}",
        "fisher matrix J:",
        _fmt_matrix(model.fisher),
        "inverse J:",
        _fmt_matrix(model.fisher_inverse),
    ])


def cmd_bound(args, model: StatisticalModel) -> Outcome:
    g = _resolve_weight(args, model)
    bound = optimal_random_bound(model, g)
    classical = float(np.trace(g @ model.fisher_inverse))
    results = {"random_bound": bound, "classical_bound": classical, "gap": bound - classical}
    return Outcome(results, [
        f"random-measurement bound : {bound:.12g}",
        f"classical reference      : {classical:.12g}",
        f"gap                      : {bound - classical:.12g}",
    ])


def cmd_dual(args, model: StatisticalModel) -> Outcome:
    g = _resolve_weight(args, model)
    kwargs = {}
    if args.tol is not None:
        kwargs["feas_tol"] = args.tol
        kwargs["obj_tol"] = args.tol
    if args.max_rounds is not None:
        kwargs["max_rounds"] = args.max_rounds
    config = SolverConfig(**kwargs)
    res = solve_dual(model, g, config)
    results = {
        "optimum": res.optimum,
        "lp_value": res.lp_value,
        "rounds": res.rounds,
        "n_cuts": len(res.cuts),
        "feasibility_residual": res.feasibility,
        "solver_status": res.status,
        "certified": res.certified,
        "dual_a": res.dual.a,
        "dual_s": res.dual.s,
    }
    text = [
        f"dual optimum        : {res.optimum:.12g}",
        f"lp relaxation value : {res.lp_value:.12g}",
        f"rounds / cuts       : {res.rounds} / {len(res.cuts)}",
        f"feasibility residual: {res.feasibility:.3e}",
        f"status              : {res.status}",
        f"certified           : {'yes' if res.certified else 'no'}",
    ]
    if args.certify:
        ran = is_random_model(model)
        if ran:
            cert = random_model_certificate(model, g)
            cert_feas = separation_oracle(model, g, cert, config)
            results["certificate"] = {
                "applicable": True,
                "spur": spur(model, cert),
                "feasibility_residual": cert_feas.min_value,
            }
            text.append(f"certificate spur    : {spur(model, cert):.12g} "
                        f"(residual {cert_feas.min_value:.3e})")
        else:
            results["certificate"] = {"applicable": False, "witness_score": ran.score}
            text.append("certificate         : not applicable (randomness condition fails)")
    if res.status == "converged":
        return Outcome(results, text)
    return Outcome(results, text, "unconverged", EXIT_UNCONVERGED)


def cmd_check_random(args, model: StatisticalModel) -> Outcome:
    rep = is_random_model(model)
    results = {"verdict": rep.verdict, "score": rep.score}
    text = [f"random model: {rep.verdict} (score {rep.score:.3e})"]
    if rep.verdict:
        results["constant"] = rep.constant
        text += ["constant block C:", _fmt_matrix(rep.constant)]
        return Outcome(results, text, "true")
    results["witness"] = list(rep.witness)
    text.append(f"witness block: {rep.witness}")
    return Outcome(results, text, "false", EXIT_FALSE)


def _sampling_args(args, command: str) -> int:
    """Check --samples and return the seed; JSON reports refuse to pick a seed silently."""
    if args.samples is None or args.samples < 1:
        raise ValidationError(f"{command} needs --samples >= 1")
    if args.seed is None:
        if args.json:
            raise ValidationError(f"{command} needs an explicit --seed with --json")
        return 0
    return args.seed


def cmd_limitset(args, model: StatisticalModel) -> Outcome:
    seed = _sampling_args(args, "limitset")
    samples = sample_frontier(model, args.samples, seed)
    n = model.n
    header = [f"V{i}{j}" for i in range(n) for j in range(n)] + ["min_eig_vs_inverse_fisher"]
    min_eigs = np.linalg.eigvalsh(samples - model.fisher_inverse)[:, 0]
    columns = [samples.reshape(len(samples), n * n), min_eigs[:, None]]
    if n == 2:
        header.append("det_witness")
        dets = frontier_witnesses_2d(model, samples)[1]
        columns.append(dets[:, None])
    rows = np.hstack(columns)
    if args.csv:
        try:
            write_csv(args.csv, header, rows)
        except OSError as exc:
            raise ValidationError(f"cannot write CSV to {args.csv}: {exc}") from exc
    results = {
        "samples": args.samples,
        "csv": args.csv,
        "min_eig_worst": float(min_eigs.min()),
    }
    text = [
        f"sampled {args.samples} frontier covariances (seed {seed})",
        f"worst min-eig of V - J^-1: {results['min_eig_worst']:.3e}",
    ]
    if n == 2:
        results["det_witness_max_error"] = float(np.abs(dets - 1.0).max())
        text.append(f"max |det witness - 1|: {results['det_witness_max_error']:.3e}")
    if args.csv:
        text.append(f"csv written to {args.csv}")
    return Outcome(results, text, seed=seed)


def cmd_simulate(args, model: StatisticalModel) -> Outcome:
    g = _resolve_weight(args, model)
    seed = _sampling_args(args, "simulate")
    p = optimal_random_measurement(model, g)
    sim = simulate(model, p, args.samples, seed, weight=g)
    theory_cov = covariance(model, p)
    theory_dev = float(np.trace(g @ theory_cov))
    se_mean = np.sqrt(np.diag(sim.cov) / sim.n_samples)
    emp_dev = float(np.trace(g @ sim.cov))
    results = {
        "samples": sim.n_samples,
        "empirical_mean": sim.mean,
        "mean_standard_errors": se_mean,
        "empirical_cov": sim.cov,
        "empirical_deviation": emp_dev,
        "second_moment": sim.quad_mean,
        "deviation_standard_error": sim.quad_se,
        "theory_deviation": theory_dev,
        "wide_uncertainty": bool(sim.n_samples < 100),
    }
    text = [
        f"samples: {sim.n_samples}",
        f"empirical mean    : {np.array2string(sim.mean, precision=6)}",
        f"mean standard err : {np.array2string(se_mean, precision=6)}",
        f"empirical tr(G V) : {emp_dev:.6g}",
        f"empirical tr(G E[xx^T]) : {sim.quad_mean:.6g} +- {sim.quad_se:.3g}",
        f"theoretical tr(G V): {theory_dev:.6g}",
    ]
    if results["wide_uncertainty"]:
        text.append("warning: sample count is tiny, uncertainty is wide")
    return Outcome(results, text, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``qcr`` command line; ``main`` builds one per process and reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=["qubit-full", "qubit-equatorial", "qutrit-diagonal"])
    source.add_argument("--model-file")
    common.add_argument("--alpha", type=float, help="for qubit-full and qubit-equatorial")
    common.add_argument("--probs", help="comma-separated probabilities for qutrit-diagonal")
    common.add_argument("--json", action="store_true")
    common.add_argument("--seed", type=int)

    parser = argparse.ArgumentParser(
        prog="qcr",
        description="Attainable covariance bounds for finite-dimensional quantum models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[common])
                for name in ("info", "bound", "dual", "check-random", "limitset", "simulate")}
    for name in ("bound", "dual", "simulate"):
        commands[name].add_argument("--g-file")
    for name in ("limitset", "simulate"):
        commands[name].add_argument("--samples", type=int)
    commands["limitset"].add_argument("--csv")
    commands["dual"].add_argument("--tol", type=float)
    commands["dual"].add_argument("--certify", action="store_true")
    commands["dual"].add_argument("--max-rounds", type=int)
    return parser


# parse_args returns a fresh namespace and the parser holds no per-call
# state, so one parser serves every call in a process
_parser = functools.cache(build_parser)


class _StderrHandler(logging.StreamHandler):
    """Writes to the ``sys.stderr`` current at emit time, so a redirected stderr gets the lines."""

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stderr
        super().emit(record)


_log_handler = _StderrHandler()
_log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _configure_logging() -> None:
    """Set the ``qcr`` loggers' level from QCR_LOG, read on every call; the handler goes on once."""
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("QCR_LOG", "error").lower(), logging.ERROR
    )
    logger = logging.getLogger("qcr")
    logger.setLevel(level)
    if _log_handler not in logger.handlers:
        logger.addHandler(_log_handler)


def main(argv=None) -> int:
    """Run one ``qcr`` command and return its exit code (0/1/2/3).

    The argument parser is built on the first call and reused by later calls
    in the same process; QCR_LOG is read on every call.
    """
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return run_command(args)
    except QcrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCONVERGED if isinstance(exc, NumericError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
