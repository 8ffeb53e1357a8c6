"""Benchmark of the qcr library: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are ``qubit-dual``, ``commuting-dual`` and ``closed-form`` (see
workloads.py and README.md). A run repeats whole passes over the workload's
ops and starts another pass only while it can expect to finish within
``--seconds``; at least one pass always runs.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing wrapper installed. ``setup_s`` is the median over several set-ups:
this process's own and a few more in child processes run after the timed
phase. With ``--trace 1`` the run makes an untraced phase and then a traced
phase over the same passes, and reports per-layer metrics from the traced
one; ``trace.overhead`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: environment, extra metrics and failure messages. Both,
and the spans of a traced run, are also written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOADS = ("qubit-dual", "commuting-dual", "closed-form")


@dataclass
class OpRecord:
    name: str
    seconds: float
    failures: list[str]
    stats: dict


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4,
                        help="input seed; 4 (workloads.DEFAULT_SEED) gives the acceptance instances")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s samples)")
    return parser.parse_args(argv)


def set_up(args, workdir: str):
    """Import the package, build the workload's inputs and run one warm-up op."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, workdir)
    wl.warmup()
    return wl, time.perf_counter() - start


def run_phase(ops, budget: float | None, passes: int | None = None) -> tuple[list[OpRecord], int]:
    """Whole passes over ``ops``: a fixed count, or as many as fit in ``budget`` seconds."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
                seconds = time.perf_counter() - t0
                failures, stats = op.check(out)
            except Exception as exc:  # a failing op is counted, never fatal
                seconds = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                failures, stats = [f"{op.name}: {type(exc).__name__}: {exc}"], {}
            records.append(OpRecord(op.name, seconds, failures, stats))
        done += 1
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif now - start + (now - pass_start) > budget:
            break
    return records, done


def setup_samples(args, first: float) -> list[float]:
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True, cwd=ROOT)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def op_metrics(records: list[OpRecord]) -> dict[str, float]:
    times = sorted(r.seconds for r in records)
    n = len(times)
    out = {
        "ops": n,
        "ops_per_s": n / sum(times),
        "op_s_p50": statistics.median(times),
        "fail_share": sum(1 for r in records if r.failures) / n,
    }
    # the highest percentile with at least ten ops beyond it
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            out.update(op_s_tail=times[math.ceil(pct / 100.0 * n) - 1], op_s_tail_pct=pct)
            break
    else:
        out.update(op_s_tail=0.0, op_s_tail_pct=0.0)
    brackets = [r.stats["bracket_rel"] for r in records if "bracket_rel" in r.stats]
    out["bracket_rel_max"] = max(brackets, default=0.0)
    out["unconverged"] = sum(1 for r in records if r.stats.get("converged") is False)
    sim = [r for r in records if "samples" in r.stats]
    out["mc_samples_per_s"] = (sum(r.stats["samples"] for r in sim) / sum(r.seconds for r in sim)
                               if sim else 0.0)
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units from BENCHMARK.json: end_to_end untraced, per_layer traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "qcr")):
        print(f"error: no qcr sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl, setup_s = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import tracing
        import workloads

        ops = wl.ops()
        problems = [f"tracing wrapper installed before the timed phase: {w}"
                    for w in tracing.installed_wrappers()]
        spans = None
        if args.trace == 0:
            records, passes = run_phase(ops, args.seconds)
            problems += [f"tracing wrapper installed after the timed phase: {w}"
                         for w in tracing.installed_wrappers()]
            timed = op_metrics(records)
            samples = setup_samples(args, setup_s)
            metrics = {
                "setup_s": statistics.median(samples),
                "ops_per_s": timed["ops_per_s"],
                "peak_rss_mb": peak_rss_mb(),
            }
            detail = {"passes": passes, "setup_samples": samples, **timed}
        else:
            records, passes = run_phase(ops, args.seconds / 2.0)
            untraced = op_metrics(records)
            with tracing.Tracer() as tracer:
                traced_records, _ = run_phase(ops, None, passes=passes)
            overhead = (sum(r.seconds for r in traced_records) / sum(r.seconds for r in records)) - 1.0
            problems += [f"tracing wrapper left installed: {w}" for w in tracing.installed_wrappers()]
            problems += [f"trace target missing: {t}" for t in tracer.missing]
            records += traced_records
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["trace.overhead"] = overhead
            for key in ("fail_share", "bracket_rel_max", "unconverged", "mc_samples_per_s",
                        "op_s_p50", "op_s_tail", "op_s_tail_pct", "ops"):
                metrics[key] = untraced[key]
            detail = {"passes": passes}
            spans = tracer.dump()
        problems += workloads.check_instances(ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    declared = declared_metrics(args.trace)
    problems += [f"metric {k} is not declared in BENCHMARK.json" for k in metrics if k not in declared]
    problems += [f"declared metric {k} was not measured" for k in declared if k not in metrics]
    failed = sum(1 for r in records if r.failures)
    failures = [msg for r in records for msg in r.failures]
    detail.update(environment=environment(args), problems=problems, failures=failures[:20])
    result = {"correct": failed == 0 and not problems, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics}}
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result,
                   "ops": [[r.name, r.seconds, r.stats] for r in records]}, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
