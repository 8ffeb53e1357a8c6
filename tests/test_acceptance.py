"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from qcr.dual import SolverConfig, dual_submodel_inequality, solve_dual
from qcr.measurement import (
    covariance,
    deviation,
    optimal_covariance,
    optimal_random_bound,
    optimal_random_measurement,
    random_certificate_gap,
    frontier_witnesses_2d,
    sample_frontier,
    sample_locally_unbiased,
    simulate,
)
from qcr.model import PAULI_1, build_model, builtin_model
from qcr.operators import DensityOperator, sqrt_psd
from qcr.randomness import is_random_model, qubit_constant_check


def _report(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_unit_weight_operator(model, rng):
    n = model.n
    a = rng.normal(size=(n, n))
    p = a @ a.T + 0.2 * np.eye(n)
    w = model.fisher_isqrt @ p @ model.fisher_sqrt
    return w / np.trace(w)


def test_criterion_01_qubit_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for alpha in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.9):
        m = builtin_model("qubit-full", alpha=alpha)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.sqrt(v @ m.fisher @ v)
            ok = ok and qubit_constant_check(m, v)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"unit-tangent identity over 6 alphas x 50 vectors in {elapsed:.2f}s", ok)


def test_criterion_02_normalized_weight_deviation():
    m = builtin_model("qubit-full", alpha=0.6)
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(20):
        w = _random_unit_weight_operator(m, rng)
        g = w.T @ m.fisher @ w
        p = optimal_random_measurement(m, g)
        dev = deviation(m, g, p)
        ok = ok and abs(dev - 1.0) <= 1e-10
        cert = random_certificate_gap(m, g, p, 2.0 * w, -1.0)
        ok = ok and abs(cert.gap) <= 1e-10
    _report(2, "20 unit-trace weight operators: deviation 1 and zero certificate gap", ok)


def test_criterion_03_closed_form_bound():
    m = builtin_model("qubit-full", alpha=0.6)
    b1 = optimal_random_bound(m, np.eye(3))
    b2 = optimal_random_bound(m, m.fisher)
    ok = abs(b1 - 7.84) <= 1e-12 and abs(b2 - 9.0) <= 1e-12
    _report(3, f"closed-form bounds {b1!r} and {b2!r}", ok)


def test_criterion_04_strong_duality_random_model():
    start = time.perf_counter()
    cfg = SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=0)
    rng = np.random.default_rng(4)
    worst = 0.0
    for alpha in (0.3, 0.6):
        m = builtin_model("qubit-full", alpha=alpha)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            g = a @ a.T + 0.3 * np.eye(3)
            sol = solve_dual(m, g, cfg)
            worst = max(worst, abs(sol.optimum - optimal_random_bound(m, g)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 30.0
    _report(4, f"10 dual solves, worst gap {worst:.2e}, {elapsed:.1f}s", ok)


def test_criterion_05_nonrandom_model_separation():
    m = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    cfg = SolverConfig(feas_tol=1e-5, obj_tol=1e-5, seed=0)
    sol = solve_dual(m, np.eye(2), cfg)
    mid = m.fisher_isqrt @ np.eye(2) @ m.fisher_isqrt
    random_bound = float(np.trace(sqrt_psd(mid).real)) ** 2
    ok = abs(sol.optimum - 0.4375) <= 1e-3
    ok = ok and abs(random_bound - 0.791) <= 1e-3
    ok = ok and random_bound - sol.optimum >= 0.3
    _report(5, f"classical optimum {sol.optimum:.6f} vs random bound {random_bound:.6f}", ok)


def test_criterion_06_randomness_checker():
    ok = True
    for alpha in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.9):
        m = builtin_model("qubit-full", alpha=alpha)
        rep = is_random_model(m)
        ok = ok and bool(rep)
        ok = ok and np.linalg.norm(rep.constant - (np.eye(2) - m.rho.matrix)) <= 1e-8
    # single-parameter models are always random
    rho = DensityOperator((np.eye(2) + 0.4 * np.diag([1.0, -1.0])) / 2)
    ok = ok and bool(is_random_model(build_model(rho, [PAULI_1 / 2])))
    q3 = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    sub = build_model(q3.rho, [q3.tangent[0]])
    ok = ok and bool(is_random_model(sub))
    rep = is_random_model(q3)
    ok = ok and not rep.verdict and rep.witness is not None and rep.score > 1e-8
    _report(6, "random on qubits and n=1 models, refused on the diagonal qutrit", ok)


def test_criterion_07_frontier():
    m = builtin_model("qubit-equatorial", alpha=0.6)
    samples = sample_frontier(m, 1000, seed=7)
    dets = frontier_witnesses_2d(m, samples)[1]
    ok = bool(np.all(np.abs(dets - 1.0) <= 1e-9))
    ok = ok and bool(np.all(np.linalg.eigvalsh(samples - m.fisher_inverse)[:, 0] >= -1e-9))
    _report(7, "1000 frontier samples: determinant witness and matrix ordering", ok)


def test_criterion_08_weak_duality_suite():
    m = builtin_model("qubit-full", alpha=0.6)
    g = np.eye(3)
    cfg = SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=8)
    sol = solve_dual(m, g, cfg)
    rng = np.random.default_rng(8)
    min_dev = np.inf
    for _ in range(1000):
        p = sample_locally_unbiased(m, rng)
        min_dev = min(min_dev, deviation(m, g, p))
    max_spur = max(rec.shifted_value for rec in sol.trace)
    ok = max_spur <= min_dev + 1e-9
    # no sampled measurement beats the closed-form optimum either
    ok = ok and min_dev >= optimal_random_bound(m, g) - 1e-9
    _report(8, f"max visited spur {max_spur:.6f} <= min deviation {min_dev:.6f}", ok)


def test_criterion_09_pareto_property():
    m = builtin_model("qubit-full", alpha=0.6)
    rng = np.random.default_rng(9)
    samples = sample_frontier(m, 500, seed=9)
    ok = True
    checked = 0
    for t in range(10):
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.25 * np.eye(3)
        q = optimal_covariance(m, g)
        pool = [*samples, q]  # the image point itself keeps the check non-vacuous
        for v in pool:
            if np.linalg.eigvalsh(q - v)[0] >= -1e-8:
                checked += 1
                ok = ok and np.linalg.norm(q - v) <= 1e-8 * (1.0 + np.linalg.norm(q))
    ok = ok and checked >= 10
    _report(9, f"no sampled covariance strictly dominates the frontier map ({checked} hits)", ok)


def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    m = builtin_model("qubit-full", alpha=0.6)
    g = np.eye(3)
    p = optimal_random_measurement(m, g)
    sim1 = simulate(m, p, 100_000, seed=10, weight=g)
    sim2 = simulate(m, p, 100_000, seed=10, weight=g)
    v = covariance(m, p)
    se = np.sqrt(np.diag(v) / sim1.n_samples)
    ok = bool(np.all(np.abs(sim1.mean) <= 5 * se))
    ok = ok and abs(sim1.quad_mean - 7.84) <= 5 * sim1.quad_se
    ok = ok and np.array_equal(sim1.mean, sim2.mean) and np.array_equal(sim1.cov, sim2.cov)
    ok = ok and sim1.quad_mean == sim2.quad_mean
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(10, f"1e5-sample run reproduces moments bit-identically in {elapsed:.1f}s", ok)


def test_criterion_11_submodel_monotonicity():
    m = builtin_model("qubit-full", alpha=0.6)
    cfg = SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=11)
    res = dual_submodel_inequality(m, (0, 1), np.eye(2), cfg)
    ok = res.holds and res.opt_sub <= res.opt_full + 1e-3
    _report(11, f"submodel {res.opt_sub:.6f} <= lifted full {res.opt_full:.6f} + 1e-3", ok)
