import time
import tracemalloc

import numpy as np
import pytest

import qcr.dual
import qcr.simplex
from qcr.dual import (
    DualPoint,
    SolverConfig,
    _Cuts,
    _Engine,
    _sphere_min,
    dual_submodel_inequality,
    random_model_certificate,
    residual,
    separation_oracle,
    solve_dual,
    spur,
)
from qcr.errors import ValidationError
from qcr.measurement import (
    deviation,
    optimal_random_bound,
    optimal_random_measurement,
    optimal_weight_operator,
    sample_frontier,
    sample_locally_unbiased,
    simulate,
)
from qcr.model import PAULI_1, PAULI_2, PAULI_3, build_model, builtin_model, cotangent_operator
from qcr.operators import DensityOperator

from helpers import random_model

CFG = SolverConfig(feas_tol=1e-5, obj_tol=1e-5, seed=1)


def qubit(alpha=0.6):
    return builtin_model("qubit-full", alpha=alpha)


@pytest.fixture(scope="module")
def qubit_solution():
    m = qubit()
    return m, solve_dual(m, np.eye(3), CFG)


@pytest.fixture(scope="module")
def qutrit_solution():
    m = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    return m, solve_dual(m, np.eye(2), CFG)


# -- residual and objective -----------------------------------------------------

def test_residual_zero_multiplier_is_psd():
    m = qubit()
    zero = DualPoint(np.zeros((3, 3)), np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        xi = rng.normal(size=3)
        r = residual(m, np.eye(3), zero, xi)
        assert np.linalg.eigvalsh(r)[0] >= -1e-12


def test_residual_at_zero_tangent_is_minus_s():
    m = qubit()
    s = np.array([[0.3, 0.1j], [-0.1j, -0.2]])
    dual = DualPoint(np.zeros((3, 3)), s)
    assert np.allclose(residual(m, np.eye(3), dual, np.zeros(3)), -s, atol=1e-14)


def test_residual_equals_the_explicit_sum():
    # (xi G xi) rho - S - sum_i (a xi)_i T_i, Hermitian part, on a random complex d = 4 model
    rng = np.random.default_rng(12)
    d, n = 4, 3
    m = random_model(d, n, rng)
    b = rng.normal(size=(n, n))
    g = b @ b.T + np.eye(n)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    dual = DualPoint(rng.normal(size=(n, n)), (h + h.conj().T) / 2)
    for _ in range(5):
        xi = rng.normal(size=n)
        mat = float(xi @ g @ xi) * m.rho.matrix - dual.s
        for c, t in zip(dual.a @ xi, m.tangent):
            mat = mat - c * t
        assert np.allclose(residual(m, g, dual, xi), (mat + mat.conj().T) / 2, rtol=0, atol=1e-12)


def test_residual_certificate_factorization():
    # at the closed-form certificate the residual factors through the state
    m = qubit(0.6)
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 3))
    p = a @ a.T + 0.3 * np.eye(3)
    w_half = m.fisher_isqrt @ p @ m.fisher_sqrt
    g = w_half.T @ m.fisher @ w_half
    cert = random_model_certificate(m, g)
    w_op = optimal_weight_operator(m, g)
    t = float(np.trace(w_op))
    w_unit = w_op / t
    for _ in range(10):
        z = rng.normal(size=3)
        z /= np.sqrt(z @ m.fisher @ z)
        y = rng.normal()
        xi = y * np.linalg.solve(w_unit, z)
        z_op = cotangent_operator(m, z)
        factor = y * np.eye(2) - z_op
        expected = t**2 * (factor @ m.rho.matrix @ factor)
        assert np.allclose(residual(m, g, cert, xi), expected, atol=1e-9)


def test_spur_examples():
    m = qubit()
    assert spur(m, DualPoint(np.zeros((3, 3)), np.zeros((2, 2)))) == 0.0
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    p = a @ a.T + 0.3 * np.eye(3)
    w = m.fisher_isqrt @ p @ m.fisher_sqrt
    w /= np.trace(w)
    g = w.T @ m.fisher @ w
    cert = random_model_certificate(m, g)
    assert spur(m, cert) == pytest.approx(1.0, abs=1e-10)
    shifted = DualPoint(cert.a, cert.s + 0.25 * np.eye(2))
    assert spur(m, shifted) == pytest.approx(spur(m, cert) + 0.25 * 2, abs=1e-12)


# -- separation oracle ------------------------------------------------------------

def test_separation_zero_multiplier():
    m = qubit()
    res = separation_oracle(m, np.eye(3), DualPoint(np.zeros((3, 3)), np.zeros((2, 2))), CFG)
    assert abs(res.min_value) <= 1e-9


def test_separation_spots_positive_s():
    m = qubit()
    eps = 0.37
    res = separation_oracle(m, np.eye(3), DualPoint(np.zeros((3, 3)), eps * np.eye(2)), CFG)
    assert res.min_value == pytest.approx(-eps, abs=1e-9)
    assert np.linalg.norm(res.witness.xi) <= 1e-6


def test_separation_active_at_solution(qubit_solution):
    m, sol = qubit_solution
    res = separation_oracle(m, np.eye(3), sol.dual, CFG)
    assert -CFG.feas_tol <= res.min_value <= CFG.feas_tol
    r = residual(m, np.eye(3), sol.dual, res.witness.xi)
    quad = res.witness.v.conj() @ r @ res.witness.v
    assert abs(quad.real - res.min_value) <= 1e-9


def fibonacci_sphere(count):
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rxy = np.sqrt(1.0 - z * z)
    return np.stack([rxy * np.cos(phi), rxy * np.sin(phi), z], axis=1)


def _sphere_cases():
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(12):
        a = rng.normal(size=(3, 3))
        cases.append((a + a.T, rng.normal(size=3)))
    lowest = np.diag([-1.0, 0.5, 2.0])
    structured = [
        (lowest, np.zeros(3)),                                 # g = 0
        (np.diag([1.0, 1.0, 3.0]), np.zeros(3)),               # g = 0, repeated lowest eigenvalue
        (np.zeros((3, 3)), np.zeros(3)),
        (lowest, np.array([0.0, 0.3, 0.4])),                   # hard case
        (lowest, np.array([1e-9, 0.3, 0.4])),                  # next to the hard case
        (lowest, np.array([0.0, 3.0, 0.4])),                   # g orthogonal but large: easy case
        (np.diag([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 0.5])),  # hard case, repeated eigenvalue
        (np.diag([0.0, 0.0, 2.0]), np.array([0.1, 0.0, 0.5])),  # repeated eigenvalue, easy case
        (np.eye(3), np.array([0.2, -0.1, 0.3])),               # A a multiple of the identity
        (np.diag([-2.0, -2.0, -2.0]), np.zeros(3)),
    ]
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    for a, g in structured:
        cases.append((a, g))
        cases.append((rot @ a @ rot.T, rot @ g))
    return cases


SPHERE_CASES = _sphere_cases()


@pytest.mark.parametrize("case", range(len(SPHERE_CASES)))
def test_sphere_minimizer_matches_brute_force(case):
    a, g = SPHERE_CASES[case]
    r, lower = _sphere_min(*np.linalg.eigh(a), g, 0.5)
    grid = fibonacci_sphere(200_000)
    grid_min = float(np.min(np.einsum("qi,ij,qj->q", grid, a, grid) + 2.0 * grid @ g)) + 0.5
    value = float(r @ a @ r + 2.0 * g @ r) + 0.5
    scale = 1.0 + np.abs(a).max() + np.abs(g).max()
    assert abs(np.linalg.norm(r) - 1.0) <= 1e-14
    # no grid point beats the minimizer, and the dual value brackets it tightly
    assert value <= grid_min + 1e-12 * scale
    assert lower <= value + 1e-14 * scale
    assert value - lower <= 1e-12 * scale


def bloch_grid_minima(model, g, points, count=1_000_000, block=125_000):
    """Smallest minimized scalar cut -v^dag S v - k^T M k / (4 v^dag rho v) over a Bloch grid.

    Evaluated in the original matrix coordinates, k_i = v^dag T_i v and
    M = b G^-1 b^T, as per-witness monomials times per-point coefficients,
    one block of witnesses at a time.
    """
    g_inv = np.linalg.inv(g)
    iu = np.triu_indices(model.n)
    coef = []
    for b, s in points:
        mk = b @ g_inv @ b.T
        coef.append(np.concatenate([[s[0, 0].real, s[1, 1].real, s[0, 1].real, s[0, 1].imag],
                                    np.where(iu[0] == iu[1], 1.0, 2.0) * mk[iu]]))
    coef = np.array(coef).T
    minima = np.full(len(points), np.inf)
    grid = fibonacci_sphere(count)
    for start in range(0, count, block):
        r = grid[start: start + block]
        theta = np.arccos(np.clip(r[:, 2], -1.0, 1.0))
        phi = np.arctan2(r[:, 1], r[:, 0])
        p0 = np.cos(theta / 2.0) ** 2
        p1 = np.sin(theta / 2.0) ** 2
        c01 = np.cos(theta / 2.0) * np.sin(theta / 2.0) * np.exp(1j * phi)

        def expect(x):
            return p0 * x[0, 0].real + p1 * x[1, 1].real + 2.0 * (c01 * x[0, 1]).real

        beta = expect(model.rho.matrix)
        k = np.stack([expect(t) for t in model.tangent], axis=1)
        mono = np.column_stack([p0, p1, 2.0 * c01.real, -2.0 * c01.imag,
                                k[:, iu[0]] * k[:, iu[1]] / (4.0 * beta[:, None])])
        minima = np.minimum(minima, np.min(-(mono @ coef), axis=0))
    return minima


def _oracle_points(model, g, rng):
    n = model.n
    points = []
    for scale in (0.1, 1.0, 10.0):
        for _ in range(4):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            points.append((scale * rng.normal(size=(n, n)), scale * (h + h.conj().T) / 2.0))
    structured_s = [np.zeros((2, 2)), np.eye(2), -np.eye(2), PAULI_3, PAULI_1,
                    0.3 * np.eye(2) + PAULI_2, 0.2 * PAULI_3 - 0.7 * PAULI_1]
    points += [(np.zeros((n, n)), s) for s in structured_s]
    points += [(np.diag(rng.normal(size=n)), s) for s in structured_s[:4]]
    if n == 3:
        cert = random_model_certificate(model, g)
        points += [(cert.a, cert.s), (cert.a, cert.s + 1e-3 * np.eye(2)), (cert.a, cert.s - 0.5 * PAULI_3)]
    return points


def test_qubit_separation_is_exact_against_a_bloch_grid():
    rng = np.random.default_rng(40)
    u = haar_unitary(rng, 2)
    models = [qubit(0.0), qubit(0.6), rotated(qubit(-0.9), u),
              builtin_model("qubit-equatorial", alpha=0.3)]
    checked = 0
    for m in models:
        a = rng.normal(size=(m.n, m.n))
        g = a @ a.T + 0.3 * np.eye(m.n)
        engine = _Engine(m, g, np.eye(m.n))
        points = _oracle_points(m, g, rng)
        grid = bloch_grid_minima(m, g, points)
        for (b, s), grid_min in zip(points, grid):
            sep = engine.separate(b, s, CFG.feas_tol)
            tol = 1e-12 * (1.0 + abs(sep.min_value))
            # the reported minimum is a lower bound: no grid witness goes below it
            assert grid_min >= sep.min_value - tol
            # ... attained to rounding at the returned point, which no grid witness beats
            at_best = float(np.linalg.eigvalsh(engine.residual_mat(b, s, sep.best))[0])
            assert sep.min_value <= at_best + tol
            assert at_best - sep.min_value <= 1e-9 * (1.0 + abs(sep.min_value))
            assert at_best <= grid_min + tol
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.3, 0.6, 0.9])
def test_qubit_certificate_separation_is_exact(alpha):
    m = qubit(alpha)
    rng = np.random.default_rng(50)
    a = rng.normal(size=(3, 3))
    g = a @ a.T + 0.3 * np.eye(3)
    # the certificate's residual is singular at some tangent point: minimum 0
    res = separation_oracle(m, g, random_model_certificate(m, g), CFG)
    assert -1e-12 <= res.min_value <= 1e-12


def _qubit_kernel_engines():
    """Square engines on qubit-full, qubit-equatorial and a rotated qubit, and a rectangular one."""
    rng = np.random.default_rng(45)
    engines = []
    for m in (qubit(0.6), builtin_model("qubit-equatorial", alpha=0.3),
              rotated(qubit(-0.9), haar_unitary(rng, 2))):
        a = rng.normal(size=(m.n, m.n))
        engines.append(_Engine(m, a @ a.T + 0.3 * np.eye(m.n), np.eye(m.n)))
    # dual_submodel_inequality's engine: B is 3 x 2 on a two-dimensional subspace
    m = qubit(0.6)
    emb = np.eye(3)[:, [0, 2]]
    proj = np.linalg.solve(emb.T @ m.fisher @ emb, emb.T @ m.fisher)
    engines.append(_Engine(m, np.array([[1.5, 0.4], [0.4, 0.8]]), proj.T))
    return engines


@pytest.mark.parametrize("case", range(4), ids=["full", "equatorial", "rotated", "rectangular"])
def test_qubit_kernels_match_the_generic_ones(case):
    engine = _qubit_kernel_engines()[case]
    rng = np.random.default_rng(46 + case)
    n, m = engine.n_ops, engine.m
    points = [(np.zeros((n, m)), np.zeros((2, 2))), (np.zeros((n, m)), -0.7 * np.eye(2))]
    for scale in (0.1, 1.0, 10.0):
        for _ in range(5):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            points.append((scale * rng.normal(size=(n, m)), scale * (h + h.conj().T) / 2.0))
        points.append((scale * rng.normal(size=(n, m)), scale * np.eye(2)))
    for b, s in points:
        # the cover's witness expectations are fixed: its jumps are the generic ones
        ys = engine._jumps(b, *engine.cover_coeffs)
        assert np.array_equal(ys, engine._witness_jumps(b, engine.cover))
        # lambda_min from Pauli coordinates against the residual matrices' eigenvalues
        ys = np.vstack([ys, np.zeros((1, m)), rng.normal(size=(8, m))])
        lam = engine.lam_min(b, s, ys)
        ref = np.linalg.eigvalsh(engine.residuals(b, s, ys))[:, 0]
        assert np.all(np.abs(lam - ref) <= 1e-13 * (1.0 + np.abs(ref)))


def commuting_model(d, n, seed):
    rng = np.random.default_rng(seed)
    rho = np.diag(0.8 * rng.dirichlet(np.ones(d)) + 0.2 / d).astype(complex)
    tangents = [np.diag(x - x.mean()).astype(complex) for x in rng.normal(size=(n, d))]
    return build_model(DensityOperator(rho), tangents)


def test_pool_sweep_memory_is_bounded(monkeypatch):
    # d = 8, n = 3: the Sym^2 set-up (36 x 36 compressed products) and one
    # sweep over the jumps of 12 Sym^2 witnesses and xi = 0, shifted clean so
    # that the jumps of 400 pooled witnesses are checked too
    m = commuting_model(8, 3, seed=0)
    rng = np.random.default_rng(1)
    pool = unit_witnesses(rng, 400, 8)
    b = rng.normal(size=(3, 3))
    s = -np.diag(rng.uniform(size=8)).astype(complex)
    feas_tol = SolverConfig().feas_tol
    engine = _Engine(m, np.eye(3), np.eye(3))
    s = s + min(0.0, engine.separate(b, s, feas_tol).min_value) * np.eye(8)
    checked = []
    lam_min = _Engine.lam_min
    monkeypatch.setattr(_Engine, "lam_min", lambda self, b, s, ys: checked.append(len(ys)) or lam_min(self, b, s, ys))
    tracemalloc.start()
    try:
        engine = _Engine(m, np.eye(3), np.eye(3))
        engine.separate(b, s, feas_tol, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [13, 400]
    assert peak < 48 * 2**20


def _reference_descend(engine, b, s, pts, iters=40):
    """The batch-wide descent: every point stays in the batch until all gain less than 1e-14."""
    best_pts, best = pts.copy(), np.full(pts.shape[0], np.inf)
    for _ in range(iters + 1):
        w, vecs = np.linalg.eigh(engine.residuals(b, s, pts))
        gain = best - w[:, 0]
        better = gain > 0
        best_pts[better], best[better] = pts[better], w[better, 0]
        if gain.max() < 1e-14:
            break
        pts = engine._witness_jumps(b, vecs[:, :, 0])
    return best_pts, best


def _descent_cases():
    """Seeded (engine, B, S, xi) at d = 3, 4 and 8: S shifted so that some starts are violated."""
    rng = np.random.default_rng(93)
    for d in (3, 4, 8):
        m = random_model(d, 3, rng)
        engine = _Engine(m, np.eye(3), np.eye(3))
        for _ in range(3):
            b = 0.3 * rng.normal(size=(3, 3))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            s = 0.05 * (h + h.conj().T) - 0.1 * np.eye(d)
            yield engine, b, s, rng.normal(size=(16, 3))


def test_descent_matches_the_batch_wide_reference():
    for engine, b, s, pts in _descent_cases():
        ref_pts, ref = _reference_descend(engine, b, s, pts)
        got_pts, got = engine._descend(b, s, pts, 1e-14)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))
        assert np.all(np.isfinite(got_pts))


@pytest.mark.parametrize("tol", [1e-14, 1e-8, 1e-3, 1.0])
def test_descent_never_ends_above_its_start(tol):
    for engine, b, s, pts in _descent_cases():
        start = np.linalg.eigh(engine.residuals(b, s, pts))[0][:, 0]
        got_pts, got = engine._descend(b, s, pts, tol)
        assert np.all(got <= start)
        # each value is attained at its returned point
        assert np.allclose(engine.lam_min(b, s, got_pts), got, rtol=1e-12, atol=1e-12)


# -- solve_dual -------------------------------------------------------------------

def _ends_clean_or_capped(sol, cfg):
    """The rounds end only at a clean sweep (clamped at the pivot tolerance) or at the cap."""
    return (sol.rounds == cfg.max_rounds
            or sol.trace[-1].sep_min >= -max(cfg.feas_tol, qcr.simplex.PIVOT_TOL))


@pytest.mark.parametrize("name, seed", [("qubit-full", 60), ("qubit-full", 61),
                                        ("qubit-equatorial", 60), ("qubit-equatorial", 61)])
def test_qubit_solves_are_certified(name, seed):
    m = builtin_model(name, alpha=0.6)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m.n, m.n))
    g = a @ a.T + 0.3 * np.eye(m.n)
    sol = solve_dual(m, g, CFG)
    assert _ends_clean_or_capped(sol, CFG)
    assert sol.certified
    assert sol.optimum <= optimal_random_bound(m, g) * (1.0 + 1e-12)


def test_criterion_04_solves_stay_within_the_round_budget():
    # criterion 04's ten instances; spreading each qubit round's cuts over the
    # sphere brings them to 18-28 rounds, where the bunched cuts took 72-93
    cfg = SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=0)
    rng = np.random.default_rng(4)
    for alpha in (0.3, 0.6):
        m = qubit(alpha)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            g = a @ a.T + 0.3 * np.eye(3)
            sol = solve_dual(m, g, cfg)
            exact = optimal_random_bound(m, g)
            assert sol.status == "converged" and sol.rounds <= 40
            assert sol.certified
            assert sol.optimum <= exact * (1.0 + 1e-12) <= sol.lp_value + 1e-4


def test_solve_qubit_matches_random_bound(qubit_solution):
    m, sol = qubit_solution
    assert sol.status == "converged"
    assert sol.optimum == pytest.approx(7.84, abs=1e-3)
    assert sol.lp_value >= sol.optimum - 1e-12


def test_solve_qutrit_matches_classical_bound(qutrit_solution):
    m, sol = qutrit_solution
    assert sol.status == "converged"
    assert not sol.certified
    assert sol.optimum == pytest.approx(0.4375, abs=1e-3)
    # strictly below the random-measurement value
    assert optimal_random_bound(m, np.eye(2)) - sol.optimum > 0.3


def test_solve_one_parameter_model():
    rho = DensityOperator((np.eye(2) + 0.6 * np.diag([1.0, -1.0])) / 2)
    m = build_model(rho, [PAULI_1 / 2])
    g = np.array([[2.0]])
    sol = solve_dual(m, g, CFG)
    assert sol.optimum == pytest.approx(2.0 / m.fisher[0, 0], abs=1e-4)


def test_monotone_lp_values(qubit_solution, qutrit_solution):
    for _, sol in (qubit_solution, qutrit_solution):
        diffs = np.diff([rec.lp_value for rec in sol.trace])
        assert np.all(diffs <= 1e-9)


def test_round_one_is_the_box_lp(qubit_solution, qutrit_solution):
    # the first relaxation has no cut rows: its optimum is the box vertex,
    # reached cold and without a pivot
    for _, sol in (qubit_solution, qutrit_solution):
        first = sol.trace[0]
        assert (first.rows, first.pivots, first.warm) == (0, 0, False)


def test_scale_covariance():
    m = qubit(0.3)
    g = np.diag([1.0, 2.0, 0.7])
    c = 2.5
    s1 = solve_dual(m, g, CFG)
    s2 = solve_dual(m, c * g, CFG)
    assert s2.optimum == pytest.approx(c * s1.optimum, rel=1e-3)


def test_feasibility_restoration(qubit_solution):
    _, sol = qubit_solution
    assert sol.feasibility >= -1e-12


def test_weak_duality_against_sampled_measurements(qubit_solution):
    m, sol = qubit_solution
    rng = np.random.default_rng(20)
    devs = [deviation(m, np.eye(3), sample_locally_unbiased(m, rng)) for _ in range(100)]
    min_dev = min(devs)
    for rec in sol.trace:
        assert rec.shifted_value <= min_dev + 1e-9


@pytest.mark.parametrize("name", ["qubit-full", "qutrit-diagonal"])
def test_trace_times_the_lp_and_the_separation(name):
    m = qubit() if name == "qubit-full" else builtin_model(name, probs=(0.5, 0.25, 0.25))
    start = time.perf_counter()
    sol = solve_dual(m, np.eye(m.n), SolverConfig(feas_tol=1e-5, obj_tol=1e-5, max_rounds=40))
    wall = time.perf_counter() - start
    assert all(rec.lp_s >= 0.0 and rec.sep_s >= 0.0 for rec in sol.trace)
    assert 0.0 < sum(rec.lp_s + rec.sep_s for rec in sol.trace) <= wall


def test_unconverged_status_and_best_point():
    m = qubit()
    cfg = SolverConfig(feas_tol=1e-5, obj_tol=1e-5, max_rounds=3, seed=0)
    sol = solve_dual(m, np.eye(3), cfg)
    assert sol.status == "unconverged"
    assert np.isfinite(sol.optimum)
    assert sol.feasibility >= -1e-12
    # the restored value is still a valid lower bound
    assert sol.optimum <= 7.84 + 1e-6


@pytest.mark.parametrize("name, alpha, g", [
    ("qubit-full", -0.9, np.eye(3)),
    *[("qubit-full", alpha, np.diag([1.0, 1.0, 1.5625])) for alpha in (-0.6, -0.3, 0.3)],
    ("qutrit-diagonal", None, np.eye(2)),
], ids=["qubit-identity--0.9", "qubit-diagonal--0.6", "qubit-diagonal--0.3",
        "qubit-diagonal-0.3", "qutrit"])
def test_floor_tolerance_solves_end_at_a_clean_sweep_or_the_cap(name, alpha, g):
    # at the documented floor feas_tol = obj_tol = 1e-9 a warm re-solve can
    # make no pivot (the qubit case at alpha = 0.3 makes one); the rounds
    # go on to a clean sweep
    if name == "qutrit-diagonal":
        m = builtin_model(name, probs=(0.5, 0.25, 0.25))
        # a commuting model: the classical bound tr(G J^-1) is attained
        exact = float(np.trace(g @ m.fisher_inverse))
    else:
        m = qubit(alpha)
        exact = optimal_random_bound(m, g)
    cfg = SolverConfig(feas_tol=1e-9, obj_tol=1e-9)
    sol = solve_dual(m, g, cfg)
    assert _ends_clean_or_capped(sol, cfg)
    assert len(sol.trace) == sol.rounds
    assert sol.certified == (m.dim == 2)
    assert sol.optimum <= exact <= sol.lp_value


@pytest.mark.parametrize("alpha", [0.3, -0.3])
def test_floor_tolerance_lp_value_is_an_upper_bound_up_to_the_pivot_tolerance(alpha):
    # the simplex stops once no reduced cost is below -PIVOT_TOL, so at the
    # floor tolerance lp_value may fall short of the exact optimum by the
    # slack the docs state; these two cases once ended 1.8e-10 and 3.8e-10
    # below it
    m = qubit(alpha)
    a = np.random.default_rng(2024).normal(size=(3, 3))
    g = a @ a.T + 0.3 * np.eye(3)
    exact = optimal_random_bound(m, g)
    sol = solve_dual(m, g, SolverConfig(feas_tol=1e-9, obj_tol=1e-9))
    assert sol.optimum <= exact
    assert exact <= sol.lp_value + qcr.simplex.PIVOT_TOL * exact


def _small_case(name):
    if name == "qubit-full":
        return qubit(0.6), np.eye(3)
    return builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25)), np.eye(2)


@pytest.mark.parametrize("name", ["qubit-full", "qutrit-diagonal"])
def test_feas_tol_is_clamped_at_the_pivot_tolerance(name):
    # the LP does not act on cuts violated by less than its pivot tolerance,
    # so a smaller feas_tol solves exactly as the pivot tolerance does
    m, g = _small_case(name)
    floor, below = (solve_dual(m, g, SolverConfig(feas_tol=t, obj_tol=1e-9))
                    for t in (qcr.simplex.PIVOT_TOL, 1e-10))
    assert ((below.rounds, below.optimum, below.lp_value, below.status)
            == (floor.rounds, floor.optimum, floor.lp_value, floor.status))


@pytest.mark.parametrize("name", ["qubit-full", "qutrit-diagonal"])
def test_restoration_reuses_the_clean_sweep_that_ended_the_rounds(monkeypatch, name):
    m, g = _small_case(name)
    events = []
    separate, descend, lam_min = _Engine.separate, _Engine._descend, _Engine.lam_min

    def counted(self, b, s, feas_tol, pool=None):
        sep = separate(self, b, s, feas_tol, pool)
        events.append(("sweep", sep.min_value))
        return sep

    monkeypatch.setattr(_Engine, "separate", counted)
    monkeypatch.setattr(_Engine, "_descend",
                        lambda self, b, s, pts, tol: events.append(("descend", tol)) or descend(self, b, s, pts, tol))
    monkeypatch.setattr(_Engine, "lam_min",
                        lambda self, b, s, ys: events.append(("lam_min", len(ys))) or lam_min(self, b, s, ys))
    sol = solve_dual(m, g, CFG)
    # the rounds ended on a clean sweep ...
    assert sol.rounds < CFG.max_rounds and sol.trace[-1].sep_min >= -CFG.feas_tol
    # ... so the sweeps are the rounds' own: one each, its descent (d >= 3)
    # at the one tolerance, and nothing after the last
    sweeps = [v for kind, v in events if kind == "sweep"]
    assert sweeps == [r.sep_min for r in sol.trace]
    assert events[-1] == ("sweep", sol.trace[-1].sep_min)
    descents = [tol for kind, tol in events if kind == "descend"]
    assert descents == ([1e-3 * CFG.feas_tol] * sol.rounds if m.dim > 2 else [])

    # a capped run ends on a violated sweep: the exact qubit sweep does not
    # read the cuts, so the last round's serves; at d >= 3 the restoration
    # adds the jumps of the final cuts' witnesses, without descent
    events.clear()
    capped = SolverConfig(feas_tol=1e-5, obj_tol=1e-5, max_rounds=3)
    sol = solve_dual(m, g, capped)
    assert sol.rounds == 3 and sol.trace[-1].sep_min < -capped.feas_tol
    assert sum(kind == "sweep" for kind, _ in events) == 3
    last = max(i for i, (kind, _) in enumerate(events) if kind == "sweep")
    assert events[last + 1:] == ([("lam_min", len(sol.cuts))] if m.dim > 2 else [])


# -- certificates -------------------------------------------------------------------

def test_certificate_consistency_random_weights():
    m = qubit(0.3)
    rng = np.random.default_rng(44)
    for _ in range(2):
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.4 * np.eye(3)
        cert = random_model_certificate(m, g)
        sol = solve_dual(m, g, CFG)
        assert abs(sol.optimum - spur(m, cert)) <= 1e-3
        check = separation_oracle(m, g, cert, CFG)
        assert check.min_value >= -1e-9


def test_certificate_qubit_s_block():
    m = qubit(0.6)
    g = np.eye(3)
    cert = random_model_certificate(m, g)
    bound = optimal_random_bound(m, g)
    assert np.allclose(cert.s, -bound * (np.eye(2) - m.rho.matrix), atol=1e-10)
    assert spur(m, cert) == pytest.approx(bound, abs=1e-10)


def test_certificate_refused_for_nonrandom_model():
    q = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    with pytest.raises(ValidationError):
        random_model_certificate(q, np.eye(2))


# -- submodel comparison --------------------------------------------------------------

def test_submodel_inequality_equatorial():
    m = qubit(0.6)
    res = dual_submodel_inequality(m, (0, 1), np.eye(2), CFG)
    assert res.holds
    assert res.opt_sub == pytest.approx(4.0, abs=1e-3)
    assert res.opt_sub <= res.opt_full + 1e-3


def test_submodel_full_space_is_identity():
    m = qubit(0.5)
    g = np.diag([1.0, 1.5, 0.5])
    res = dual_submodel_inequality(m, (0, 1, 2), g, CFG)
    assert res.holds
    assert res.opt_sub == pytest.approx(res.opt_full, abs=2e-3)


def test_submodel_indices_validated():
    m = qubit()
    with pytest.raises(ValidationError):
        dual_submodel_inequality(m, (0, 3), np.eye(2), CFG)
    with pytest.raises(ValidationError):
        dual_submodel_inequality(m, (), np.eye(1), CFG)


# -- harder model geometries -------------------------------------------------------

def test_skewed_tangent_basis_still_matches_bound():
    # non-diagonal Fisher matrix; qubits stay random models in any basis
    from qcr.model import PAULI_2, PAULI_3

    rho = DensityOperator((np.eye(2) + 0.5 * PAULI_3) / 2)
    tangents = [PAULI_1 / 2, (PAULI_1 + PAULI_2) / (2 * np.sqrt(2)),
                (PAULI_2 + PAULI_3) / (2 * np.sqrt(2))]
    m = build_model(rho, tangents)
    assert not np.allclose(m.fisher, np.diag(np.diag(m.fisher)))
    g = np.diag([1.0, 0.6, 1.7])
    sol = solve_dual(m, g, SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=2))
    assert sol.optimum == pytest.approx(optimal_random_bound(m, g), abs=1e-3)


def test_random_qutrit_between_classical_and_random_bounds():
    for seed in (19, 17, 20, 23):
        m = random_model(3, 2, np.random.default_rng(seed))
        g = np.eye(2)
        sol = solve_dual(m, g, SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=3))
        classical = float(np.trace(g @ m.fisher_inverse))
        random_bound = optimal_random_bound(m, g)
        assert classical - 1e-3 <= sol.optimum <= sol.lp_value <= random_bound + 1e-3, seed


def spin1_rotation_model(spectrum):
    """rho diagonal in J_z with tangents i[J_x, rho] and i[J_y, rho]: neither random nor commuting."""
    jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / np.sqrt(2)
    rho = np.diag(spectrum).astype(complex)
    return build_model(DensityOperator(rho), [1j * (j @ rho - rho @ j) for j in (jx, jy)])


def test_spin1_rotation_model_stays_below_the_random_bound():
    # the random bound (tr W)^2 = 10 is not attained on this non-random
    # model: the converged upper bound lp_value lies strictly below it
    m = spin1_rotation_model((0.6, 0.3, 0.1))
    g = np.eye(2)
    sol = solve_dual(m, g, SolverConfig(feas_tol=1e-6, obj_tol=1e-6))
    sld = float(np.trace(g @ m.fisher_inverse))
    assert sld == pytest.approx(5.0)
    assert optimal_random_bound(m, g) == pytest.approx(10.0)
    assert sol.status == "converged"
    assert sld <= sol.optimum <= sol.lp_value < 9.0


@pytest.mark.parametrize("name", ["qutrit-diagonal", "commuting-d4", "qubit-full"])
def test_solves_are_deterministic_and_restored_by_one_shift(name):
    if name == "qutrit-diagonal":
        m, g = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25)), np.eye(2)
    elif name == "qubit-full":
        m, g = qubit(0.6), np.diag([1.0, 2.0, 0.7])
    else:
        m, g = commuting_model(4, 3, seed=4), np.eye(3)
    first, second = (solve_dual(m, g, SolverConfig(feas_tol=1e-5, obj_tol=1e-5, seed=seed))
                     for seed in (0, 7))
    assert (first.optimum, first.lp_value, first.rounds) == (second.optimum, second.lp_value, second.rounds)
    assert first.dual.a.tobytes() == second.dual.a.tobytes()
    assert first.dual.s.tobytes() == second.dual.s.tobytes()
    # a second restoration pass would find nothing below the margin
    assert separation_oracle(m, g, first.dual).min_value >= -1e-12


# -- known-answer soundness -------------------------------------------------------
# optimum must stay a lower and lp_value an upper bound on the exact value,
# converged or not


# seeds 4, 5 and 12 at d = 4 need the default round cap: none has converged
# at 60 rounds, and they take 128, 200 and 126 (seed 5 converges at the
# cap); the d = 6 and d = 8 cases (seeds 3-5) are marked slow
@pytest.mark.parametrize("d, n, seed, rounds", [
    pytest.param(d, n, seed, 60, id=f"{d}-{n}-{seed}")
    for d, n, seed in [(3, 2, 100), (3, 2, 101), (3, 2, 102), (4, 3, 100), (4, 3, 101), (4, 3, 102)]
] + [pytest.param(4, 3, seed, 200, id=f"4-3-{seed}-200") for seed in (4, 5, 12)] + [
    pytest.param(d, 3, seed, 200, id=f"{d}-3-{seed}-200", marks=pytest.mark.slow)
    for d in (6, 8) for seed in (3, 4, 5)
])
def test_commuting_model_bracket_is_sound(d, n, seed, rounds):
    m = commuting_model(d, n, seed)
    g = np.eye(n)
    cfg = SolverConfig(feas_tol=1e-5, obj_tol=1e-5, max_rounds=rounds, seed=0)
    sol = solve_dual(m, g, cfg)
    assert _ends_clean_or_capped(sol, cfg)
    # commuting models attain the classical bound
    exact = float(np.trace(g @ m.fisher_inverse))
    assert sol.optimum <= exact + cfg.obj_tol
    assert sol.lp_value >= exact - cfg.obj_tol
    # the final bracket alone decides the status (seed 12 ends on a clean
    # sweep with a bracket wider than the band)
    assert (sol.status == "converged") == (sol.lp_value - sol.optimum <= cfg.obj_tol + d * cfg.feas_tol)


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(model, u):
    """The model under rho -> U rho U^dag, T -> U T U^dag."""
    return build_model(DensityOperator(u @ model.rho.matrix @ u.conj().T),
                       [u @ t @ u.conj().T for t in model.tangent])


def test_unitarily_rotated_qubit_bracket_is_sound():
    rng = np.random.default_rng(100)
    m = rotated(qubit(0.6), haar_unitary(rng, 2))
    a = rng.normal(size=(3, 3))
    g = a @ a.T + 0.3 * np.eye(3)
    cfg = SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=0)
    sol = solve_dual(m, g, cfg)
    exact = optimal_random_bound(m, g)
    assert sol.optimum <= exact + cfg.obj_tol
    assert sol.lp_value >= exact - cfg.obj_tol


@pytest.mark.parametrize("name", ["qubit-full", "qutrit-diagonal"])
def test_optimum_is_invariant_under_unitary_rotation(name):
    rng = np.random.default_rng(7)
    if name == "qubit-full":
        base = qubit(0.6)
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.3 * np.eye(3)
    else:
        base = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
        g = np.eye(2)
    cfg = SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=0)
    sols = [solve_dual(m, g, cfg) for m in (base, rotated(base, haar_unitary(rng, base.dim)))]
    # each bracket [optimum, lp_value] holds the same optimum, so they overlap
    assert max(s.optimum for s in sols) <= min(s.lp_value for s in sols) + cfg.obj_tol
    if name == "qubit-full":
        exact = optimal_random_bound(base, g)
        for sol in sols:
            assert sol.optimum <= exact + cfg.obj_tol
            assert sol.lp_value >= exact - cfg.obj_tol


# non-commuting d >= 3 models, which the bench does not solve: 24 random
# complex ones and three Haar-rotated commuting ones. Each converged bracket
# lies between the classical bound tr(G J^-1) and the random bound (tr W)^2,
# the optimum at most the convergence band below the former (on the rotated
# models, which attain it, the optimum ends 1.5e-5 to 2.1e-5 below)
@pytest.mark.slow
@pytest.mark.parametrize("kind, d, seed", [("random", d, seed) for d in (3, 4) for seed in range(1, 13)]
                         + [("rotated", d, d) for d in (4, 5, 6)])
def test_non_commuting_brackets_lie_between_the_classical_and_random_bounds(kind, d, seed):
    if kind == "random":
        m, g = random_model(d, 2, np.random.default_rng(seed)), np.eye(2)
    else:
        m, g = rotated(commuting_model(d, 2, seed), haar_unitary(np.random.default_rng(seed), d)), np.eye(2)
    cfg = SolverConfig(feas_tol=1e-5, obj_tol=1e-5)
    sol = solve_dual(m, g, cfg)
    assert sol.status == "converged"
    classical = float(np.trace(g @ m.fisher_inverse))
    band = cfg.obj_tol + d * cfg.feas_tol
    assert classical - band <= sol.optimum <= sol.lp_value <= optimal_random_bound(m, g) + cfg.obj_tol
    if kind == "rotated":
        assert sol.optimum <= classical + cfg.obj_tol
        assert sol.lp_value >= classical - cfg.obj_tol


# random complex models with more parameters than the dimension, which mostly
# end unconverged at the round cap: a warm LP that stalls past the simplex's
# iteration limit (which seed does so varies with the platform's linear
# algebra) is finished by the box restart, so no solve raises, and each
# bracket lies between the classical and random bounds
@pytest.mark.slow
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (4, 6) for seed in range(1, 13)])
def test_random_models_with_more_parameters_than_the_dimension_solve(n, seed):
    m, g = random_model(3, n, np.random.default_rng(seed)), np.eye(n)
    cfg = SolverConfig(feas_tol=1e-6, obj_tol=1e-6)
    sol = solve_dual(m, g, cfg)
    assert _ends_clean_or_capped(sol, cfg)
    classical = float(np.trace(g @ m.fisher_inverse))
    band = cfg.obj_tol + 3 * cfg.feas_tol
    assert classical - band <= sol.optimum <= sol.lp_value <= optimal_random_bound(m, g) + cfg.obj_tol


# -- warm-started relaxations ------------------------------------------------------

@pytest.mark.parametrize("name", ["qubit-full", "commuting-d4"])
def test_warm_started_relaxations_match_cold_solves(monkeypatch, name):
    if name == "qubit-full":
        m = qubit(0.6)
    else:
        m = commuting_model(4, 3, seed=100)
    solve = qcr.dual.solve_boxed_lp
    warm_flags = []

    def warm_and_cold(c, a, b, lb, ub, **kw):
        warm = solve(c, a, b, lb, ub, **kw)
        cold = solve(c, a, b, lb, ub, **{**kw, "start": None})
        assert warm.status == cold.status == "optimal"
        assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
        warm_flags.append(warm.warm)
        return warm

    monkeypatch.setattr(qcr.dual, "solve_boxed_lp", warm_and_cold)
    solve_dual(m, np.eye(3), SolverConfig(feas_tol=1e-5, obj_tol=1e-5, max_rounds=60, seed=0))
    # a silent fallback to cold solves would fail here
    assert sum(warm_flags) >= 0.9 * len(warm_flags)


# -- cut rows and the live cuts ------------------------------------------------------

def unit_witnesses(rng, count, d):
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _cut_row_cases():
    """(model, engine, lift) triples; lift maps (B, xi) to the public residual's (a, G, xi)."""
    rng = np.random.default_rng(90)
    cases = []
    for m in (qubit(0.6), random_model(3, 3, rng), random_model(4, 3, rng)):
        a = rng.normal(size=(m.n, m.n))
        g = a @ a.T + 0.3 * np.eye(m.n)
        cases.append((m, _Engine(m, g, np.eye(m.n)), lambda b, y, g=g: (b, g, y)))
    # the rectangular engine of dual_submodel_inequality: B is n x k on the
    # coordinates of a k-dimensional subspace, lifted back through the embedding
    m = random_model(3, 3, rng)
    idx = [0, 2]
    emb = np.zeros((m.n, len(idx)))
    emb[idx, np.arange(len(idx))] = 1.0
    proj = np.linalg.solve(emb.T @ m.fisher @ emb, emb.T @ m.fisher)
    g_sub = np.array([[1.5, 0.4], [0.4, 0.8]])
    g_full = emb @ g_sub @ emb.T + np.diag([0.0, 1.0, 0.0])
    engine = _Engine(m, g_sub, proj.T)
    assert (engine.n_ops, engine.m) == (3, 2)
    cases.append((m, engine, lambda b, y: (b @ proj, g_full, emb @ y)))
    return cases


@pytest.mark.parametrize("case", range(4), ids=["d2", "d3", "d4", "rectangular"])
def test_cut_rows_give_the_cut_value(case):
    # rhs - row @ z is the scalar cut v^dag R(xi) v at the LP point z
    model, engine, lift = _cut_row_cases()[case]
    rng = np.random.default_rng(91 + case)
    for _ in range(20):
        z = rng.normal(size=engine.nv)
        b, s = engine.unpack(z)
        ys = 2.0 * rng.normal(size=(7, engine.m))
        vs = unit_witnesses(rng, 7, engine.d)
        rows, rhs = engine.cut_rows(ys, vs)
        assert rows.shape == (7, engine.nv)
        for row, r, y, v in zip(rows, rhs, ys, vs):
            a, g, xi = lift(b, y)
            expect = float((v.conj() @ residual(model, g, DualPoint(a, s), xi) @ v).real)
            # relative to the size of the terms whose difference is the cut value
            scale = abs(r) + np.abs(row) @ np.abs(z)
            assert abs(r - row @ z - expect) <= 1e-12 * scale


def _reference_spread_select(points, candidate_idx, count, rel_dist):
    cand = points[candidate_idx]
    norms = np.linalg.norm(cand, axis=1)
    free = np.ones(cand.shape[0], dtype=bool)
    chosen = []
    j = 0
    while free.size and len(chosen) < count:
        chosen.append(j)
        dist = np.linalg.norm(cand[j + 1:] - cand[j], axis=1)
        free[j + 1:] &= ~(dist <= rel_dist * (norms[j + 1:] + norms[j] + 1e-6))
        nxt = np.flatnonzero(free[j + 1:])
        if nxt.size == 0:
            break
        j += 1 + int(nxt[0])
    return cand[chosen]


def _spread_cases(rng, trials, max_k, max_count, spread):
    for _ in range(trials):
        k, m = int(rng.integers(0, max_k + 1)), int(rng.integers(1, 5))
        # clusters of nearby points, so that many candidates are skipped; at the
        # smallest scales the absolute 1e-6 in the distance test decides
        centres = rng.normal(size=(int(rng.integers(1, 6)), m)) * 10.0 ** rng.integers(-9, 3)
        points = centres[rng.integers(0, len(centres), size=k)] * (1.0 + spread * rng.normal(size=(k, m)))
        idx = rng.permutation(k)[: int(rng.integers(0, k + 1))]
        yield points, idx, int(rng.integers(1, max_count + 1))


def test_spread_select_matches_the_reference():
    rng = np.random.default_rng(93)
    for points, idx, count in _spread_cases(rng, 60, 39, 11, 0.01):
        ours = qcr.dual._spread_select(points, idx, count, 0.01)
        assert np.array_equal(ours, _reference_spread_select(points, idx, count, 0.01))
    # at the qubit oracle's size: up to 129 candidates (its minimizer and a
    # 128-point cover) at both spreads the solver uses, and clusters wide
    # enough for the 0.2 spread to keep some of a cluster and skip the rest
    for rel_dist in (0.01, 0.2):
        for spread in (0.01, 0.3):
            for points, idx, count in _spread_cases(rng, 40, 129, 64, spread):
                ours = qcr.dual._spread_select(points, idx, count, rel_dist)
                assert np.array_equal(ours, _reference_spread_select(points, idx, count, rel_dist))


def test_new_cuts_hold_their_rows_and_normalized_witnesses():
    engine = _Engine(qubit(0.6), np.eye(3), np.eye(3))
    rng = np.random.default_rng(92)
    ys = rng.normal(size=(7, 3))
    vs = unit_witnesses(rng, 7, 2)
    rows, rhs = engine.cut_rows(ys, vs)
    # two batches, the second with scaled witnesses, appended in order
    cuts = engine.new_cuts(ys[:4], vs[:4]).extend(engine.new_cuts(ys[4:], 3.0 * vs[4:]))
    assert cuts.rhs.size == 7
    assert np.array_equal(cuts.rows[:4], rows[:4])
    assert np.array_equal(cuts.rhs[:4], rhs[:4])
    # rows and right-hand sides are those of the witnesses as given
    rows_scaled, rhs_scaled = engine.cut_rows(ys[4:], 3.0 * vs[4:])
    assert np.array_equal(cuts.rows[4:], rows_scaled)
    assert np.array_equal(cuts.rhs[4:], rhs_scaled)
    assert np.array_equal(cuts.xi, ys)
    assert np.allclose(cuts.v, vs, rtol=0.0, atol=1e-15)
    assert np.all(cuts.age == 0)


def _hand_cuts(rhs, age):
    """Cuts on two LP variables with rows (1, 1): at x = (0.5, 0.5) rhs 1 is tight, rhs 2 slack."""
    k = len(rhs)
    return _Cuts(np.ones((k, 2)), np.array(rhs, dtype=float), np.array(age, dtype=np.intp),
                 np.arange(k, dtype=float)[:, None], unit_witnesses(np.random.default_rng(k), k, 2))


X_HALF = np.array([0.5, 0.5])


def test_retire_ages_nothing_at_or_below_the_floor():
    cuts = _hand_cuts([2.0] * 5, [7] * 5)
    basis = np.array([2, -1])
    kept, new_basis = cuts.retire(X_HALF, 5, basis)
    assert kept is cuts and new_basis is basis
    # one cut more than the floor: every slack cut ages and reaches 8; all
    # but the basic one go, and its basis label is renumbered
    kept, new_basis = cuts.retire(X_HALF, 4, basis)
    assert np.array_equal(kept.age, [8]) and np.array_equal(kept.xi, cuts.xi[2:3])
    assert np.array_equal(new_basis, [0, -1])


def test_retire_keeps_order_and_renumbers_the_basis():
    rhs = [2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0]
    age = [7, 7, 3, 7, 0, 0, 7, 5]
    cuts = _hand_cuts(rhs, age)
    # slack cuts age by one and go at 8; tight ones reset to 0
    keep = np.array([False, True, True, False, True, True, False, True])
    basis = np.array([7, -2, 1, 5, -4, 4])
    kept, new_basis = cuts.retire(X_HALF, 0, basis)
    assert np.array_equal(kept.age, [0, 4, 0, 1, 0])
    for name in ("rows", "rhs", "xi", "v"):
        assert np.array_equal(getattr(kept, name), getattr(cuts, name)[keep])
    assert np.array_equal(new_basis[basis < 0], basis[basis < 0])
    for old, new in zip(basis[basis >= 0], new_basis[basis >= 0]):
        assert np.array_equal(kept.xi[new], cuts.xi[old])
        assert np.array_equal(kept.v[new], cuts.v[old])
    # nothing retired: ages move, the basis is returned as it was
    again, same = kept.retire(X_HALF, 0, new_basis)
    assert np.array_equal(again.age, [0, 5, 0, 2, 0]) and same is new_basis


def test_retire_keeps_a_basic_row():
    # cuts 0 and 1 are slack and reach age 8; cut 1 is basic and stays
    cuts = _hand_cuts([2.0, 2.0, 1.0], [7, 7, 0])
    kept, new_basis = cuts.retire(X_HALF, 0, np.array([1, 2, -1]))
    assert np.array_equal(kept.age, [8, 0]) and np.array_equal(kept.xi, cuts.xi[1:])
    assert np.array_equal(new_basis, [0, 1, -1])


def test_solved_cuts_are_unit_and_distinct(qubit_solution):
    # criterion 05's qutrit solve
    qutrit = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    criterion_05 = solve_dual(qutrit, np.eye(2), SolverConfig(feas_tol=1e-5, obj_tol=1e-5, seed=0))
    for res in (qubit_solution[1], criterion_05):
        xi = np.array([c.xi for c in res.cuts])
        v = np.array([c.v for c in res.cuts])
        assert len(res.cuts) > 20
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12)
        dist = np.linalg.norm(xi[:, None, :] - xi[None, :, :], axis=2)
        close = dist <= 1e-9 * (1.0 + np.linalg.norm(xi, axis=1))[None, :]
        same = close & (np.abs(v.conj() @ v.T) >= 1.0 - 1e-10)
        np.fill_diagonal(same, False)
        assert not np.any(same)


# -- dual point, weight and config types ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_dual_points_and_cuts_are_rejected(bad):
    with pytest.raises(ValidationError):
        DualPoint(np.eye(3), [[bad, 0.0], [0.0, -1.0]])
    with pytest.raises(ValidationError):
        DualPoint(np.eye(3), [[-1.0, 1j * bad], [-1j * bad, -1.0]])
    with pytest.raises(ValidationError):
        residual(qubit(), np.eye(3), DualPoint(np.eye(3), -np.eye(2)), [0.0, bad, 0.0])
    with pytest.raises(ValidationError, match="finite real matrix"):
        DualPoint(np.diag([1.0, bad, 1.0]), -np.eye(2))


@pytest.mark.parametrize("point", [
    pytest.param(DualPoint(np.eye(2), -np.eye(2)), id="a-2x2"),
    pytest.param(DualPoint(np.eye(3), -np.eye(3)), id="S-3x3"),
])
@pytest.mark.parametrize("call", [
    pytest.param(lambda m, p: residual(m, np.eye(3), p, [1.0, 0.0, 0.0]), id="residual"),
    pytest.param(lambda m, p: spur(m, p), id="spur"),
    pytest.param(lambda m, p: separation_oracle(m, np.eye(3), p), id="separation_oracle"),
])
def test_dual_points_sized_for_another_model_are_rejected(call, point):
    with pytest.raises(ValidationError, match="dual point"):
        call(qubit(), point)


@pytest.mark.parametrize("call", [
    pytest.param(lambda m: SolverConfig(max_rounds=2.5), id="max_rounds-float"),
    pytest.param(lambda m: SolverConfig(max_rounds="3"), id="max_rounds-str"),
    pytest.param(lambda m: SolverConfig(seed=1.5), id="seed-float"),
    pytest.param(lambda m: SolverConfig(seed=True), id="seed-bool"),
    pytest.param(lambda m: SolverConfig(feas_tol="1e-3"), id="feas_tol-str"),
    pytest.param(lambda m: simulate(m, optimal_random_measurement(m, np.eye(3)), 2.5, 0, np.eye(3)),
                 id="simulate-samples-float"),
    pytest.param(lambda m: sample_frontier(m, 2.5, 0), id="sample_frontier-count-float"),
    pytest.param(lambda m: simulate(m, optimal_random_measurement(m, np.eye(3)), 2**63, 0, np.eye(3)),
                 id="simulate-samples-2e63"),
    pytest.param(lambda m: dual_submodel_inequality(m, [0.7], np.eye(1)), id="subspace-index-float"),
    pytest.param(lambda m: dual_submodel_inequality(m, [True], np.eye(1)), id="subspace-index-bool"),
    pytest.param(lambda m: dual_submodel_inequality(m, ["x"], np.eye(1)), id="subspace-index-str"),
    pytest.param(lambda m: sample_locally_unbiased(m, np.random.default_rng(0), n_atoms=4.7),
                 id="n_atoms-float"),
])
def test_non_integer_counts_and_seeds_are_input_errors(call):
    with pytest.raises(ValidationError):
        call(qubit())


def _bad_weight(kind, n):
    if kind == "not-pd":
        return np.diag([1.0] * (n - 1) + [-1.0])
    if kind == "asymmetric":
        g = np.eye(n)
        g[0, 1] = 0.5
        return g
    return np.eye(n + 1)  # wrong size


@pytest.mark.parametrize("kind", ["not-pd", "asymmetric", "wrong-size"])
@pytest.mark.parametrize("call, n", [
    pytest.param(lambda m, g: solve_dual(m, g), 3, id="solve_dual"),
    pytest.param(lambda m, g: separation_oracle(m, g, DualPoint(np.eye(3), -np.eye(2))), 3,
                 id="separation_oracle"),
    pytest.param(lambda m, g: dual_submodel_inequality(m, [0, 1], g), 2,
                 id="dual_submodel_inequality"),
])
def test_bad_weight_is_rejected_before_any_engine(monkeypatch, call, n, kind):
    # the engine takes G as validated, so each entry point must check it first
    def no_engine(*args):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(qcr.dual, "_Engine", no_engine)
    with pytest.raises(ValidationError):
        call(qubit(), _bad_weight(kind, n))


def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(feas_tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(max_rounds=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            SolverConfig(obj_tol=bad)
    with pytest.raises(ValidationError):
        SolverConfig(seed=-1)
    # NumPy scalars are named as plain numbers
    with pytest.raises(ValidationError, match=r"positive, got -1\.0$"):
        SolverConfig(feas_tol=np.float64(-1.0))
    with pytest.raises(ValidationError, match=r"^max_rounds must be an integer >= 1, got 0$"):
        SolverConfig(max_rounds=np.int64(0))
