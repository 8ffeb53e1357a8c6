import tracemalloc

import numpy as np
import pytest

from qcr.dual import (
    LAM_MIN_BLOCK,
    Cut,
    DualPoint,
    SolverConfig,
    _Engine,
    _lam_min_batch,
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
    optimal_weight_operator,
    sample_locally_unbiased,
)
from qcr.model import PAULI_1, build_model, builtin_model, cotangent_operator
from qcr.operators import DensityOperator

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


def commuting_model(d, n, seed):
    rng = np.random.default_rng(seed)
    rho = np.diag(0.8 * rng.dirichlet(np.ones(d)) + 0.2 / d).astype(complex)
    tangents = [np.diag(x - x.mean()).astype(complex) for x in rng.normal(size=(n, d))]
    return build_model(DensityOperator(rho), tangents)


def test_blocked_lam_min_matches_one_shot_batch():
    m = builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25))
    engine = _Engine(m, np.eye(2), np.eye(2))
    rng = np.random.default_rng(4)
    b = rng.normal(size=(2, 2))
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = -(h @ h.conj().T)
    # a ragged last block, and points spread over several scales
    ys = rng.normal(size=(10_001, 2)) * np.geomspace(1e-3, 1e2, 10_001)[:, None]
    assert ys.shape[0] > 2 * LAM_MIN_BLOCK
    blocked = engine.lam_min(b, s, ys)
    one_shot = _lam_min_batch(engine.residuals(b, s, ys))
    assert np.array_equal(blocked, one_shot)


def test_boosted_sweep_memory_is_bounded():
    # d = 4, n = 3: a boost-3 sweep evaluates ~263k points, whose residuals
    # alone take 64 MB when built in one array
    m = commuting_model(4, 3, seed=0)
    engine = _Engine(m, np.eye(3), np.eye(3))
    b = np.zeros((3, 3))
    s = np.zeros((4, 4), dtype=complex)
    tracemalloc.start()
    try:
        engine.separate(b, s, np.random.default_rng(1), SolverConfig(), boost=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# -- solve_dual -------------------------------------------------------------------

def test_solve_qubit_matches_random_bound(qubit_solution):
    m, sol = qubit_solution
    assert sol.status == "converged"
    assert sol.optimum == pytest.approx(7.84, abs=1e-3)
    assert sol.lp_value >= sol.optimum - 1e-12


def test_solve_qutrit_matches_classical_bound(qutrit_solution):
    m, sol = qutrit_solution
    assert sol.status == "converged"
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
        diffs = np.diff(sol.lp_values)
        assert np.all(diffs <= 1e-9)


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
    for value, _point in sol.feasible_points:
        assert value <= min_dev + 1e-9


def test_unconverged_status_and_best_point():
    m = qubit()
    cfg = SolverConfig(feas_tol=1e-5, obj_tol=1e-5, max_rounds=3, seed=0)
    sol = solve_dual(m, np.eye(3), cfg)
    assert sol.status == "unconverged"
    assert np.isfinite(sol.optimum)
    assert sol.feasibility >= -1e-12
    # the restored value is still a valid lower bound
    assert sol.optimum <= 7.84 + 1e-6


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
    rng = np.random.default_rng(19)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = a @ a.conj().T + 0.3 * np.eye(3)
    rho = DensityOperator(p / np.trace(p).real)
    tangents = []
    for _ in range(2):
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (b + b.conj().T) / 2
        tangents.append(h - np.trace(h).real / 3 * np.eye(3))
    m = build_model(rho, tangents)
    g = np.eye(2)
    sol = solve_dual(m, g, SolverConfig(feas_tol=1e-4, obj_tol=1e-4, seed=3))
    classical = float(np.trace(g @ m.fisher_inverse))
    random_bound = optimal_random_bound(m, g)
    assert classical - 1e-3 <= sol.optimum <= random_bound + 1e-3


# -- cut and config types ---------------------------------------------------------------

def test_cut_requires_unit_witness():
    with pytest.raises(ValidationError):
        Cut(np.zeros(3), np.array([1.0, 1.0]))


def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(feas_tol=0.0)
    with pytest.raises(ValidationError):
        SolverConfig(max_rounds=0)
