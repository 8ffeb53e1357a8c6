import tracemalloc

import numpy as np
import pytest

from qcr.errors import NotPsdError, UnbiasednessError, ValidationError
from qcr.measurement import (
    RandomMeasurement,
    covariance,
    deviation,
    frontier_witnesses_2d,
    is_locally_unbiased,
    mix_measurements,
    optimal_covariance,
    optimal_random_bound,
    optimal_random_measurement,
    optimal_weight_operator,
    random_certificate_gap,
    require_int,
    require_weight_matrix,
    sample_frontier,
    sample_locally_unbiased,
    simulate,
)
from qcr.model import build_model, builtin_model, cotangent_operator, PAULI_1
from qcr.operators import DensityOperator


def qubit(alpha=0.6):
    return builtin_model("qubit-full", alpha=alpha)


def eq18_covariance(model, p):
    # direct summation oracle for the covariance
    v = np.zeros((model.n, model.n))
    for w, d, c in zip(p.weights, p.directions, p.observables):
        norm2 = float(c @ model.fisher @ c)
        v += w * norm2 * np.outer(d, d)
    return v


def single(direction, observable):
    """A one-component measurement."""
    return RandomMeasurement([1.0], [direction], [observable])


def random_j_selfadjoint_pd(model, rng, trace=None):
    n = model.n
    a = rng.normal(size=(n, n))
    p = a @ a.T + 0.2 * np.eye(n)
    w = model.fisher_isqrt @ p @ model.fisher_sqrt
    if trace is not None:
        w *= trace / np.trace(w)
    return w


def one_parameter_model():
    rho = DensityOperator((np.eye(2) + 0.6 * np.diag([1.0, -1.0])) / 2)
    return build_model(rho, [PAULI_1 / 2])


# -- weight matrices ---------------------------------------------------------

def test_weight_matrix_validation():
    require_weight_matrix(np.eye(2))
    with pytest.raises(ValidationError):
        require_weight_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotPsdError):
        require_weight_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError):
        require_weight_matrix(np.eye(3), 2)


def test_weight_matrix_validation_is_scale_free():
    for scale in (1e-11, 1.0, 1e200):
        g = scale * np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(require_weight_matrix(g), g)
        with pytest.raises(NotPsdError, match="lambda_min"):
            require_weight_matrix(scale * np.diag([1.0, 1e-11]))
        with pytest.raises(NotPsdError):
            require_weight_matrix(scale * np.diag([1.0, -1e-3]))
        with pytest.raises(ValidationError, match="symmetric"):
            require_weight_matrix(scale * np.array([[1.0, 1e-9], [0.0, 1.0]]))
    # a relative 1e-13 asymmetry is rounding, and the mean is kept
    g = require_weight_matrix(1e-11 * np.array([[1.0, 1e-13], [0.0, 1.0]]))
    assert g[0, 1] == g[1, 0]
    with pytest.raises(NotPsdError):
        require_weight_matrix(np.zeros((2, 2)))
    with pytest.raises(NotPsdError):
        require_weight_matrix(np.diag([1.0, 1.0, 1e300]))


# -- unbiasedness ------------------------------------------------------------

def test_optimal_measurement_is_locally_unbiased():
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    rep = is_locally_unbiased(m, p)
    assert rep
    assert rep.jacobian_residual <= 1e-10
    # no mean condition is checked: every observable has zero mean at rho
    for c in p.observables:
        assert abs(np.trace(m.rho.matrix @ cotangent_operator(m, c))) <= 1e-12


def test_single_atom_cannot_cover_three_parameters():
    m = qubit(0.0)
    e1 = np.array([1.0, 0.0, 0.0])
    assert not is_locally_unbiased(m, single(e1, e1))


def test_reciprocal_scaling_keeps_verdict():
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    scaled = RandomMeasurement(p.weights, 2.0 * p.directions, 0.5 * p.observables)
    assert is_locally_unbiased(m, scaled)


def test_require_int_names_numpy_values_as_plain_numbers():
    assert require_int(np.int64(3), "seed") == 3
    for value, shown in ((np.int64(-3), "-3"), (np.float64(2.5), "2.5"), (np.True_, "True")):
        with pytest.raises(ValidationError) as err:
            require_int(value, "seed")
        assert str(err.value) == f"seed must be an integer >= 0, got {shown}"


def test_measurement_validation():
    w, d, c = np.array([0.25, 0.75]), np.ones((2, 3)), np.eye(3)[:2]
    p = RandomMeasurement(w, d, c)
    assert p.n == 3
    # the arrays are stored as read-only copies: the caller's stay writable
    for stored, given in ((p.weights, w), (p.directions, d), (p.observables, c)):
        assert not stored.flags.writeable and given.flags.writeable
        assert np.array_equal(stored, given) and not np.shares_memory(stored, given)
    q = optimal_random_measurement(qubit(), np.eye(3))
    with pytest.raises(ValidationError, match="sum to 1"):
        mix_measurements([q, q], [0.5, 0.6])


@pytest.mark.parametrize("weights, directions, observables, match", [
    ([], np.zeros((0, 2)), np.zeros((0, 2)), "shapes"),
    ([0.5, 0.5], np.ones((1, 2)), np.ones((1, 2)), "shapes"),
    ([1.0], np.ones(2), np.ones(2), "shapes"),
    ([[1.0]], np.ones((1, 2)), np.ones((1, 2)), "shapes"),
    ([1.0], np.ones((1, 2)), np.ones((1, 3)), "shapes"),
    ([0.0, 1.0], np.ones((2, 2)), np.ones((2, 2)), "positive"),
    ([-0.5, 1.5], np.ones((2, 2)), np.ones((2, 2)), "positive"),
    ([np.nan], np.ones((1, 2)), np.ones((1, 2)), "positive"),
    ([0.7], np.ones((1, 2)), np.ones((1, 2)), "sum to 0.7, not 1"),
    ([1.0], [[1.0, np.nan]], np.ones((1, 2)), "finite"),
    ([1.0], np.ones((1, 2)), [[np.inf, 1.0]], "finite"),
], ids=["zero-rows", "weights-length", "directions-1d", "weights-2d", "observables-shape",
        "zero-weight", "negative-weight", "nan-weight", "weight-sum", "nan-direction",
        "inf-observable"])
def test_malformed_measurement_arrays_are_rejected(weights, directions, observables, match):
    with pytest.raises(ValidationError, match=match):
        RandomMeasurement(weights, directions, observables)


def test_array_consumers_match_per_component_sums():
    m = qubit(0.3)
    rng = np.random.default_rng(40)
    g = np.diag([1.0, 2.0, 0.5])
    a = rng.normal(size=(3, 3))
    for _ in range(5):
        p = sample_locally_unbiased(m, rng, n_atoms=6)
        jac = sum(w * np.outer(d, m.fisher @ c) for w, d, c in zip(p.weights, p.directions, p.observables))
        assert is_locally_unbiased(m, p).jacobian_residual == pytest.approx(
            np.linalg.norm(jac - np.eye(3)), abs=1e-13)
        assert np.allclose(covariance(m, p), eq18_covariance(m, p), rtol=1e-13, atol=1e-13)
        terms = [float(d @ g @ d) * float(c @ m.fisher @ c) - float(c @ m.fisher @ (a @ d)) - 0.3
                 for d, c in zip(p.directions, p.observables)]
        rep = random_certificate_gap(m, g, p, a, 0.3)
        assert rep.gap == pytest.approx(float(np.dot(p.weights, terms)), rel=1e-13, abs=1e-13)
        assert rep.pointwise_min == pytest.approx(min(terms), rel=1e-13, abs=1e-13)


# -- covariance and deviation -------------------------------------------------

def test_covariance_of_optimal_measurement():
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    v = covariance(m, p)
    assert np.allclose(v, np.diag([2.8, 2.8, 2.24]), atol=1e-12)
    assert np.allclose(v, eq18_covariance(m, p), atol=1e-12)


def test_covariance_requires_unbiasedness():
    m = qubit()
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(UnbiasednessError):
        covariance(m, single(e1, e1))


def test_one_parameter_classical_covariance():
    m = one_parameter_model()
    j = m.fisher[0, 0]
    p = single([1.0 / j], [1.0])
    assert covariance(m, p)[0, 0] == pytest.approx(1.0 / j, abs=1e-12)


def test_mixture_affinity():
    m = qubit()
    p1 = optimal_random_measurement(m, np.eye(3))
    p2 = optimal_random_measurement(m, np.diag([2.0, 1.0, 1.0]))
    mix = mix_measurements([p1, p2], [0.5, 0.5])
    assert np.allclose(covariance(m, mix),
                       0.5 * covariance(m, p1) + 0.5 * covariance(m, p2), atol=1e-12)
    g = np.diag([1.0, 2.0, 3.0])
    assert deviation(m, g, mix) == pytest.approx(
        0.5 * deviation(m, g, p1) + 0.5 * deviation(m, g, p2), abs=1e-12)


def test_deviation_examples():
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    assert deviation(m, np.eye(3), p) == pytest.approx(7.84, abs=1e-12)
    eps = 1e-3
    assert deviation(m, eps * np.eye(3), p) == pytest.approx(
        eps * np.trace(covariance(m, p)), abs=1e-14)


def test_unit_trace_weight_operator_deviation_is_one():
    m = qubit()
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = random_j_selfadjoint_pd(m, rng, trace=1.0)
        g = w.T @ m.fisher @ w
        p = optimal_random_measurement(m, g)
        assert deviation(m, g, p) == pytest.approx(1.0, abs=1e-10)


# -- optimal weight operator and bound ----------------------------------------

def test_optimal_weight_operator_examples():
    m = qubit()
    assert np.allclose(optimal_weight_operator(m, m.fisher), np.eye(3), atol=1e-10)
    assert np.allclose(optimal_weight_operator(m, np.eye(3)),
                       np.diag([1.0, 1.0, 0.8]), atol=1e-10)
    c = 1.7
    assert np.allclose(optimal_weight_operator(m, c**2 * m.fisher),
                       c * np.eye(3), atol=1e-10)


def test_optimal_weight_operator_properties():
    rng = np.random.default_rng(8)
    m = qubit(0.3)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.1 * np.eye(3)
        w = optimal_weight_operator(m, g)
        assert np.linalg.norm(w.T @ m.fisher @ w - g) <= 1e-9
        assert np.linalg.norm(m.fisher @ w - w.T @ m.fisher) <= 1e-9
        assert np.all(np.linalg.eigvals(w).real > 0)


def test_optimal_random_bound_examples():
    m = qubit()
    assert optimal_random_bound(m, np.eye(3)) == pytest.approx(7.84, abs=1e-12)
    assert optimal_random_bound(m, m.fisher) == pytest.approx(9.0, abs=1e-12)
    # unit-trace factorized weights give exactly 1
    rng = np.random.default_rng(4)
    w = random_j_selfadjoint_pd(m, rng, trace=1.0)
    assert optimal_random_bound(m, w.T @ m.fisher @ w) == pytest.approx(1.0, abs=1e-10)


def test_sampled_measurements_never_beat_bound():
    m = qubit()
    g = m.fisher
    bound = optimal_random_bound(m, g)
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = sample_locally_unbiased(m, rng)
        assert deviation(m, g, p) >= bound - 1e-9


# -- optimal measurement -------------------------------------------------------

def test_optimal_measurement_uniform_weight():
    m = qubit()
    n = m.n
    p = optimal_random_measurement(m, m.fisher / n**2)
    assert np.allclose(p.weights, 1.0 / n, atol=1e-12)
    assert np.all(np.linalg.norm(p.directions - n * p.observables, axis=1) <= 1e-9)
    assert np.allclose(covariance(m, p), n * m.fisher_inverse, atol=1e-9)
    assert deviation(m, m.fisher / n**2, p) == pytest.approx(1.0, abs=1e-12)


def test_optimal_measurement_identity_weight():
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    assert np.allclose(np.sort(p.weights), np.array([0.8, 1.0, 1.0]) / 2.8, atol=1e-12)


def test_optimal_measurement_one_parameter():
    m = one_parameter_model()
    g = np.array([[3.0]])
    p = optimal_random_measurement(m, g)
    assert p.weights.shape == (1,)
    assert deviation(m, g, p) == pytest.approx(3.0 / m.fisher[0, 0], abs=1e-12)


# -- certificate gap -----------------------------------------------------------

def test_certificate_gap_zero_at_optimum():
    m = qubit()
    rng = np.random.default_rng(12)
    w = random_j_selfadjoint_pd(m, rng, trace=1.0)
    g = w.T @ m.fisher @ w
    p = optimal_random_measurement(m, g)
    rep = random_certificate_gap(m, g, p, 2.0 * w, -1.0)
    assert abs(rep.gap) <= 1e-10
    assert rep.pointwise_ok
    assert rep.identity_residual <= 1e-10


def test_certificate_gap_zero_multiplier_equals_deviation():
    m = qubit()
    g = np.diag([1.0, 2.0, 0.5])
    p = optimal_random_measurement(m, g)
    rep = random_certificate_gap(m, g, p, np.zeros((3, 3)), 0.0)
    assert rep.gap == pytest.approx(deviation(m, g, p), abs=1e-10)


def test_certificate_gap_positive_for_suboptimal_measurement():
    m = qubit()
    g = np.eye(3)
    w = optimal_weight_operator(m, g)
    w /= np.trace(w)
    g_scaled = w.T @ m.fisher @ w
    # measure with the optimum for a different weight, test the g_scaled multiplier
    p_other = optimal_random_measurement(m, m.fisher)
    rep = random_certificate_gap(m, g_scaled, p_other, 2.0 * w, -1.0)
    assert rep.gap > 1e-6


@pytest.mark.parametrize("a, s, match", [
    (np.full((3, 3), np.nan), 0.0, "multiplier a"),
    (np.diag([1.0, np.inf, 1.0]), 0.0, "multiplier a"),
    (np.zeros((2, 2)), 0.0, "multiplier a"),
    (np.zeros((3, 3)), float("nan"), "multiplier s"),
    (np.zeros((3, 3)), -float("inf"), "multiplier s"),
    (np.zeros((3, 3)), np.zeros(2), "multiplier s"),
    (np.zeros((3, 3)), "x", "multiplier s"),
    (np.zeros((3, 3)), None, "multiplier s"),
    (np.zeros((3, 3)), True, "multiplier s"),
    (np.zeros((3, 3)), 1j, "multiplier s"),
], ids=["a-nan", "a-inf", "a-shape", "s-nan", "s-inf", "s-array", "s-str", "s-none", "s-bool",
        "s-complex"])
def test_certificate_gap_rejects_malformed_multipliers(a, s, match):
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    with pytest.raises(ValidationError, match=match):
        random_certificate_gap(m, np.eye(3), p, a, s)


# -- frontier ------------------------------------------------------------------

def test_optimal_covariance_examples():
    m = qubit()
    n = m.n
    assert np.allclose(optimal_covariance(m, m.fisher / n**2), n * m.fisher_inverse, atol=1e-10)
    # scale invariance
    assert np.allclose(optimal_covariance(m, m.fisher), optimal_covariance(m, 3.7 * m.fisher),
                       atol=1e-10)
    assert np.allclose(optimal_covariance(m, np.eye(3)), np.diag([2.8, 2.8, 2.24]), atol=1e-10)


def test_optimal_covariance_trace_identity():
    m = qubit(0.3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 0.2 * np.eye(3)
        q = optimal_covariance(m, g)
        assert np.trace(g @ q) == pytest.approx(optimal_random_bound(m, g), abs=1e-9)
        assert np.allclose(q, covariance(m, optimal_random_measurement(m, g)), atol=1e-9)


def test_frontier_samples_dominate_inverse_fisher():
    m = builtin_model("qubit-equatorial", alpha=0.6)
    samples = sample_frontier(m, 50, seed=77)
    assert np.all(np.linalg.eigvalsh(samples - m.fisher_inverse)[:, 0] >= -1e-9)
    assert np.all(np.abs(frontier_witnesses_2d(m, samples)[1] - 1.0) <= 1e-9)


def test_frontier_witness_examples():
    m = builtin_model("qubit-equatorial", alpha=0.6)
    vs = np.stack([
        np.linalg.inv(0.5 * np.eye(2)) @ m.fisher_inverse,
        np.linalg.inv(np.diag([0.3, 0.7])) @ m.fisher_inverse,
        3.0 * m.fisher_inverse,
    ])
    x, dets = frontier_witnesses_2d(m, vs)
    assert np.allclose(x[0], np.eye(2), atol=1e-10)
    # symbolic identity at w = 0.3: X = diag(0.7/0.3, 0.3/0.7)
    assert np.allclose(np.sort(np.diag(x[1])), [0.3 / 0.7, 0.7 / 0.3], atol=1e-10)
    assert dets[:2] == pytest.approx([1.0, 1.0], abs=1e-12)
    # V = 3 J^-1 is not a frontier point: X = 2 Id, det 4
    assert np.allclose(x[2], 2.0 * np.eye(2), atol=1e-10)
    assert dets[2] == pytest.approx(4.0, abs=1e-10)


def test_frontier_witness_requires_two_parameters():
    with pytest.raises(ValidationError):
        frontier_witnesses_2d(qubit(), np.eye(2)[None])
    with pytest.raises(ValidationError):
        frontier_witnesses_2d(builtin_model("qubit-equatorial", alpha=0.6), np.eye(2))


def _commuting_d4():
    """The d = 4 commuting model with three parameters of the bench's closed-form workload."""
    rng = np.random.default_rng(4)
    rho = np.diag(0.8 * rng.dirichlet(np.ones(4)) + 0.2 / 4).astype(complex)
    tangents = [np.diag(x - x.mean()).astype(complex) for x in rng.normal(size=(3, 4))]
    return build_model(rho, tangents)


@pytest.mark.parametrize("make", [
    lambda: builtin_model("qubit-full", alpha=0.6),
    lambda: builtin_model("qubit-equatorial", alpha=0.3),
    lambda: builtin_model("qutrit-diagonal", probs=(0.5, 0.25, 0.25)),
    _commuting_d4,
], ids=["qubit-full", "qubit-equatorial", "qutrit-diagonal", "commuting-d4"])
def test_batched_frontier_witness_matches_per_sample_loop(make):
    m = make()
    samples = sample_frontier(m, 2000, seed=3)
    if m.n != 2:
        with pytest.raises(ValidationError):
            frontier_witnesses_2d(m, samples)
        return
    x, dets = frontier_witnesses_2d(m, samples)
    # reference: one matrix at a time, as det(V J - Id) was computed per sample
    ref_x = np.array([v @ m.fisher - np.eye(2) for v in samples])
    ref_dets = np.array([float(np.linalg.det(xv)) for xv in ref_x])
    assert x.tobytes() == ref_x.tobytes()
    assert dets.tobytes() == ref_dets.tobytes()


# -- sampling and simulation ----------------------------------------------------

def test_sampled_measurements_cr_ordering():
    m = qubit(0.3)
    rng = np.random.default_rng(14)
    for _ in range(100):
        p = sample_locally_unbiased(m, rng)
        v = covariance(m, p)
        assert np.linalg.eigvalsh(v - m.fisher_inverse)[0] >= -1e-9


def test_simulate_deterministic():
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    a = simulate(m, p, 5000, seed=123)
    b = simulate(m, p, 5000, seed=123)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)
    c = simulate(m, p, 5000, seed=124)
    assert not np.array_equal(a.mean, c.mean)


def test_simulate_moments_converge():
    m = qubit()
    g = np.eye(3)
    p = optimal_random_measurement(m, g)
    sim = simulate(m, p, 200_000, seed=5, weight=g)
    v = covariance(m, p)
    se = np.sqrt(np.diag(v) / sim.n_samples)
    assert np.all(np.abs(sim.mean) <= 5 * se)
    assert abs(sim.quad_mean - np.trace(g @ v)) <= 5 * sim.quad_se


def test_simulate_requires_unbiased():
    m = qubit()
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(UnbiasednessError):
        simulate(m, single(e1, e1), 10, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
def test_sampling_rejects_bad_seed(seed):
    m = qubit()
    p = optimal_random_measurement(m, np.eye(3))
    with pytest.raises(ValidationError, match="seed"):
        simulate(m, p, 10, seed=seed)
    with pytest.raises(ValidationError, match="seed"):
        sample_frontier(m, 3, seed=seed)


@pytest.mark.parametrize("make", [
    pytest.param(lambda m, rng: sample_locally_unbiased(m, rng, n_atoms=6), id="sampled-6-atoms"),
])
def test_simulate_shifted_and_many_atom_measurements(make):
    m = qubit()
    g = np.diag([1.0, 2.0, 0.7])
    p = make(m, np.random.default_rng(21))
    assert len(p.weights) > m.n
    sim = simulate(m, p, 200_000, seed=6, weight=g)
    v = covariance(m, p)
    se = np.sqrt(np.diag(v) / sim.n_samples)
    assert np.all(np.abs(sim.mean) <= 5 * se)
    assert abs(sim.quad_mean - np.trace(g @ v)) <= 5 * sim.quad_se


def test_simulate_memory_flat_and_reproducible():
    # outcome counts are drawn, not samples: a run reproduces bit for bit and
    # its memory stays flat, up to 1e15 samples
    m = qubit()
    g = np.eye(3)
    p = optimal_random_measurement(m, g)
    for samples in (1_000_003, 10**15):
        tracemalloc.start()
        try:
            a = simulate(m, p, samples, seed=7, weight=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        b = simulate(m, p, samples, seed=7, weight=g)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert a.quad_mean == b.quad_mean and a.quad_se == b.quad_se
        # drawing 1e6 samples at once takes about 62 MB
        assert peak < 16 * 2**20
