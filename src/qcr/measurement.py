"""Finite-support random measurements and the optimal construction.

A random measurement is a finite mixture of simple measurements: with
probability ``weights[k]`` the observable built from the cotangent
coordinates ``observables[k]`` is measured projectively and the eigenvalue
outcome ``y`` is reported as the estimate ``y * directions[k]``.

Local unbiasedness is then one linear condition on the Jacobian: the mean
estimate vanishes for every such measurement, as each observable is a sum of
SLDs and every SLD has zero mean, tr(rho L_i) = tr(rho o L_i) = tr(T_i) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, UnbiasednessError, ValidationError
from .model import StatisticalModel, cotangent_operator
from .operators import _readonly, eigh, sqrt_psd

WEIGHT_SUM_TOL = 1e-12
WEIGHT_PD_TOL = 1e-10
WEIGHT_SYM_TOL = 1e-12
UNBIASED_TOL = 1e-8
CERTIFICATE_TOL = 1e-9
SAMPLE_TRIES = 50


@dataclass(frozen=True)
class RandomMeasurement:
    """Finite-support probability measure over (direction, observable) pairs.

    Row k of the ``(k, n)`` arrays ``directions`` and ``observables`` is one
    mixture component, taken with probability ``weights[k]``. The arrays are
    stored as read-only copies.
    """

    weights: np.ndarray
    directions: np.ndarray
    observables: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        d = np.array(self.directions, dtype=float)
        c = np.array(self.observables, dtype=float)
        if w.ndim != 1 or w.size == 0 or d.ndim != 2 or d.shape != c.shape or len(d) != w.size:
            raise ValidationError(f"measurement: weights {w.shape}, directions {d.shape} and observables "
                                  f"{c.shape} must have shapes (k,), (k, n) and (k, n) with k >= 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(c))):
            raise ValidationError("measurement: coordinates must be finite")
        if not np.all(w > 0.0):
            raise ValidationError("measurement: weights must be positive")
        total = math.fsum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"measurement: weights sum to {total!r}, not 1")
        for name, a in (("weights", w), ("directions", d), ("observables", c)):
            object.__setattr__(self, name, _readonly(a))

    @property
    def n(self) -> int:
        return self.directions.shape[1]


def mix_measurements(parts, weights) -> RandomMeasurement:
    """Convex mixture of random measurements (weights must sum to 1)."""
    w = np.asarray(weights, dtype=float)
    if len(parts) != w.size or abs(w.sum() - 1.0) > WEIGHT_SUM_TOL or np.any(w <= 0):
        raise ValidationError("mixture weights must be positive and sum to 1")
    return RandomMeasurement(np.concatenate([wi * p.weights for p, wi in zip(parts, w)]),
                             np.concatenate([p.directions for p in parts]),
                             np.concatenate([p.observables for p in parts]))


def require_weight_matrix(g, n: int | None = None) -> np.ndarray:
    """Validate a symmetric positive-definite weight matrix.

    Both tests are relative, so they accept any positive multiple of a valid
    weight: symmetry within ``WEIGHT_SYM_TOL * max|G|``, and a smallest
    eigenvalue above ``WEIGHT_PD_TOL`` times the largest one in magnitude.
    """
    m = np.asarray(g, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"weight matrix: expected square, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise ValidationError(f"weight matrix: expected {n}x{n}, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("weight matrix: entries must be finite")
    if np.max(np.abs(m - m.T)) > WEIGHT_SYM_TOL * np.max(np.abs(m)):
        raise ValidationError("weight matrix: not symmetric")
    m = (m + m.T) / 2.0
    w = np.linalg.eigvalsh(m)
    scale = abs(w[-1])
    if w[0] <= WEIGHT_PD_TOL * scale:
        ratio = w[0] / scale if scale else 0.0
        raise NotPsdError(f"weight matrix: not positive definite (lambda_min / |lambda_max| "
                          f"= {ratio:.3e}, needs > {WEIGHT_PD_TOL:.0e})")
    return m


@dataclass(frozen=True)
class UnbiasednessReport:
    unbiased: bool
    jacobian_residual: float

    def __bool__(self) -> bool:
        return self.unbiased


def is_locally_unbiased(model: StatisticalModel, p: RandomMeasurement) -> UnbiasednessReport:
    """Check that the weighted sum of direction (x) J-observable dyads is the identity.

    It holds when the residual is at most ``UNBIASED_TOL``. The mean estimate
    needs no check: the observable with coordinates c has mean
    sum_i c_i tr(T_i), and ``build_model`` bounds each |tr T_i| by
    ``TANGENT_TRACE_TOL``. A computed mean is rounding of the SLD solve: 6e-17
    on qubits up to alpha = 1 - 2.1e-10, about 1e-9 ||X|| for a d = 6 eigenvalue of 1e-9.
    """
    if p.n != model.n:
        raise ValidationError(f"measurement dimension {p.n} != model dimension {model.n}")
    jac = (p.directions.T * p.weights) @ (p.observables @ model.fisher)
    jac_res = float(np.linalg.norm(jac - np.eye(model.n)))
    return UnbiasednessReport(jac_res <= UNBIASED_TOL, jac_res)


def covariance(model: StatisticalModel, p: RandomMeasurement) -> np.ndarray:
    """Covariance sum_k w_k (c_k^T J c_k) d_k d_k^T of a locally unbiased random measurement."""
    rep = is_locally_unbiased(model, p)
    if not rep:
        raise UnbiasednessError(
            f"measurement is not locally unbiased (jacobian residual {rep.jacobian_residual:.3e})")
    second = np.einsum("ki,ij,kj->k", p.observables, model.fisher, p.observables)
    v = (p.directions.T * (p.weights * second)) @ p.directions
    return (v + v.T) / 2.0


def deviation(model: StatisticalModel, g, p: RandomMeasurement) -> float:
    """Weighted risk tr(G V) of the measurement's covariance."""
    gm = require_weight_matrix(g, model.n)
    return float(np.trace(gm @ covariance(model, p)))


def _whitened_weight_sqrt(model: StatisticalModel, g) -> np.ndarray:
    """(J^{-1/2} G J^{-1/2})^{1/2} for a validated weight matrix G."""
    gm = require_weight_matrix(g, model.n)
    return sqrt_psd(model.fisher_isqrt @ gm @ model.fisher_isqrt).real


def optimal_weight_operator(model: StatisticalModel, g) -> np.ndarray:
    """Positive J-self-adjoint W with W^T J W = G.

    W = J^{-1/2} (J^{-1/2} G J^{-1/2})^{1/2} J^{1/2}; its eigenvalues are those
    of the whitened weight's square root, all positive for PD G.
    """
    return model.fisher_isqrt @ _whitened_weight_sqrt(model, g) @ model.fisher_sqrt


def optimal_random_bound(model: StatisticalModel, g) -> float:
    """Smallest deviation achievable by random measurements: (tr W)^2."""
    return float(np.trace(_whitened_weight_sqrt(model, g))) ** 2


def optimal_random_measurement(model: StatisticalModel, g) -> RandomMeasurement:
    """The deviation-minimizing random measurement for weight G.

    One component per eigenvector of the normalized weight operator: weight
    equal to the eigenvalue, estimate direction the eigenvector divided by
    it, and the observable with the same coordinates as the eigenvector. Its
    covariance is (tr W) W^{-1} J^{-1} and its deviation (tr W)^2.
    """
    lam, u = np.linalg.eigh(_whitened_weight_sqrt(model, g))
    if lam[0] <= 0.0:
        raise NotPsdError("weight operator has a non-positive eigenvalue")
    lam = lam / lam.sum()
    vecs = model.fisher_isqrt @ u
    return RandomMeasurement(lam, (vecs / lam).T, vecs.T)


def optimal_covariance(model: StatisticalModel, g) -> np.ndarray:
    """Covariance of the optimal random measurement, (tr W) W^{-1} J^{-1}.

    This is the Pareto-frontier point selected by the weight G; it is
    invariant under rescaling of G.
    """
    return covariance(model, optimal_random_measurement(model, g))


@dataclass(frozen=True)
class CertificateReport:
    """Slack of a scalar multiplier pair against a random measurement."""

    gap: float
    pointwise_min: float
    pointwise_ok: bool
    identity_residual: float

    def __float__(self) -> float:
        return self.gap


def random_certificate_gap(model: StatisticalModel, g, p: RandomMeasurement, a,
                           s: float) -> CertificateReport:
    """Average slack sum_k w_k [g(x,x)||X||^2 - <X, a(x)> - S] of a multiplier.

    Also reports the smallest per-component integrand (``pointwise_ok`` when
    it is at least ``-CERTIFICATE_TOL``) and, when the measurement is locally
    unbiased, the residual of the identity gap = deviation - tr a - S.
    """
    gm = require_weight_matrix(g, model.n)
    am = np.asarray(a, dtype=float)
    if am.shape != (model.n, model.n):
        raise ValidationError(f"multiplier a: expected {model.n}x{model.n}, got {am.shape}")
    if not np.all(np.isfinite(am)):
        raise ValidationError("multiplier a: entries must be finite")
    if np.ndim(s) or np.asarray(s).dtype.kind not in "iuf" or not math.isfinite(s):
        raise ValidationError(f"multiplier s must be a finite real number, got {plain(s)!r}")
    s = float(s)
    d, cj = p.directions, p.observables @ model.fisher
    quad = np.einsum("ki,ij,kj->k", d, gm, d)
    norm2 = np.einsum("ki,ki->k", cj, p.observables)
    pairing = np.einsum("ki,ki->k", cj, d @ am.T)
    terms = quad * norm2 - pairing - s
    gap = math.fsum(p.weights * terms)
    pmin = float(terms.min())
    identity = float("nan")
    if is_locally_unbiased(model, p):
        identity = abs(gap - (deviation(model, gm, p) - float(np.trace(am)) - s))
    return CertificateReport(gap, pmin, pmin >= -CERTIFICATE_TOL, identity)


def plain(value):
    """``value`` with a NumPy scalar made a Python one, so a message reads -1.0, not np.float64(-1.0)."""
    return value.item() if isinstance(value, np.generic) else value


def require_int(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``minimum`` is an input error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {plain(value)!r}")
    return int(value)


def sample_frontier(model: StatisticalModel, count: int, seed: int) -> np.ndarray:
    """Sample covariance matrices on the random-measurement Pareto frontier.

    Each sample is a random positive J-self-adjoint operator W normalized to
    unit trace, mapped to its frontier covariance W^{-1} J^{-1}; the samples
    come back stacked as one ``(count, n, n)`` array. Every sample dominates
    the inverse Fisher matrix. A count of 2**63 or more, or one whose arrays
    cannot be allocated, is an input error.
    """
    count = require_int(count, "count", 1)
    if count > np.iinfo(np.int64).max:
        raise ValidationError(f"count must be below 2**63, got {count}")
    rng = np.random.default_rng(require_int(seed, "seed"))
    n = model.n
    try:
        a = rng.normal(size=(count, n, n))
        pos = a @ a.transpose(0, 2, 1)
        # small ridge keeps the frontier point numerically well conditioned
        pos += (1e-3 * np.trace(pos, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
        pos /= np.trace(pos, axis1=1, axis2=2)[:, None, None]
        w, u = np.linalg.eigh(pos)
        inv = (u / w[:, None, :]) @ u.transpose(0, 2, 1)
        v = model.fisher_isqrt @ inv @ model.fisher_isqrt
    except MemoryError as exc:
        raise ValidationError(f"cannot hold {count} frontier samples: {exc}") from None
    return (v + v.transpose(0, 2, 1)) / 2.0


def frontier_witnesses_2d(model: StatisticalModel, vs) -> tuple[np.ndarray, np.ndarray]:
    """Two-parameter frontier test of a stack of covariances, in one batch.

    ``vs`` is a ``(k, 2, 2)`` array; returns the ``(k, 2, 2)`` stack of
    X = V J - Id and the ``(k,)`` array of det X, which is 1 on the frontier.
    Each entry has the bits that the same computation gives for one sample.
    """
    if model.n != 2:
        raise ValidationError("frontier witness requires a two-parameter model")
    vm = np.asarray(vs, dtype=float)
    if vm.ndim != 3 or vm.shape[1:] != (2, 2):
        raise ValidationError(f"expected a stack of 2x2 covariances, got shape {vm.shape}")
    x = vm @ model.fisher - np.eye(2)
    return x, np.linalg.det(x)


def sample_locally_unbiased(model: StatisticalModel, rng: np.random.Generator,
                            n_atoms: int | None = None) -> RandomMeasurement:
    """Draw a random locally unbiased measurement with ``n_atoms`` components (default n + 2).

    Components get random weights and observables; the directions solve the
    linear unbiasedness constraint by least squares. Infeasible draws are
    rejected, and ``SAMPLE_TRIES`` rejections in a row are an error.
    """
    n = model.n
    # fewer than n components cannot meet the rank condition
    k = n + 2 if n_atoms is None else require_int(n_atoms, "n_atoms", n)
    for _ in range(SAMPLE_TRIES):
        weights = rng.dirichlet(np.ones(k))
        if np.any(weights < 1e-3):
            continue
        obs = rng.normal(size=(k, n))
        design = (weights[:, None] * (obs @ model.fisher)).T  # (n, k)
        dirs_t, _, rank, _ = np.linalg.lstsq(design, np.eye(n), rcond=None)
        if rank < n:
            continue
        if np.linalg.norm(design @ dirs_t - np.eye(n)) > 1e-9:
            continue
        # the residual above is the Jacobian check of is_locally_unbiased, transposed
        return RandomMeasurement(weights, dirs_t, obs)
    raise ValidationError("failed to sample a locally unbiased measurement")


@dataclass(frozen=True)
class SimulationResult:
    mean: np.ndarray
    cov: np.ndarray
    n_samples: int
    quad_mean: float | None = None
    quad_se: float | None = None


def simulate(model: StatisticalModel, p: RandomMeasurement, samples: int, seed: int,
             weight=None) -> SimulationResult:
    """Monte Carlo run of a locally unbiased random measurement.

    The reported moments depend on the samples only through how often each
    (component, outcome) pair occurs, so those counts are drawn directly: a
    multinomial over the mixture weights, then one over each component's Born
    probabilities. The joint counts are Multinomial(samples, w_j p_jo), as
    for sample-by-sample draws, and cost and memory do not depend on
    ``samples`` (at most 2**63 - 1). Results are deterministic given
    (seed, samples). When ``weight`` is given, the first two moments of the
    per-sample quadratic form are reported as well.
    """
    samples = require_int(samples, "samples", 1)
    if samples > np.iinfo(np.int64).max:
        raise ValidationError(f"samples must be below 2**63, got {samples}")
    seed = require_int(seed, "seed")
    if not is_locally_unbiased(model, p):
        raise UnbiasednessError("simulate requires a locally unbiased measurement")
    gm = None if weight is None else require_weight_matrix(weight, model.n)

    rng = np.random.default_rng(seed)
    component_counts = rng.multinomial(samples, p.weights / p.weights.sum())
    rho = model.rho.matrix
    est, counts = [], []
    for direction, observable, cnt in zip(p.directions, p.observables, component_counts):
        dec = eigh(cotangent_operator(model, observable), name="observable")
        probs = np.einsum("ij,jk,ki->i", dec.eigenvectors.conj().T, rho, dec.eigenvectors).real
        probs = np.clip(probs, 0.0, None)
        counts.append(rng.multinomial(cnt, probs / probs.sum()))
        est.append(dec.eigenvalues[:, None] * direction)
    est = np.concatenate(est)  # the estimate of every (component, outcome) pair
    freq = np.concatenate(counts) / samples

    mean = freq @ est
    cov = (est.T * freq) @ est - np.outer(mean, mean)
    quad_mean = quad_se = None
    if gm is not None:
        u = np.einsum("si,ij,sj->s", est, gm, est)
        # offsets from one outcome's value keep the cancellation small, and
        # the variance is exactly 0 when every outcome has the same form
        du = u - u[0]
        quad_mean = float(u[0] + freq @ du)
        quad_var = max(float(freq @ (du * du) - (freq @ du) ** 2), 0.0)
        quad_se = math.sqrt(quad_var / samples)
    return SimulationResult(mean, (cov + cov.T) / 2.0, samples, quad_mean, quad_se)
