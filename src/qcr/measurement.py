"""Finite-support random measurements and the optimal construction.

A random measurement is a finite mixture of simple measurements: with
probability ``weight`` the observable built from the cotangent coordinates
``observable`` is measured projectively and the eigenvalue outcome ``y`` is
reported as the estimate ``y * direction + shift``. Shifts default to zero
and only appear through :func:`shift_measurement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, UnbiasednessError, ValidationError
from .model import StatisticalModel, cotangent_operator, _as_coords
from .operators import _readonly, eigh, sqrt_psd

WEIGHT_SUM_TOL = 1e-12
WEIGHT_PD_TOL = 1e-10
WEIGHT_SYM_TOL = 1e-12
UNBIASED_TOL = 1e-8
SIMULATE_BLOCK = 1 << 16  # samples drawn per block: memory stays flat in the sample count


@dataclass(frozen=True)
class Atom:
    """One mixture component: (weight, estimate direction, observable coords, shift)."""

    weight: float
    direction: np.ndarray
    observable: np.ndarray
    shift: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        c = np.asarray(self.observable, dtype=float)
        if d.ndim != 1 or d.shape != c.shape:
            raise ValidationError(f"atom: direction {d.shape} and observable {c.shape} must match")
        s = np.zeros_like(d) if self.shift is None else np.asarray(self.shift, dtype=float)
        if s.shape != d.shape:
            raise ValidationError(f"atom: shift {s.shape} does not match direction {d.shape}")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
            raise ValidationError("atom: coordinates must be finite")
        if not self.weight > 0.0:
            raise ValidationError(f"atom: weight {self.weight!r} must be positive")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "direction", _readonly(d))
        object.__setattr__(self, "observable", _readonly(c))
        object.__setattr__(self, "shift", _readonly(s))


@dataclass(frozen=True)
class RandomMeasurement:
    """Finite-support probability measure over (direction, observable) pairs."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("measurement needs at least one atom")
        n = self.atoms[0].direction.shape[0]
        if any(a.direction.shape[0] != n for a in self.atoms):
            raise ValidationError("all atoms must share the parameter dimension")
        total = math.fsum(a.weight for a in self.atoms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @property
    def n(self) -> int:
        return self.atoms[0].direction.shape[0]


def mix_measurements(parts, weights) -> RandomMeasurement:
    """Convex mixture of random measurements (weights must sum to 1)."""
    w = np.asarray(weights, dtype=float)
    if len(parts) != w.size or abs(w.sum() - 1.0) > WEIGHT_SUM_TOL or np.any(w <= 0):
        raise ValidationError("mixture weights must be positive and sum to 1")
    atoms = []
    for p, wi in zip(parts, w):
        atoms.extend(Atom(wi * a.weight, a.direction, a.observable, a.shift) for a in p.atoms)
    return RandomMeasurement(tuple(atoms))


def require_weight_matrix(g, n: int | None = None) -> np.ndarray:
    """Validate a symmetric positive-definite weight matrix."""
    m = np.asarray(g, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"weight matrix: expected square, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise ValidationError(f"weight matrix: expected {n}x{n}, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("weight matrix: entries must be finite")
    if np.max(np.abs(m - m.T)) > WEIGHT_SYM_TOL:
        raise ValidationError("weight matrix: not symmetric")
    m = (m + m.T) / 2.0
    if np.linalg.eigvalsh(m)[0] <= WEIGHT_PD_TOL:
        raise NotPsdError("weight matrix: not positive definite")
    return m


@dataclass(frozen=True)
class UnbiasednessReport:
    unbiased: bool
    jacobian_residual: float
    mean_residual: float

    def __bool__(self) -> bool:
        return self.unbiased


def _observable_means(model: StatisticalModel, p: RandomMeasurement) -> np.ndarray:
    rho = model.rho.matrix
    return np.array(
        [float(np.trace(rho @ cotangent_operator(model, a.observable)).real) for a in p.atoms]
    )


def is_locally_unbiased(model: StatisticalModel, p: RandomMeasurement, tol: float = UNBIASED_TOL) -> UnbiasednessReport:
    """Check the two local-unbiasedness conditions with residual diagnostics.

    (i) the weighted sum of direction (x) J-observable dyads equals the identity;
    (ii) the expected estimate at the model point vanishes.
    """
    if p.n != model.n:
        raise ValidationError(f"measurement dimension {p.n} != model dimension {model.n}")
    jac = np.zeros((model.n, model.n))
    mean = np.zeros(model.n)
    means = _observable_means(model, p)
    for a, m in zip(p.atoms, means):
        jac += a.weight * np.outer(a.direction, model.fisher @ a.observable)
        mean += a.weight * (m * a.direction + a.shift)
    jac_res = float(np.linalg.norm(jac - np.eye(model.n)))
    mean_res = float(np.linalg.norm(mean))
    return UnbiasednessReport(jac_res <= tol and mean_res <= tol, jac_res, mean_res)


def covariance(model: StatisticalModel, p: RandomMeasurement, tol: float = UNBIASED_TOL) -> np.ndarray:
    """Covariance matrix of a locally unbiased random measurement."""
    rep = is_locally_unbiased(model, p, tol)
    if not rep:
        raise UnbiasednessError(
            "measurement is not locally unbiased "
            f"(jacobian residual {rep.jacobian_residual:.3e}, mean residual {rep.mean_residual:.3e})"
        )
    v = np.zeros((model.n, model.n))
    means = _observable_means(model, p)
    for a, m in zip(p.atoms, means):
        second = float(a.observable @ model.fisher @ a.observable)
        v += a.weight * (
            second * np.outer(a.direction, a.direction)
            + m * (np.outer(a.direction, a.shift) + np.outer(a.shift, a.direction))
            + np.outer(a.shift, a.shift)
        )
    return (v + v.T) / 2.0


def deviation(model: StatisticalModel, g, p: RandomMeasurement, tol: float = UNBIASED_TOL) -> float:
    """Weighted risk tr(G V) of the measurement's covariance."""
    gm = require_weight_matrix(g, model.n)
    return float(np.trace(gm @ covariance(model, p, tol)))


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


def _normalized_weight_eigensystem(model: StatisticalModel, g) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (summing to 1) and J-orthonormal eigenvectors of W / tr W."""
    mid = _whitened_weight_sqrt(model, g)
    lam, u = np.linalg.eigh(mid)
    if lam[0] <= 0.0:
        raise NotPsdError("weight operator has a non-positive eigenvalue")
    vecs = model.fisher_isqrt @ u
    return lam / lam.sum(), vecs


def optimal_random_measurement(model: StatisticalModel, g) -> RandomMeasurement:
    """The deviation-minimizing random measurement for weight G.

    One atom per eigenvector of the normalized weight operator: weight equal
    to the eigenvalue, estimate direction the eigenvector divided by it, and
    the observable with the same coordinates as the eigenvector. Its
    covariance is (tr W) W^{-1} J^{-1} and its deviation (tr W)^2.
    """
    lam, vecs = _normalized_weight_eigensystem(model, g)
    atoms = tuple(
        Atom(float(lam[i]), vecs[:, i] / lam[i], vecs[:, i]) for i in range(model.n)
    )
    return RandomMeasurement(atoms)


def optimal_covariance(model: StatisticalModel, g) -> np.ndarray:
    """Covariance of the optimal random measurement, (tr W) W^{-1} J^{-1}.

    This is the Pareto-frontier point selected by the weight G; it is
    invariant under rescaling of G.
    """
    lam, vecs = _normalized_weight_eigensystem(model, g)
    v = (vecs / lam) @ vecs.T
    return (v + v.T) / 2.0


@dataclass(frozen=True)
class CertificateReport:
    """Slack of a scalar multiplier pair against a random measurement."""

    gap: float
    pointwise_min: float
    pointwise_ok: bool
    identity_residual: float

    def __float__(self) -> float:
        return self.gap


def random_certificate_gap(model: StatisticalModel, g, p: RandomMeasurement, a, s: float,
                           tol: float = 1e-9) -> CertificateReport:
    """Average slack sum_k w_k [g(x,x)||X||^2 - <X, a(x)> - S] of a multiplier.

    Also reports the smallest per-atom integrand and, when the measurement is
    locally unbiased, the residual of the identity gap = deviation - tr a - S.
    """
    gm = require_weight_matrix(g, model.n)
    am = np.asarray(a, dtype=float)
    if am.shape != (model.n, model.n):
        raise ValidationError(f"multiplier a: expected {model.n}x{model.n}, got {am.shape}")
    if any(np.any(atom.shift != 0.0) for atom in p.atoms):
        raise ValidationError("certificate gap is defined for shift-free measurements")
    terms = []
    for atom in p.atoms:
        quad = float(atom.direction @ gm @ atom.direction)
        norm2 = float(atom.observable @ model.fisher @ atom.observable)
        pairing = float(atom.observable @ model.fisher @ (am @ atom.direction))
        terms.append((atom.weight, quad * norm2 - pairing - float(s)))
    gap = math.fsum(w * t for w, t in terms)
    pmin = min(t for _, t in terms)
    rep = is_locally_unbiased(model, p)
    identity = float("nan")
    if rep:
        identity = abs(gap - (deviation(model, gm, p) - float(np.trace(am)) - float(s)))
    return CertificateReport(gap, pmin, pmin >= -tol, identity)


def shift_measurement(p: RandomMeasurement, x) -> RandomMeasurement:
    """Relabel outcomes by +/- x, splitting every atom into two half-weight atoms.

    For a locally unbiased p the result stays unbiased and its covariance
    gains exactly the dyad x x^T.
    """
    shift = _as_coords(x, p.n, "x")
    atoms = []
    for a in p.atoms:
        atoms.append(Atom(a.weight / 2.0, a.direction, a.observable, a.shift + shift))
        atoms.append(Atom(a.weight / 2.0, a.direction, a.observable, a.shift - shift))
    return RandomMeasurement(tuple(atoms))


def _require_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def sample_frontier(model: StatisticalModel, count: int, seed: int) -> list[np.ndarray]:
    """Sample covariance matrices on the random-measurement Pareto frontier.

    Draws a random positive J-self-adjoint operator normalized to unit trace
    and returns its frontier covariance W^{-1} J^{-1}. Every sample dominates
    the inverse Fisher matrix.
    """
    if count < 1:
        raise ValidationError("count must be at least 1")
    rng = np.random.default_rng(_require_seed(seed))
    n = model.n
    out = []
    for _ in range(count):
        a = rng.normal(size=(n, n))
        pos = a @ a.T
        # small ridge keeps the frontier point numerically well conditioned
        pos += (1e-3 * np.trace(pos) / n) * np.eye(n)
        pos /= np.trace(pos)
        w, u = np.linalg.eigh(pos)
        inv = (u / w) @ u.T
        v = model.fisher_isqrt @ inv @ model.fisher_isqrt
        out.append((v + v.T) / 2.0)
    return out


@dataclass(frozen=True)
class FrontierWitness:
    x: np.ndarray
    det: float
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def frontier_witness_2d(model: StatisticalModel, v, tol: float = 1e-9) -> FrontierWitness:
    """Two-parameter frontier test: X = V J - Id must have determinant 1."""
    if model.n != 2:
        raise ValidationError("frontier witness requires a two-parameter model")
    vm = np.asarray(v, dtype=float)
    if vm.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 covariance, got {vm.shape}")
    x = vm @ model.fisher - np.eye(2)
    det = float(np.linalg.det(x))
    return FrontierWitness(x, det, abs(det - 1.0) <= tol)


def sample_locally_unbiased(model: StatisticalModel, rng: np.random.Generator,
                            n_atoms: int | None = None, max_tries: int = 50) -> RandomMeasurement:
    """Draw a random locally unbiased measurement.

    Atoms get random weights and observables; the directions solve the linear
    unbiasedness constraint by least squares. Infeasible draws are rejected.
    """
    n = model.n
    k = n + 2 if n_atoms is None else int(n_atoms)
    if k < n:
        raise ValidationError(f"need at least {n} atoms to satisfy the rank condition")
    for _ in range(max_tries):
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
        atoms = tuple(Atom(float(weights[i]), dirs_t[i], obs[i]) for i in range(k))
        p = RandomMeasurement(atoms)
        if is_locally_unbiased(model, p):
            return p
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

    Atoms are drawn from the mixture weights and outcomes from the Born
    probabilities of each observable's eigenbasis, in blocks of
    ``SIMULATE_BLOCK`` samples from one generator. Results are deterministic
    given (seed, samples). When ``weight`` is given, the first two moments
    of the per-sample quadratic form are accumulated as well.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    seed = _require_seed(seed)
    rep = is_locally_unbiased(model, p)
    if not rep:
        raise UnbiasednessError("simulate requires a locally unbiased measurement")
    gm = None if weight is None else require_weight_matrix(weight, model.n)

    k = len(p.atoms)
    weights = np.array([a.weight for a in p.atoms])
    weights = weights / weights.sum()
    dirs = np.stack([a.direction for a in p.atoms])
    shifts = np.stack([a.shift for a in p.atoms])
    outcome_vals, outcome_probs = [], []
    rho = model.rho.matrix
    for a in p.atoms:
        dec = eigh(cotangent_operator(model, a.observable), name="observable")
        probs = np.einsum("ij,jk,ki->i", dec.eigenvectors.conj().T, rho, dec.eigenvectors).real
        probs = np.clip(probs, 0.0, None)
        outcome_vals.append(dec.eigenvalues)
        outcome_probs.append(probs / probs.sum())

    rng = np.random.default_rng(seed)
    s1 = np.zeros(model.n)
    s2 = np.zeros((model.n, model.n))
    su = 0.0
    suu = 0.0
    for done in range(0, samples, SIMULATE_BLOCK):
        m = min(SIMULATE_BLOCK, samples - done)
        idx = rng.choice(k, size=m, p=weights)
        vals = np.empty(m)
        for j in range(k):
            mask = idx == j
            cnt = int(mask.sum())
            if cnt:
                vals[mask] = rng.choice(outcome_vals[j], size=cnt, p=outcome_probs[j])
        est = vals[:, None] * dirs[idx] + shifts[idx]
        s1 += est.sum(axis=0)
        s2 += est.T @ est
        if gm is not None:
            u = np.einsum("si,ij,sj->s", est, gm, est)
            su += float(u.sum())
            suu += float((u * u).sum())

    mean = s1 / samples
    second = s2 / samples
    cov = second - np.outer(mean, mean)
    quad_mean = quad_se = None
    if gm is not None:
        quad_mean = su / samples
        quad_var = max(suu / samples - quad_mean**2, 0.0)
        quad_se = math.sqrt(quad_var / samples)
    return SimulationResult(mean, (cov + cov.T) / 2.0, samples, quad_mean, quad_se)
