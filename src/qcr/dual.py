"""Cutting-plane solver for the dual of the attainable-bound program.

The dual maximizes tr(a) + tr(S) over a real n x n matrix ``a`` acting on
tangent coordinates and a d x d Hermitian ``S``, subject to

    (xi @ G @ xi) rho - S - sum_i (a @ xi)[i] tangent_i  >=  0  (PSD)

for every tangent coordinate vector xi. The semi-infinite PSD constraint
is enforced through scalar cuts v^dag R(xi) v >= 0, each linear in
(a, S); every round solves the relaxed LP with the embedded dense simplex
and a multistart separation oracle supplies new violated cuts.

The oracle is heuristic, so soundness never rests on it: the final point
is shifted along the identity until a boosted separation sweep certifies
feasibility, and the reported optimum is the objective of that shifted
point. Together with the monotone LP relaxation value this sandwiches the
true optimum to within roughly feas_tol * d.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .measurement import optimal_weight_operator, require_weight_matrix
from .model import StatisticalModel, build_model
from .randomness import is_random_model
from .simplex import solve_boxed_lp

log = logging.getLogger("qcr.dual")

MAX_CUTS_PER_ROUND = 10
RESTORE_TOL = 1e-12
# points per batch of residuals in a separation sweep: bounds the sweep's
# memory (a boosted d = 8 sweep has ~263k points) without changing a value
LAM_MIN_BLOCK = 4096


@dataclass(frozen=True)
class DualPoint:
    """Multiplier pair: a acts on tangent coordinates, S is Hermitian on the state space."""

    a: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if a.ndim != 2 or not np.all(np.isfinite(a)):
            raise ValidationError("dual point: a must be a finite real matrix")
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValidationError("dual point: S must be square")
        if np.max(np.abs(s - s.conj().T)) > 1e-10:
            raise ValidationError("dual point: S must be Hermitian")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", (s + s.conj().T) / 2.0)


@dataclass(frozen=True)
class Cut:
    """Scalar linearization v^dag R(xi) v >= 0 of the conic constraint."""

    xi: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(f"cut: witness vector norm {nrm!r} is not 1")
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class SolverConfig:
    feas_tol: float = 1e-7
    obj_tol: float = 1e-6
    max_rounds: int = 200
    multistart: int = 32
    radius_cap: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.feas_tol <= 0 or self.obj_tol <= 0:
            raise ValidationError("solver tolerances must be positive")
        if self.max_rounds < 1 or self.multistart < 1:
            raise ValidationError("max_rounds and multistart must be at least 1")


@dataclass(frozen=True)
class SeparationResult:
    min_value: float
    witness: Cut


@dataclass
class DualResult:
    optimum: float
    dual: DualPoint
    cuts: list[Cut]
    rounds: int
    status: str
    lp_value: float
    lp_values: list[float]
    feasibility: float
    feasible_points: list[tuple[float, DualPoint]]


def residual(model: StatisticalModel, g, dual: DualPoint, xi) -> np.ndarray:
    """Constraint operator (xi G xi) rho - S - a(xi) at one tangent point."""
    gm = require_weight_matrix(g, model.n)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.n,):
        raise ValidationError(f"xi: expected {model.n} coordinates, got {xi.shape}")
    if dual.a.shape != (model.n, model.n):
        raise ValidationError(f"dual point: a must be {model.n}x{model.n}")
    if dual.s.shape != (model.dim, model.dim):
        raise ValidationError(f"dual point: S must be {model.dim}x{model.dim}")
    coef = dual.a @ xi
    mat = float(xi @ gm @ xi) * model.rho.matrix - dual.s
    for ci, t in zip(coef, model.tangent):
        mat = mat - ci * t
    return (mat + mat.conj().T) / 2.0


def spur(model: StatisticalModel, dual: DualPoint) -> float:
    """Dual objective tr(a) + tr(S)."""
    if dual.a.shape != (model.n, model.n) or dual.s.shape != (model.dim, model.dim):
        raise ValidationError("dual point dimensions do not match the model")
    return float(np.trace(dual.a)) + float(np.trace(dual.s).real)


def _lam_min_batch(mats: np.ndarray) -> np.ndarray:
    d = mats.shape[-1]
    if d == 2:
        h11 = mats[:, 0, 0].real
        h22 = mats[:, 1, 1].real
        od = mats[:, 0, 1]
        half = 0.5 * (h11 - h22)
        return 0.5 * (h11 + h22) - np.sqrt(half * half + od.real**2 + od.imag**2)
    return np.linalg.eigvalsh(mats)[:, 0]


@dataclass
class _Separation:
    min_value: float
    best: np.ndarray
    violated: list[np.ndarray]


def _spread_select(points: np.ndarray, candidate_idx: np.ndarray, count: int,
                   rel_dist: float, seed_point: np.ndarray | None = None) -> np.ndarray:
    """Greedy selection of candidates kept pairwise apart at a relative scale."""
    chosen: list[np.ndarray] = [] if seed_point is None else [seed_point]
    chosen_norms: list[float] = [] if seed_point is None else [float(np.linalg.norm(seed_point))]
    for idx in candidate_idx:
        if len(chosen) >= count:
            break
        y = points[idx]
        if chosen:
            block = np.asarray(chosen)
            dist = np.linalg.norm(block - y, axis=1)
            limit = rel_dist * (np.asarray(chosen_norms) + np.linalg.norm(y) + 1e-6)
            if np.any(dist <= limit):
                continue
        chosen.append(y.copy())
        chosen_norms.append(float(np.linalg.norm(y)))
    return np.asarray(chosen)


class _Engine:
    """Cutting-plane machinery over a generic multiplier block B.

    The standard dual uses a square B = a with objective tr(a); the
    submodel comparison reuses the same engine with a rectangular B and a
    projected objective.
    """

    def __init__(self, model: StatisticalModel, g, obj: np.ndarray):
        self.model = model
        self.rho = np.asarray(model.rho.matrix)
        self.ops = np.stack([np.asarray(t) for t in model.tangent])
        self.G = require_weight_matrix(g)
        self.obj = np.asarray(obj, dtype=float)
        self.d = model.dim
        self.n_ops = model.n
        self.m = self.G.shape[0]
        if self.obj.shape != (self.n_ops, self.m):
            raise ValidationError("objective block does not match the multiplier shape")
        d = self.d
        self.iu = np.triu_indices(d, 1)
        self.npair = self.iu[0].size
        self.nB = self.n_ops * self.m
        self.nv = self.nB + d + 2 * self.npair

        gw = np.linalg.eigvalsh(self.G)
        jw = np.linalg.eigvalsh(model.fisher)
        kap = math.sqrt(gw[-1] / jw[0])
        rank = min(self.n_ops, self.m)
        obj_f = float(np.linalg.norm(self.obj))
        # compactness bounds on the multiplier, converted to entrywise boxes
        # with headroom: any enlargement keeps the true maximizer inside
        sigma = 4.0 * obj_f * math.sqrt(rank) * kap
        self.b_box = 2.0 * kap * sigma
        self.s_box = 2.0 * obj_f * math.sqrt(rank) * kap * sigma
        self.g_min = float(gw[0])
        self.rho_min = float(np.linalg.eigvalsh(self.rho)[0])
        self.k_norm = math.sqrt(sum(float(np.linalg.norm(op, 2)) ** 2 for op in self.ops))

        self.j_sqrt = model.fisher_sqrt
        gv_w, gv = np.linalg.eigh(self.G)
        self.g_isqrt = (gv / np.sqrt(gv_w)) @ gv.T
        if self.m == self.n_ops:
            self.basis = np.array(model.fisher_isqrt)
        else:
            self.basis = np.diag(1.0 / np.sqrt(np.diag(self.G)))
        self.basis_scale = float(np.max(np.linalg.norm(self.basis, axis=1)))

        lb = np.empty(self.nv)
        ub = np.empty(self.nv)
        lb[: self.nB] = -self.b_box
        ub[: self.nB] = self.b_box
        lb[self.nB:] = -self.s_box
        ub[self.nB:] = self.s_box
        ub[self.nB: self.nB + d] = 0.0  # S is negative semidefinite at every feasible point
        self.lb, self.ub = lb, ub
        cvec = np.zeros(self.nv)
        cvec[: self.nB] = self.obj.ravel()
        cvec[self.nB: self.nB + d] = 1.0
        self.cvec = cvec

        lin_max = math.sqrt(self.nB) * self.b_box * self.k_norm
        const_max = math.sqrt(d + 2 * self.npair) * self.s_box
        self.auto_cap = self._radius_from(lin_max, const_max)

    # -- geometry -----------------------------------------------------------

    def _radius_from(self, lin: float, const: float) -> float:
        quad = self.g_min * self.rho_min
        return (lin + math.sqrt(lin * lin + 4.0 * quad * (const + 1.0))) / (2.0 * quad)

    def radius(self, b: np.ndarray, s: np.ndarray, cap: float | None) -> float:
        r = self._radius_from(
            float(np.linalg.norm(b, 2)) * self.k_norm, float(np.linalg.norm(s, 2))
        )
        r = max(r, 2.0 * self.basis_scale)
        return min(r, cap if cap is not None else self.auto_cap)

    # -- LP pieces ----------------------------------------------------------

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = z[: self.nB].reshape(self.n_ops, self.m).copy()
        s = np.zeros((self.d, self.d), dtype=complex)
        np.fill_diagonal(s, z[self.nB: self.nB + self.d])
        re = z[self.nB + self.d: self.nB + self.d + self.npair]
        im = z[self.nB + self.d + self.npair:]
        s[self.iu] = re + 1j * im
        s[(self.iu[1], self.iu[0])] = re - 1j * im
        return b, s

    def cut_row(self, y: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
        kv = np.einsum("i,kij,j->k", v.conj(), self.ops, v).real
        row = np.zeros(self.nv)
        row[: self.nB] = np.outer(kv, y).ravel()
        row[self.nB: self.nB + self.d] = np.abs(v) ** 2
        z = v.conj()[self.iu[0]] * v[self.iu[1]]
        row[self.nB + self.d: self.nB + self.d + self.npair] = 2.0 * z.real
        row[self.nB + self.d + self.npair:] = -2.0 * z.imag
        rhs = float(y @ self.G @ y) * float((v.conj() @ self.rho @ v).real)
        return row, rhs

    def residual_mat(self, b: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        mat = float(y @ self.G @ y) * self.rho - s - np.tensordot(b @ y, self.ops, axes=(0, 0))
        return (mat + mat.conj().T) / 2.0

    # -- separation ---------------------------------------------------------

    def residuals(self, b: np.ndarray, s: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Residual matrices at a batch of tangent points, one per row of ys."""
        quad = np.einsum("qi,ij,qj->q", ys, self.G, ys)
        coef = ys @ b.T
        return quad[:, None, None] * self.rho[None] - s[None] - np.tensordot(coef, self.ops, axes=(1, 0))

    def lam_min(self, b: np.ndarray, s: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = np.empty(len(ys))
        for lo in range(0, len(ys), LAM_MIN_BLOCK):
            out[lo:lo + LAM_MIN_BLOCK] = _lam_min_batch(self.residuals(b, s, ys[lo:lo + LAM_MIN_BLOCK]))
        return out

    def _descend(self, b, s, pts: np.ndarray, iters: int = 40) -> tuple[np.ndarray, np.ndarray]:
        """Alternating descent on lambda_min of the residual.

        For a fixed witness vector v the scalar cut is a convex quadratic in
        y with exact minimizer; alternating that step with the smallest
        eigenvector of the residual decreases lambda_min monotonically and
        lands on critical points in a handful of iterations.
        """
        pts = pts.copy()
        best_pts = pts.copy()
        mats = self.residuals(b, s, pts)
        best = _lam_min_batch(mats)
        g_inv = self.g_isqrt @ self.g_isqrt
        for _ in range(iters):
            w, vecs = np.linalg.eigh(mats)
            v = vecs[:, :, 0]
            rv = np.einsum("qi,ij,qj->q", v.conj(), self.rho, v).real
            wk = np.einsum("qi,kij,qj->qk", v.conj(), self.ops, v).real
            pts = ((wk @ b) @ g_inv) / (2.0 * rv[:, None])
            mats = self.residuals(b, s, pts)
            vals = _lam_min_batch(mats)
            better = vals < best
            best_pts[better] = pts[better]
            improvement = float(np.max(best[better] - vals[better])) if np.any(better) else 0.0
            best[better] = vals[better]
            if improvement < 1e-14:
                break
        return best_pts, best

    def _witness_sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Unit vectors covering the witness sphere; deterministic cover for d = 2."""
        blocks = []
        if self.d == 2:
            # Fibonacci cover of the Bloch sphere
            i = np.arange(count)
            z = 1.0 - 2.0 * (i + 0.5) / count
            theta = np.arccos(np.clip(z, -1.0, 1.0))
            phi = i * (np.pi * (3.0 - math.sqrt(5.0)))
            blocks.append(np.stack(
                [np.cos(theta / 2.0).astype(complex),
                 np.sin(theta / 2.0) * np.exp(1j * phi)], axis=1))
        vs = rng.normal(size=(count, self.d)) + 1j * rng.normal(size=(count, self.d))
        blocks.append(vs / np.linalg.norm(vs, axis=1, keepdims=True))
        return np.vstack(blocks)

    def _witness_jumps(self, b, s, vs: np.ndarray) -> np.ndarray:
        """Exact scalar-cut minimizers for a batch of witness vectors.

        Every critical point of the residual's smallest eigenvalue is the
        quadratic minimizer of its own witness, so a dense witness sample
        reaches every basin regardless of its scale in y-space.
        """
        rv = np.einsum("qi,ij,qj->q", vs.conj(), self.rho, vs).real
        wk = np.einsum("qi,kij,qj->qk", vs.conj(), self.ops, vs).real
        g_inv = self.g_isqrt @ self.g_isqrt
        return ((wk @ b) @ g_inv) / (2.0 * rv[:, None])

    def separate(self, b, s, rng: np.random.Generator, config: SolverConfig,
                 extra_dirs=(), boost: int = 1) -> _Separation:
        radius = self.radius(b, s, config.radius_cap)
        vs = self._witness_sample(rng, 128 * boost)
        jumps = self._witness_jumps(b, s, vs)
        jump_norms = np.linalg.norm(jumps, axis=1)
        scale = float(np.percentile(jump_norms, 90)) + self.basis_scale

        dir_blocks = [self.basis]
        try:
            _, _, vt = np.linalg.svd(self.j_sqrt @ b @ self.g_isqrt)
            dir_blocks.append(vt @ self.g_isqrt)
        except np.linalg.LinAlgError:
            pass
        if extra_dirs:
            dir_blocks.append(np.stack(list(extra_dirs)))
        dir_blocks.append(rng.normal(size=(config.multistart * boost, self.m)))
        dirs = np.vstack(dir_blocks)
        norms = np.linalg.norm(dirs, axis=1)
        good = norms > 1e-12
        dirs = dirs[good] / norms[good, None]
        lin_extent = min(radius, 4.0 * scale)
        ts = np.unique(np.concatenate([
            np.linspace(-lin_extent, lin_extent, 17 * boost),
            np.geomspace(max(radius * 1e-6, 1e-12), radius, 10 * boost),
            -np.geomspace(max(radius * 1e-6, 1e-12), radius, 10 * boost),
            [0.0],
        ]))
        blocks = [jumps, (ts[:, None, None] * dirs[None, :, :]).reshape(-1, self.m)]
        # low-dimensional parameter spaces afford an exhaustive box grid around
        # the scale where the witness jumps concentrate
        if self.m <= 3:
            per_axis = (41 if self.m == 2 else 21) * boost
            axis = np.linspace(-min(radius, 3.0 * scale), min(radius, 3.0 * scale), per_axis)
            grid = np.meshgrid(*([axis] * self.m), indexing="ij")
            blocks.append(np.stack([g.ravel() for g in grid], axis=1))
        blocks.append(np.zeros((1, self.m)))
        ys = np.vstack(blocks)
        vals = self.lam_min(b, s, ys)
        order = np.argsort(vals)
        # descent starts spread at basin scale so distinct minima get polished
        starts = _spread_select(ys, order[: 1024 * boost], 24 * boost, 0.02,
                                seed_point=np.zeros(self.m))
        pts, pvals = self._descend(b, s, starts)

        all_pts = np.vstack([ys, pts])
        all_vals = np.concatenate([vals, pvals])
        imin = int(np.argmin(all_vals))
        min_value = float(all_vals[imin])

        bad = np.argsort(all_vals)
        bad = bad[all_vals[bad] < -config.feas_tol]
        violated = list(_spread_select(all_pts, bad[:2048], MAX_CUTS_PER_ROUND, 0.01))
        return _Separation(min_value, all_pts[imin].copy(), violated)

    # -- main loop ----------------------------------------------------------

    def solve(self, config: SolverConfig) -> _EngineResult:
        rng = np.random.default_rng(config.seed)
        rows: list[np.ndarray] = []
        rhss: list[float] = []
        cuts: list[Cut] = []
        ages: list[int] = []
        xi_stack = np.zeros((0, self.m))
        v_stack = np.zeros((0, self.d), dtype=complex)

        def register(y: np.ndarray, v: np.ndarray) -> bool:
            nonlocal xi_stack, v_stack
            if len(cuts):
                close = np.linalg.norm(xi_stack - y, axis=1) <= 1e-9 * (1.0 + np.linalg.norm(y))
                if np.any(close):
                    overlap = np.abs(v_stack[close].conj() @ v) >= 1.0 - 1e-10
                    if np.any(overlap):
                        return False
            row, rhs = self.cut_row(y, v)
            rows.append(row)
            rhss.append(rhs)
            v = v / np.linalg.norm(v)
            cuts.append(Cut(y, v))
            ages.append(0)
            xi_stack = np.vstack([xi_stack, y[None, :]])
            v_stack = np.vstack([v_stack, v[None, :]])
            return True

        def drop_stale(x: np.ndarray) -> None:
            # retire cuts slack for many consecutive rounds; the tableau stays small
            nonlocal xi_stack, v_stack
            if len(cuts) <= 4 * self.nv:
                return
            slack = np.asarray(rhss) - np.asarray(rows) @ x
            keep = []
            for i, sl in enumerate(slack):
                if sl <= 1e-8 * (1.0 + abs(rhss[i])):
                    ages[i] = 0
                else:
                    ages[i] += 1
                if ages[i] < 8:
                    keep.append(i)
            if len(keep) < len(cuts):
                for name, seq in (("rows", rows), ("rhss", rhss), ("cuts", cuts), ("ages", ages)):
                    kept = [seq[i] for i in keep]
                    seq.clear()
                    seq.extend(kept)
                xi_stack = xi_stack[keep]
                v_stack = v_stack[keep]

        rho_vecs = np.linalg.eigh(self.rho)[1]
        seeds = [np.zeros(self.m)]
        for i in range(self.m):
            seeds.extend([self.basis[i], -self.basis[i]])
        for y in seeds:
            for i in range(self.d):
                register(np.asarray(y, dtype=float), rho_vecs[:, i])

        witness_dirs: deque[np.ndarray] = deque(maxlen=16)
        lp_values: list[float] = []
        feasible_points: list[tuple[float, np.ndarray, np.ndarray]] = []
        prev_lp: float | None = None
        status = "unconverged"
        rounds = 0
        stuck = 0
        b = np.zeros((self.n_ops, self.m))
        s = np.zeros((self.d, self.d), dtype=complex)
        for rnd in range(config.max_rounds):
            rounds = rnd + 1
            lp = solve_boxed_lp(self.cvec, np.vstack(rows), np.array(rhss),
                                self.lb, self.ub, maximize=True)
            if lp.status != "optimal":
                raise NumericError(f"cutting-plane relaxation came back {lp.status}")
            b, s = self.unpack(lp.x)
            lp_values.append(lp.value)
            sep = self.separate(b, s, rng, config, witness_dirs)
            shift = min(0.0, sep.min_value)
            feasible_points.append((lp.value + shift * self.d, b, s + shift * np.eye(self.d)))
            log.debug("round %d: lp=%.9g sep=%.3e cuts=%d", rounds, lp.value, sep.min_value, len(cuts))
            obj_static = prev_lp is not None and abs(prev_lp - lp.value) < config.obj_tol
            prev_lp = lp.value
            if sep.min_value >= -config.feas_tol:
                if obj_static:
                    status = "converged"
                    break
                continue
            drop_stale(lp.x)
            added = 0
            for y in sep.violated:
                mat = self.residual_mat(b, s, y)
                w, vecs = np.linalg.eigh(mat)
                hit = False
                for i in range(self.d):
                    if i > 0 and w[i] >= -config.feas_tol:
                        break
                    if register(y, vecs[:, i]):
                        hit = True
                if hit:
                    added += 1
                    nrm = np.linalg.norm(y)
                    if nrm > 1e-12:
                        witness_dirs.append(y / nrm)
            if added == 0:
                stuck += 1
                jitter = sep.best + rng.normal(scale=1e-6 * (1.0 + np.linalg.norm(sep.best)),
                                               size=self.m)
                mat = self.residual_mat(b, s, jitter)
                v = np.linalg.eigh(mat)[1][:, 0]
                register(jitter, v)
                if stuck >= 5:
                    break
            else:
                stuck = 0

        # certified feasibility restoration: shift S along the identity until a
        # boosted sweep finds no violation beyond RESTORE_TOL
        feasibility = 0.0
        for _ in range(5):
            sep = self.separate(b, s, rng, config, witness_dirs, boost=3)
            feasibility = sep.min_value
            if sep.min_value >= -RESTORE_TOL:
                break
            s = s + (sep.min_value - RESTORE_TOL) * np.eye(self.d)
        optimum = float(self.cvec[: self.nB] @ b.ravel()) + float(np.trace(s).real)
        return _EngineResult(optimum, b, s, cuts, rounds, status, lp_values,
                             feasibility, feasible_points)


@dataclass
class _EngineResult:
    optimum: float
    b: np.ndarray
    s: np.ndarray
    cuts: list[Cut]
    rounds: int
    status: str
    lp_values: list[float]
    feasibility: float
    feasible_points: list[tuple[float, np.ndarray, np.ndarray]]


def solve_dual(model: StatisticalModel, g, config: SolverConfig | None = None) -> DualResult:
    """Cutting-plane solution of the dual program for a PD weight matrix.

    The returned ``optimum`` is the objective of a certified-feasible dual
    point, hence a valid bound on the deviation of every locally unbiased
    measurement up to the restoration tolerance; ``lp_value`` is the final
    relaxation value bounding the true optimum from above.
    """
    cfg = config or SolverConfig()
    gm = require_weight_matrix(g, model.n)
    engine = _Engine(model, gm, np.eye(model.n))
    raw = engine.solve(cfg)
    return DualResult(
        optimum=raw.optimum,
        dual=DualPoint(raw.b, raw.s),
        cuts=raw.cuts,
        rounds=raw.rounds,
        status=raw.status,
        lp_value=raw.lp_values[-1] if raw.lp_values else float("nan"),
        lp_values=raw.lp_values,
        feasibility=raw.feasibility,
        feasible_points=[(val, DualPoint(bb, ss)) for val, bb, ss in raw.feasible_points],
    )


def separation_oracle(model: StatisticalModel, g, dual: DualPoint,
                      config: SolverConfig | None = None) -> SeparationResult:
    """Best-effort minimum of the residual's smallest eigenvalue over tangent space.

    Returns the most violating point found and the matching scalar cut. A
    nonnegative ``min_value`` is evidence, not proof, of feasibility; callers
    needing certainty should rely on the certificate-gap identities.
    """
    cfg = config or SolverConfig()
    gm = require_weight_matrix(g, model.n)
    if dual.a.shape != (model.n, model.n) or dual.s.shape != (model.dim, model.dim):
        raise ValidationError("dual point dimensions do not match the model")
    engine = _Engine(model, gm, np.eye(model.n))
    rng = np.random.default_rng(cfg.seed)
    sep = engine.separate(dual.a, dual.s, rng, cfg, boost=2)
    mat = engine.residual_mat(dual.a, dual.s, sep.best)
    v = np.linalg.eigh(mat)[1][:, 0]
    return SeparationResult(sep.min_value, Cut(sep.best, v))


def random_model_certificate(model: StatisticalModel, g) -> DualPoint:
    """Closed-form dual maximizer available on random models.

    With W the positive weight operator for G and C the constant block of the
    randomness check, the pair (2 tr(W) W, -(tr W)^2 C) is dual feasible with
    objective (tr W)^2, matching the optimal random bound.
    """
    report = is_random_model(model)
    if not report:
        raise ValidationError(
            "model fails the randomness condition "
            f"(witness block {report.witness}, residual {report.score:.3e}); "
            "the closed-form certificate does not apply"
        )
    w_op = optimal_weight_operator(model, g)
    t = float(np.trace(w_op))
    return DualPoint(2.0 * t * w_op, -(t**2) * report.constant)


@dataclass
class SubmodelResult:
    opt_sub: float
    opt_full: float
    holds: bool
    sub_result: DualResult
    full_dual: DualPoint
    full_status: str


def dual_submodel_inequality(model: StatisticalModel, subspace_indices, g_sub,
                             config: SolverConfig | None = None,
                             tol: float = 1e-3) -> SubmodelResult:
    """Compare the dual optimum of a submodel against the full model.

    The weight on the full model is the pullback of ``g_sub`` along the
    Fisher-orthogonal projection onto the selected tangent directions. That
    pullback is singular, but every feasible multiplier annihilates the
    projection kernel, so the full-model program reduces exactly to a
    rectangular multiplier over the subspace coordinates; the same engine
    solves it with the projected objective.
    """
    cfg = config or SolverConfig()
    idx = [int(i) for i in subspace_indices]
    if len(set(idx)) != len(idx) or not idx:
        raise ValidationError("subspace indices must be distinct and nonempty")
    if any(i < 0 or i >= model.n for i in idx):
        raise ValidationError(f"subspace indices out of range for n = {model.n}")
    k = len(idx)
    g_sub = require_weight_matrix(g_sub, k)

    sub = build_model(model.rho, [model.tangent[i] for i in idx])
    res_sub = solve_dual(sub, g_sub, cfg)

    emb = np.zeros((model.n, k))
    emb[idx, np.arange(k)] = 1.0
    j = model.fisher
    proj = np.linalg.solve(emb.T @ j @ emb, emb.T @ j)  # (k, n) Fisher-orthogonal projection
    engine = _Engine(model, g_sub, proj.T)
    raw = engine.solve(cfg)
    full_dual = DualPoint(raw.b @ proj, raw.s)
    holds = res_sub.optimum <= raw.optimum + tol
    return SubmodelResult(res_sub.optimum, raw.optimum, holds, res_sub, full_dual, raw.status)
