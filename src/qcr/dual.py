"""Cutting-plane solver for the dual of the attainable-bound program.

The dual maximizes tr(a) + tr(S) over a real n x n matrix ``a`` acting on
tangent coordinates and a d x d Hermitian ``S``, subject to

    (xi @ G @ xi) rho - S - sum_i (a @ xi)[i] tangent_i  >=  0  (PSD)

for every tangent coordinate vector xi. The semi-infinite PSD constraint
is enforced through scalar cuts v^dag R(xi) v >= 0, each linear in
(a, S); every round solves the relaxed LP with the embedded dense simplex,
and a separation oracle supplies new violated cuts. Round 1 is the bare
box LP, a box vertex with no cut rows and no pivot; each later round
restarts from the previous round's basis. For a fixed unit witness v the
cut is a convex quadratic in xi with closed-form minimizer xi*(v), so the
oracle searches the compact witness sphere.

On qubits (d = 2) the search is exact: with r the Bloch vector of v, the
minimized cut is a ratio of a quadratic and an affine function of r, which
Dinkelbach's method minimizes over the unit sphere of R^3 through a few
trust-region subproblems, each solved exactly. The reported separation
minimum is a certified lower bound, so the final feasibility restoration
is one exact shift and the reported optimum is a certified lower bound.

For d >= 3 the oracle is a deterministic search: the lowest eigenvectors
of the quartic separation form on the symmetric subspace Sym^2(C^d)
(Doherty, Parrilo & Spedalieri, Phys. Rev. A 69, 022308, 2004) give the
witnesses, whose jumps are polished by alternating descent; a clean sweep
also checks the jumps of the live cuts' witnesses. The rounds end at the
first clean sweep or at the round cap. The final restoration is one shift
along the identity by the last sweep's minimum, which after a capped
d >= 3 run takes in the live cuts' witnesses too. For d >= 3 a sweep can
miss a narrow violation; together with the monotone LP relaxation value
the optimum brackets the true optimum, and the width of that final bracket
alone decides whether the solve converged.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError
from .measurement import optimal_weight_operator, plain, require_int, require_weight_matrix
from .model import PAULI_1, PAULI_2, PAULI_3, StatisticalModel, _as_coords, build_model
from .operators import require_hermitian
from .randomness import is_random_model
from .simplex import PIVOT_TOL, solve_boxed_lp

log = logging.getLogger("qcr.dual")

# cuts per round and their least relative spread in xi: on qubits the exact
# oracle scores every cover jump, so up to 40 spread ones are kept; for d >= 3
# a wider spread loses convergence on the d in {4, 5} commuting sweeps
QUBIT_CUTS = (40, 0.2)
SWEEP_CUTS = (10, 0.01)
RESTORE_TOL = 1e-12
DESCENT_STEPS = 40
QUBIT_COVER = 128
SUBMODEL_TOL = 1e-3  # dual_submodel_inequality holds within this slack
EPS = float(np.finfo(float).eps)
PAULIS = np.stack([PAULI_1, PAULI_2, PAULI_3])


@dataclass(frozen=True)
class DualPoint:
    """Multiplier pair: a acts on tangent coordinates, S is Hermitian on the state space."""

    a: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or not np.all(np.isfinite(a)):
            raise ValidationError("dual point: a must be a finite real matrix")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", require_hermitian(self.s, tol=1e-10, name="dual point S"))


@dataclass(frozen=True)
class Cut:
    """Scalar linearization v^dag R(xi) v >= 0 of the conic constraint, v a unit witness."""

    xi: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the cutting-plane solve.

    The tolerances are absolute, in units of the objective tr(G V): scaling
    G by c calls for tolerances scaled by c. ``feas_tol`` is the largest
    residual violation a sweep accepts; a solve is converged when its final
    bracket, relaxation value minus restored optimum, is at most
    ``obj_tol + d * feas_tol``. The solver clamps ``feas_tol`` at the
    simplex's pivot tolerance ``qcr.simplex.PIVOT_TOL`` (1e-9), for its
    sweeps, its stop test and that band alike: the LP does not act on cuts
    violated by less, so a smaller ``feas_tol`` returns exactly what 1e-9
    returns.

    ``seed`` is validated but has no effect: every sweep is deterministic.
    """

    feas_tol: float = 1e-7
    obj_tol: float = 1e-6
    max_rounds: int = 200
    seed: int = 0

    def __post_init__(self):
        for t in (self.feas_tol, self.obj_tol):
            if not (isinstance(t, numbers.Real) and math.isfinite(t) and t > 0):
                raise ValidationError(f"solver tolerances must be finite and positive, got {plain(t)!r}")
        require_int(self.max_rounds, "max_rounds", 1)
        require_int(self.seed, "seed")


@dataclass(frozen=True)
class SeparationResult:
    min_value: float
    witness: Cut


@dataclass(frozen=True)
class DualRound:
    """What one cutting-plane round computed.

    ``lp_value`` is the relaxation value, an upper bound on the optimum up
    to the simplex's optimality tolerance (see :func:`solve_dual`);
    ``sep_min`` the separation minimum at the relaxation's point; and
    ``shifted_value = lp_value + d * min(0, sep_min)`` the objective of that
    point shifted along the identity by the separation minimum. The shifted
    value is a lower bound on the optimum only at d = 2, where ``sep_min`` is
    certified; for d >= 3 the per-round sweep can miss violations and the
    shifted value can lie above the optimum. ``rows``, ``pivots`` and
    ``warm`` describe the LP: its cut rows, its simplex pivots, and whether
    it restarted from the previous round's basis. ``lp_s`` and ``sep_s`` are
    the wall-clock seconds of the round's LP solve and separation sweep.
    """

    lp_value: float
    sep_min: float
    shifted_value: float
    rows: int
    pivots: int
    warm: bool
    lp_s: float
    sep_s: float


@dataclass
class DualResult:
    optimum: float
    dual: DualPoint
    cuts: list[Cut]
    rounds: int
    status: str
    lp_value: float
    feasibility: float
    certified: bool
    trace: list[DualRound]


def residual(model: StatisticalModel, g, dual: DualPoint, xi) -> np.ndarray:
    """Constraint operator (xi G xi) rho - S - a(xi) at one tangent point."""
    gm = require_weight_matrix(g, model.n)
    xi = _as_coords(xi, model.n, "xi")
    if dual.a.shape != (model.n, model.n):
        raise ValidationError(f"dual point: a must be {model.n}x{model.n}")
    if dual.s.shape != (model.dim, model.dim):
        raise ValidationError(f"dual point: S must be {model.dim}x{model.dim}")
    mat = float(xi @ gm @ xi) * model.rho.matrix - dual.s - np.tensordot(dual.a @ xi, model.tangent, 1)
    return (mat + mat.conj().T) / 2.0


def spur(model: StatisticalModel, dual: DualPoint) -> float:
    """Dual objective tr(a) + tr(S)."""
    if dual.a.shape != (model.n, model.n) or dual.s.shape != (model.dim, model.dim):
        raise ValidationError("dual point dimensions do not match the model")
    return float(np.trace(dual.a)) + float(np.trace(dual.s).real)


def _pauli_coords(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Traces and Pauli coordinates tr(X sigma_j) of a stack of 2 x 2 Hermitian matrices."""
    return (np.trace(mats, axis1=-2, axis2=-1).real,
            np.einsum("...ij,kji->...k", mats, PAULIS).real)


def _bloch_spinors(r: np.ndarray) -> np.ndarray:
    """Unit spinors, one per row, with the given unit Bloch vectors."""
    theta = np.arctan2(np.hypot(r[:, 0], r[:, 1]), r[:, 2])
    phi = np.arctan2(r[:, 1], r[:, 0])
    return np.stack([np.cos(theta / 2.0).astype(complex),
                     np.sin(theta / 2.0) * np.exp(1j * phi)], axis=1)


def _sphere_min(w: np.ndarray, q: np.ndarray, g: np.ndarray,
                c: float) -> tuple[np.ndarray, float]:
    """Minimize r^T A r + 2 g^T r + c over the unit sphere, A = q diag(w) q^T (w ascending).

    Returns the minimizer and the Lagrangian dual value at the computed
    multiplier mu, c - mu - g^T (A + mu I)^-1 g, which bounds the minimum
    from below whatever the rounding in r (Moré & Sorensen 1983). The
    multiplier is parametrized as mu = t - w[0], t >= 0, so that the
    secular equation sum (h_i / (gap_i + t))^2 = 1 loses no digits to
    cancellation when g is nearly orthogonal to the lowest eigenvector.

    The iteration runs on Python floats: on three coordinates, NumPy's
    per-call overhead is most of the cost.
    """
    h0, h1, h2 = (q.T @ g).tolist()
    w0, w1, w2 = w.tolist()
    gap1, gap2 = w1 - w0, w2 - w0
    hnorm = math.sqrt(h0 * h0 + h1 * h1 + h2 * h2)
    tiny = 8.0 * EPS * max(hnorm, abs(w0), abs(w2), 1e-300)
    # the coordinates outside the lowest eigenspace (gap > 0) have finite
    # y = -h / gap at mu = -w[0]; the others make up h_low
    y1 = -h1 / gap1 if gap1 > 0.0 else 0.0
    y2 = -h2 / gap2 if gap2 > 0.0 else 0.0
    low = [h0] + [hk for hk, gk in ((h1, gap1), (h2, gap2)) if not gk > 0.0]
    hlow = math.sqrt(sum(hk * hk for hk in low))
    if all(abs(hk) <= tiny for hk in low) and y1 * y1 + y2 * y2 < 1.0:
        # hard case: g (nearly) orthogonal to the lowest eigenspace, mu = -w[0];
        # the remaining norm goes along the lowest eigenvector
        y0 = math.copysign(math.sqrt(1.0 - (y1 * y1 + y2 * y2)), -h0)
        t = hlow
    else:
        # Newton on 1/|y(t)| - 1, increasing in t, safeguarded by the bracket
        # |h_low| <= t* <= |h| (and t* >= |h| - gap_max); t stays positive
        lo = max(hlow, hnorm - gap2, 0.0)
        hi = hnorm
        t = hi
        for _ in range(100):
            d1, d2 = gap1 + t, gap2 + t
            y0, y1, y2 = -h0 / t, -h1 / d1, -h2 / d2
            phi = y0 * y0 + y1 * y1 + y2 * y2
            psi = phi ** -0.5 - 1.0
            if abs(psi) <= 4.0 * EPS:
                break
            if psi < 0.0:
                lo = t
            else:
                hi = t
            t_new = t - psi / (phi ** -1.5 * (y0 * y0 / t + y1 * y1 / d1 + y2 * y2 / d2))
            if not lo < t_new < hi:
                t_new = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
            if t_new == t or hi - lo <= EPS * hi:
                break
            t = t_new
        y0, y1, y2 = -h0 / t, -h1 / (gap1 + t), -h2 / (gap2 + t)
    r = q @ (y0, y1, y2)
    r /= math.sqrt(r @ r)
    terms = sum(hk * hk / (gk + t) for hk, gk in ((h0, 0.0), (h1, gap1), (h2, gap2)) if hk != 0.0)
    return r, float(c + w0 - t - terms)


@dataclass
class _Separation:
    min_value: float
    best: np.ndarray
    violated: np.ndarray


def _spread_select(points: np.ndarray, candidate_idx: np.ndarray, count: int,
                   rel_dist: float) -> np.ndarray:
    """Greedy selection of up to ``count`` candidates kept pairwise apart at a relative scale.

    Candidates are taken in order; one is skipped when it lies within
    rel_dist * (|y| + |y'| + 1e-6) of an already chosen y'. The qubit oracle
    asks for up to 40 of its 129 candidates 0.2 apart, the d >= 3 sweeps for
    up to 10 at 0.01; one closeness matrix over all candidates serves the scan.
    """
    cand = points[candidate_idx]
    k = cand.shape[0]
    far = _far_pairs(cand, np.sqrt((cand * cand).sum(axis=1)), rel_dist)
    free = np.ones(k + 1, dtype=bool)
    chosen = []
    j = 0
    while j < k and len(chosen) < count:
        chosen.append(j)
        # every candidate is close to itself, so this clears j as well
        free &= far[j]
        j = int(free.argmax())
    return cand[chosen]


def _far_pairs(cand: np.ndarray, norms: np.ndarray, rel_dist: float) -> np.ndarray:
    """far[j, i]: candidate i lies beyond rel_dist * (|y_i| + |y_j| + 1e-6) of y_j.

    The squared distances are summed coordinate by coordinate, in order, as
    NumPy sums a row of fewer than eight; an extra last column of True ends
    a scan for the next far candidate.
    """
    k = cand.shape[0]
    sq = np.zeros((k, k))
    for col in cand.T:
        diff = np.subtract.outer(col, col)
        diff *= diff
        sq += diff
    np.sqrt(sq, out=sq)
    lim = np.add.outer(norms, norms)
    lim += 1e-6
    lim *= rel_dist
    far = np.ones((k, k + 1), dtype=bool)
    far[:, :k] = ~(sq <= lim)
    return far


def _hermitian(mats: np.ndarray) -> np.ndarray:
    return (mats + np.swapaxes(mats, -1, -2).conj()) / 2.0


class _Cuts(NamedTuple):
    """The live cuts in registration order; cut i is row i of the LP.

    Each field holds exactly one entry per live cut: the LP row and
    right-hand side, the number of consecutive rounds the cut has been
    slack, and its tangent point xi and normalized witness v.
    """

    rows: np.ndarray
    rhs: np.ndarray
    age: np.ndarray
    xi: np.ndarray
    v: np.ndarray

    def extend(self, new: _Cuts) -> _Cuts:
        """These cuts followed by ``new``."""
        return _Cuts(*map(np.concatenate, zip(self, new)))

    def retire(self, x: np.ndarray, floor: int, basis: np.ndarray) -> tuple[_Cuts, np.ndarray]:
        """Age the cuts at x and drop those slack for 8 consecutive rounds.

        Nothing ages while at most ``floor`` cuts are live. A basic cut is
        kept whatever its age (complementary slackness makes it tight).
        Returns the kept cuts and the LP basis with its cut labels
        renumbered to match.
        """
        if self.rhs.size <= floor:
            return self, basis
        tight = self.rhs - self.rows @ x <= 1e-8 * (1.0 + np.abs(self.rhs))
        cuts = self._replace(age=np.where(tight, 0, self.age + 1))
        keep = cuts.age < 8
        basic = basis >= 0
        keep[basis[basic]] = True
        if keep.all():
            return cuts, basis
        basis = basis.copy()
        basis[basic] = (np.cumsum(keep) - 1)[basis[basic]]
        return _Cuts(*(field[keep] for field in cuts)), basis


class _Engine:
    """Cutting-plane machinery over a generic multiplier block B.

    The standard dual uses a square B = a with objective tr(a); the
    submodel comparison reuses the same engine with a rectangular B and a
    projected objective. ``g`` is a weight matrix its callers have already
    validated, and ``obj`` is n x m for the m x m ``g``.
    """

    def __init__(self, model: StatisticalModel, g: np.ndarray, obj: np.ndarray):
        self.rho = np.asarray(model.rho.matrix)
        self.ops = model.tangent
        self.G = g
        self.obj = np.asarray(obj, dtype=float)
        self.d = model.dim
        self.n_ops = model.n
        self.ops_flat = self.ops.reshape(self.n_ops, -1)  # one tangent per row, for residuals
        self.m = self.G.shape[0]
        d = self.d
        self.iu = np.triu_indices(d, 1)
        self.npair = self.iu[0].size
        self.nB = self.n_ops * self.m
        self.nv = self.nB + d + 2 * self.npair

        gw, gv = np.linalg.eigh(self.G)
        jw = np.linalg.eigvalsh(model.fisher)
        kap = math.sqrt(gw[-1] / jw[0])
        rank = min(self.n_ops, self.m)
        obj_f = float(np.linalg.norm(self.obj))
        # compactness bounds on the multiplier, converted to entrywise boxes
        # with headroom: any enlargement keeps the true maximizer inside
        sigma = 4.0 * obj_f * math.sqrt(rank) * kap
        self.b_box = 2.0 * kap * sigma
        self.s_box = 2.0 * obj_f * math.sqrt(rank) * kap * sigma

        self.g_inv = (gv / gw) @ gv.T

        self.ub = np.full(self.nv, self.s_box)
        self.ub[: self.nB] = self.b_box
        self.lb = -self.ub
        self.ub[self.nB: self.nB + d] = 0.0  # S is negative semidefinite at every feasible point
        cvec = np.zeros(self.nv)
        cvec[: self.nB] = self.obj.ravel()
        cvec[self.nB: self.nB + d] = 1.0
        self.cvec = cvec

        if d == 2:
            # Bloch data of the exact qubit oracle, and a Fibonacci cover of
            # the Bloch sphere whose jumps seed it and add cuts
            self.rho_tr, self.rho_bloch = _pauli_coords(self.rho)
            self.bloch_floor = 1.0 - float(np.linalg.norm(self.rho_bloch))  # min of 1 + p.r
            self.ops_tr, self.ops_bloch = _pauli_coords(self.ops)
            i = np.arange(QUBIT_COVER)
            z = 1.0 - 2.0 * (i + 0.5) / QUBIT_COVER
            phi = i * (np.pi * (3.0 - math.sqrt(5.0)))
            rxy = np.sqrt(1.0 - z * z)
            self.cover = _bloch_spinors(np.stack([rxy * np.cos(phi), rxy * np.sin(phi), z], axis=1))
            self.cover_coeffs = self._witness_coeffs(self.cover)
        else:
            # Sym^2(C^d): its orthonormal basis P (complex: NumPy's real-complex
            # matmul is ~100x slower), the inverse Cholesky factor of
            # P^T (I x rho) P and the compressed products P^T (T_i x T_j) P
            i, j = np.triu_indices(d)
            k = np.arange(i.size)
            p = self.sym = np.zeros((d * d, i.size), dtype=complex)
            p[i * d + j, k] = p[j * d + i, k] = np.where(i == j, 1.0, math.sqrt(0.5))
            self.sym_ichol = np.linalg.inv(np.linalg.cholesky(p.T @ np.kron(np.eye(d), self.rho) @ p))
            self.sym_ops = np.array([[p.T @ np.kron(ti, tj) @ p for tj in self.ops] for ti in self.ops])

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

    def cut_rows(self, ys: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LP rows and right-hand sides of the cuts v^dag R(xi) v >= 0, one per (ys[q], vs[q]).

        Row q times the packed variables z is v^dag (S + B(xi)) v, so rhs - row @ z
        is the cut's value v^dag R(xi) v at the point z.
        """
        k = ys.shape[0]
        rv, kv = self._witness_coeffs(vs)
        rows = np.empty((k, self.nv))
        rows[:, : self.nB] = (kv[:, :, None] * ys[:, None, :]).reshape(k, self.nB)
        rows[:, self.nB: self.nB + self.d] = vs.real ** 2 + vs.imag ** 2
        z = vs.conj()[:, self.iu[0]] * vs[:, self.iu[1]]
        rows[:, self.nB + self.d: self.nB + self.d + self.npair] = 2.0 * z.real
        rows[:, self.nB + self.d + self.npair:] = -2.0 * z.imag
        return rows, np.einsum("qi,ij,qj->q", ys, self.G, ys) * rv

    def new_cuts(self, ys: np.ndarray, vs: np.ndarray) -> _Cuts:
        """Fresh cuts, one per (ys[q], vs[q]), their witnesses stored normalized."""
        rows, rhs = self.cut_rows(ys, vs)
        return _Cuts(rows, rhs, np.zeros(rhs.size, dtype=np.intp), ys,
                     vs / np.linalg.norm(vs, axis=1, keepdims=True))

    # -- separation ---------------------------------------------------------

    def residuals(self, b: np.ndarray, s: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Residual matrices at a batch of tangent points, one per row of ys."""
        quad = np.einsum("qi,ij,qj->q", ys, self.G, ys)
        coef = ys @ b.T
        # one expression: NumPy reuses its temporaries, a named term would stay alive
        return (quad[:, None, None] * self.rho[None] - s[None]
                - np.dot(coef, self.ops_flat).reshape(-1, self.d, self.d))

    def residual_mat(self, b: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Hermitian residual matrix at one tangent point."""
        return _hermitian(self.residuals(b, s, np.asarray(y, dtype=float)[None]))[0]

    def lam_min(self, b: np.ndarray, s: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Smallest residual eigenvalue at a batch of tangent points, one per row of ys.

        At d = 2 the residual's trace and Pauli coordinates are linear in
        (xi G xi, S, B xi), and lambda_min = (tr R - |bloch R|) / 2 needs no
        residual matrices.
        """
        if self.d != 2:
            return np.linalg.eigvalsh(self.residuals(b, s, ys))[:, 0]
        quad = np.einsum("qi,ij,qj->q", ys, self.G, ys)
        coef = ys @ b.T
        s_tr, s_bloch = _pauli_coords(s)
        tr = quad * self.rho_tr - s_tr - coef @ self.ops_tr
        bloch = quad[:, None] * self.rho_bloch - s_bloch - coef @ self.ops_bloch
        return 0.5 * (tr - np.sqrt(np.einsum("qj,qj->q", bloch, bloch)))

    def _descend(self, b, s, pts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Alternating descent on lambda_min of the residual.

        For a fixed witness vector v the scalar cut is a convex quadratic in
        y with exact minimizer; alternating that step with the smallest
        eigenvector of the residual decreases lambda_min monotonically and
        lands on critical points in a handful of iterations. A point leaves
        the batch once a step gains less than ``tol``, and every point after
        ``DESCENT_STEPS`` steps.
        """
        best_pts, best = pts.copy(), np.full(pts.shape[0], np.inf)
        live = np.arange(pts.shape[0])
        for _ in range(DESCENT_STEPS + 1):
            w, vecs = np.linalg.eigh(self.residuals(b, s, pts))
            gain = best[live] - w[:, 0]
            better = gain > 0
            best_pts[live[better]], best[live[better]] = pts[better], w[better, 0]
            moving = gain >= tol
            if not moving.any():
                break
            live = live[moving]
            pts = self._witness_jumps(b, vecs[moving, :, 0])
        return best_pts, best

    def _sym2_witnesses(self, b, s) -> np.ndarray:
        """Unit witnesses from the quartic form on Sym^2(C^d) (d >= 3).

        The cut of a unit witness v minimized over xi is <vv|Q|vv> / <vv|I x rho|vv>,
        Q = (-S) x rho - 1/4 sum_ij M_ij T_i x T_j, M = B G^-1 B^T. Each of the
        pencil's 6 lowest eigenvectors on Sym^2, reshaped to d x d (v x v
        reshapes to v v^T), gives its two leading left singular vectors.
        """
        p, ichol = self.sym, self.sym_ichol
        mk = b @ self.g_inv @ b.T
        q = -(p.T @ np.kron(s, self.rho) @ p) - 0.25 * np.tensordot(mk, self.sym_ops, 2)
        vecs = np.linalg.eigh(_hermitian(ichol @ q @ ichol.conj().T))[1][:, :6]
        mats = (p @ (ichol.conj().T @ vecs)).T.reshape(-1, self.d, self.d)
        return np.swapaxes(np.linalg.svd(mats)[0][:, :, :2], 1, 2).reshape(-1, self.d)

    def _witness_coeffs(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Witness expectations v^dag rho v and v^dag T_k v, one row per witness."""
        vc = vs.conj()
        return (np.einsum("qi,ij,qj->q", vc, self.rho, vs).real,
                np.einsum("qi,kij,qj->qk", vc, self.ops, vs).real)

    def _jumps(self, b, rv: np.ndarray, wk: np.ndarray) -> np.ndarray:
        """Jumps xi*(v) from the witness expectations of ``_witness_coeffs``."""
        return ((wk @ b) @ self.g_inv) / (2.0 * rv[:, None])

    def _witness_jumps(self, b, vs: np.ndarray) -> np.ndarray:
        """Exact scalar-cut minimizers xi*(v) for a batch of witness vectors."""
        return self._jumps(b, *self._witness_coeffs(vs))

    def _qubit_min(self, b, s, lam: float) -> tuple[np.ndarray, float, float]:
        """Exact minimum over the Bloch sphere of the minimized scalar cut (d = 2).

        For a witness with Bloch vector r the cut minimized over xi is
        f(r) = -(a0 + a.r)/2 - (k0 + K r)^T M (k0 + K r) / (8 (1 + p.r)) with
        (a0, a), p and (k0, K) the traces and Pauli coordinates of S, rho and
        the tangents, and M = b G^-1 b^T; so f = N / D with N quadratic and
        D = 1 + p.r >= 1 - |p| > 0. Dinkelbach's method, started from an
        upper bound lam on min f, minimizes N - lam D over the sphere exactly
        and sets lam = f(r) until f stops decreasing. Returns the best r, its
        value, and the certified lower bound lam + min(F, 0) / (1 - |p|), F
        the trust-region dual value of the last step.
        """
        a0, a = _pauli_coords(s)
        p, k0, kk = self.rho_bloch, self.ops_tr, self.ops_bloch
        mk = b @ self.g_inv @ b.T
        quad = -0.25 * (np.outer(a, p) + np.outer(p, a)) - 0.125 * (kk.T @ mk @ kk)
        lin = -0.5 * (a0 * p + a) - 0.25 * (kk.T @ (mk @ k0))
        const = -0.5 * a0 - 0.125 * float(k0 @ mk @ k0)
        w, q = np.linalg.eigh(quad)
        r_best, f_best = None, math.inf
        for _ in range(32):
            r, f_dual = _sphere_min(w, q, 0.5 * (lin - lam * p), const - lam)
            bound = lam + min(f_dual, 0.0) / self.bloch_floor
            val = float((r @ quad @ r + lin @ r + const) / (1.0 + p @ r))
            if val < f_best:
                r_best, f_best = r, val
            if not val < lam:
                break
            lam = val
        return r_best, f_best, bound

    def separate(self, b, s, feas_tol: float, pool: np.ndarray | None = None) -> _Separation:
        """Search the witness sphere for the most negative residual eigenvalue.

        d = 2: the exact Bloch-sphere minimum (a certified lower bound) and
        its minimizer, with the jumps of a fixed cover as further cut
        candidates. d >= 3: the jumps of the Sym^2 witnesses and xi = 0, each
        polished by descent until a step gains less than 1e-3 * feas_tol, and
        if none is below ``-feas_tol`` the jumps of the ``pool`` witnesses as
        they stand. The points below ``-feas_tol`` are the cut candidates;
        from the most violated down, ``_spread_select`` keeps up to 40 of them
        at least 0.2 relative distance apart at d = 2, where every cover jump
        is scored and spread cuts take a third of the rounds that bunched ones
        do, and up to 10 at 0.01 for d >= 3.
        """
        if self.d == 2:
            ys = self._jumps(b, *self.cover_coeffs)
            vals = self.lam_min(b, s, ys)
            r, f_best, min_value = self._qubit_min(b, s, float(np.min(vals)))
            all_pts = np.vstack([self._witness_jumps(b, _bloch_spinors(r[None])), ys])
            all_vals = np.concatenate([[f_best], vals])
            count, rel_dist = QUBIT_CUTS
        else:
            ys = np.vstack([self._witness_jumps(b, self._sym2_witnesses(b, s)), np.zeros((1, self.m))])
            pts, pvals = self._descend(b, s, ys, 1e-3 * feas_tol)
            all_pts = np.vstack([ys, pts])
            all_vals = np.concatenate([self.lam_min(b, s, ys), pvals])
            if pool is not None and all_vals.min() >= -feas_tol:
                ys = self._witness_jumps(b, pool)
                all_pts = np.vstack([all_pts, ys])
                all_vals = np.concatenate([all_vals, self.lam_min(b, s, ys)])
            min_value = float(np.min(all_vals))
            count, rel_dist = SWEEP_CUTS

        order = np.argsort(all_vals)
        bad = order[all_vals[order] < -feas_tol]
        violated = _spread_select(all_pts, bad, count, rel_dist)
        return _Separation(min_value, all_pts[order[0]].copy(), violated)

    # -- main loop ----------------------------------------------------------

    def solve(self, config: SolverConfig) -> DualResult:
        # the LP cannot act on cuts violated by less than its pivot tolerance
        feas_tol = max(config.feas_tol, PIVOT_TOL)
        # round 1 is the bare box LP: its cut rows all come from the sweeps
        cuts = self.new_cuts(np.zeros((0, self.m)), np.zeros((0, self.d), dtype=complex))

        trace: list[DualRound] = []
        start = None  # the last round's basis; appended cut rows leave it valid
        for rnd in range(1, config.max_rounds + 1):
            tick = time.perf_counter()
            lp = solve_boxed_lp(self.cvec, cuts.rows, cuts.rhs, self.lb, self.ub,
                                maximize=True, start=start)
            lp_s = time.perf_counter() - tick
            if lp.status != "optimal":
                raise NumericError(f"cutting-plane relaxation came back {lp.status}")
            b, s = self.unpack(lp.x)
            tick = time.perf_counter()
            # at d >= 3 a clean sweep ends the rounds only if the live cuts'
            # witnesses are clean too
            sep = self.separate(b, s, feas_tol, cuts.v)
            sep_s = time.perf_counter() - tick
            # every cut is one LP row
            rec = DualRound(lp.value, sep.min_value, lp.value + min(0.0, sep.min_value) * self.d,
                            cuts.rhs.size, lp.iterations, lp.warm, lp_s, sep_s)
            trace.append(rec)
            log.debug("round %d: lp=%.9g sep=%.3e rows=%d pivots=%d warm=%s lp_s=%.3g sep_s=%.3g",
                      rnd, rec.lp_value, rec.sep_min, rec.rows, rec.pivots, rec.warm,
                      rec.lp_s, rec.sep_s)
            if sep.min_value >= -feas_tol:
                break
            # retire cuts slack for many consecutive rounds; the LP stays small
            cuts, start = cuts.retire(lp.x, 4 * self.nv, lp.basis)
            # at each violated point, a cut for the lowest eigenvector and for
            # every other one below -feas_tol
            w, vecs = np.linalg.eigh(_hermitian(self.residuals(b, s, sep.violated)))
            take = w < -feas_tol
            take[:, 0] = True
            qi, ii = np.nonzero(take)
            cuts = cuts.extend(self.new_cuts(sep.violated[qi], vecs[qi, :, ii]))

        # feasibility restoration: one shift of S along the identity, which
        # moves every residual eigenvalue alike, by the last sweep's minimum;
        # a capped d >= 3 run ended on a violated sweep, which skipped the
        # cuts' witnesses (the exact d = 2 sweep does not read them)
        sep_min = sep.min_value
        if self.d > 2 and sep_min < -feas_tol:
            sep_min = min(sep_min, float(np.min(self.lam_min(b, s, self._witness_jumps(b, cuts.v)))))
        shift = sep_min - RESTORE_TOL if sep_min < -RESTORE_TOL else 0.0
        s = s + shift * np.eye(self.d)
        feasibility = sep_min - shift
        optimum = float(self.cvec[: self.nB] @ b.ravel()) + float(np.trace(s).real)
        lp_value = trace[-1].lp_value
        converged = lp_value - optimum <= config.obj_tol + self.d * feas_tol
        return DualResult(optimum, DualPoint(b, s), list(map(Cut, cuts.xi, cuts.v)), len(trace),
                          "converged" if converged else "unconverged", lp_value, feasibility,
                          self.d == 2, trace)


def solve_dual(model: StatisticalModel, g, config: SolverConfig | None = None) -> DualResult:
    """Cutting-plane solution of the dual program for a PD weight matrix.

    The returned ``optimum`` is the objective of the final dual point after
    feasibility restoration (one shift along the identity that lifts the
    last sweep's minimum, if below -1e-12, to 1e-12; ``feasibility`` is the
    minimum after it), a lower bound on the deviation of every locally
    unbiased measurement: certified on qubits, where the sweep is exact and
    ``certified`` is True, and for d >= 3 as far as the sweep finds every
    violation. ``lp_value`` bounds the true optimum from above up to the
    simplex's optimality tolerance: the simplex stops once no reduced cost
    is below ``-qcr.simplex.PIVOT_TOL`` (1e-9), so ``lp_value`` may fall
    short of the exact optimum by up to ``PIVOT_TOL`` times it.

    The rounds stop in one of two ways: when a sweep, at d >= 3 with the
    jumps of the live cuts' witnesses checked as well, finds no violation
    beyond ``feas_tol`` (clamped at the simplex's pivot tolerance, see
    :class:`SolverConfig`), or when the round cap is reached. Whichever
    ends them, ``status`` is ``"converged"`` if and only if
    ``lp_value - optimum <= obj_tol + d * feas_tol``, and ``"unconverged"``
    otherwise. ``trace`` holds one :class:`DualRound` per round.
    """
    cfg = config or SolverConfig()
    gm = require_weight_matrix(g, model.n)
    return _Engine(model, gm, np.eye(model.n)).solve(cfg)


def separation_oracle(model: StatisticalModel, g, dual: DualPoint,
                      config: SolverConfig | None = None) -> SeparationResult:
    """Witness-sphere search for the minimum of the residual's smallest eigenvalue.

    On qubits the minimum is exact: ``min_value`` is a certified lower bound
    and the witness is the computed minimizer with its scalar cut. For
    d >= 3 the witnesses come from the quartic separation form on the
    symmetric subspace, each mapped to the tangent point xi*(v) that
    minimizes its scalar cut and polished by alternating descent, and the
    most violating point found is returned with its scalar cut; there a
    nonnegative ``min_value`` is evidence, not proof, of feasibility, and
    callers needing certainty should rely on the certificate-gap
    identities. The result does not depend on ``config``, which is kept for
    callers that pass one.
    """
    gm = require_weight_matrix(g, model.n)
    if dual.a.shape != (model.n, model.n) or dual.s.shape != (model.dim, model.dim):
        raise ValidationError("dual point dimensions do not match the model")
    engine = _Engine(model, gm, np.eye(model.n))
    # the tolerance only picks cut candidates, which are not returned
    sep = engine.separate(dual.a, dual.s, PIVOT_TOL)
    v = np.linalg.eigh(engine.residual_mat(dual.a, dual.s, sep.best))[1][:, 0]
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
                             config: SolverConfig | None = None) -> SubmodelResult:
    """Compare the dual optimum of a submodel against the full model.

    The weight on the full model is the pullback of ``g_sub`` along the
    Fisher-orthogonal projection onto the selected tangent directions. That
    pullback is singular, but every feasible multiplier annihilates the
    projection kernel, so the full-model program reduces exactly to a
    rectangular multiplier over the subspace coordinates; the same engine
    solves it with the projected objective.
    """
    cfg = config or SolverConfig()
    idx = [require_int(i, "subspace index") for i in subspace_indices]
    if len(set(idx)) != len(idx) or not idx:
        raise ValidationError("subspace indices must be distinct and nonempty")
    if any(i < 0 or i >= model.n for i in idx):
        raise ValidationError(f"subspace indices out of range for n = {model.n}")
    k = len(idx)
    g_sub = require_weight_matrix(g_sub, k)

    sub = build_model(model.rho, model.tangent[idx])
    res_sub = solve_dual(sub, g_sub, cfg)

    emb = np.zeros((model.n, k))
    emb[idx, np.arange(k)] = 1.0
    j = model.fisher
    proj = np.linalg.solve(emb.T @ j @ emb, emb.T @ j)  # (k, n) Fisher-orthogonal projection
    engine = _Engine(model, g_sub, proj.T)
    raw = engine.solve(cfg)
    full_dual = DualPoint(raw.dual.a @ proj, raw.dual.s)
    holds = res_sub.optimum <= raw.optimum + SUBMODEL_TOL
    return SubmodelResult(res_sub.optimum, raw.optimum, holds, res_sub, full_dual, raw.status)
