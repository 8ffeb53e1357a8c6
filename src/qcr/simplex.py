"""Dense simplex for small box-constrained linear programs, run on their dual.

``solve_boxed_lp`` maximizes c @ x subject to A x <= b and lb <= x <= ub by
running the primal simplex method on the LP dual

    min  b @ u + ub @ p - lb @ q   s.t.  A^T u + p - q = c,  u, p, q >= 0.

The dual has one equality row per variable, however many rows A has: each
row of A is a dual column, and each variable bound is another. The bound
columns give a feasible start with no phase one (p_j where c_j >= 0, else
q_j: the vertex of the box that maximizes c). An unbounded dual ray proves
the primal infeasible, and the primal point is read from the reduced costs
of the bound columns, x_j = ub_j - rc(p_j).

Every optimal result carries its basis as labels: i >= 0 is row i of A and
negative codes are bound columns. Passed back as ``start`` (the labels
remapped if rows were removed; appended rows need nothing), it restarts the
method from that basis. The basis inverse is rebuilt from the problem data
by one nv x nv inversion, so no state and no round-off carry over between
calls. A label out of range, a singular or ill-conditioned basis, or one
whose rebuilt basic solution is negative falls back to the box start.

The method runs in revised form (Dantzig & Orchard-Hays, Naval Res.
Logist. Q. 1, 1954): it keeps the dense nv x nv basis inverse B^-1, the
basic values and the reduced costs, never the full tableau. A pivot costs
one product of B^-1 with the entering column, one product of the dual
columns with the leaving row of B^-1, which prices every column, and a
rank-1 update of B^-1. Entering columns take the most negative reduced
cost with smallest-index tie-breaking; the leaving row comes from a Harris
two-pass ratio test, which keeps pivots large and bounds how far round-off
can push any basic variable negative. After a long degenerate stall the
method switches to Bland's rule outright, which rules out cycling, and
every result is verified feasible before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-9
STALL_LIMIT = 300


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    value: float
    iterations: int
    basis: np.ndarray | None = None  # labels of the final dual basis, for ``start``
    warm: bool = False  # whether the solve restarted from ``start``


def _iterate(cols: np.ndarray, binv: np.ndarray, xb: np.ndarray, rc: np.ndarray,
             basis: np.ndarray, tol: float, max_iter: int, bland: bool = False) -> tuple[int, bool]:
    """Minimize by revised-form pivots; returns the iteration count and False on an unbounded ray.

    ``cols`` holds the dual columns, one per row. The state is the basis
    inverse ``binv``, the basic values ``xb``, and the reduced costs ``rc``
    followed by minus the objective; every pivot updates it in place.
    """
    cost = rc[:-1]
    obj = float(rc[-1])
    # a reduced cost is negative when it is at most this, i.e. below -tol
    neg_bound = np.nextafter(-tol, -np.inf)
    it = 0
    stall = 0
    while True:
        if bland:
            neg = cost <= neg_bound
            enter = int(neg.argmax())
            if not neg[enter]:
                return it, True
        else:
            # Dantzig pricing: the smallest index within 1e-15 of the most negative cost
            worst = float(cost[cost.argmin()])
            if not worst <= neg_bound:
                return it, True
            enter = int((cost <= min(worst + 1e-15, neg_bound)).argmax())
        col = binv @ cols[enter]
        rows = (col > tol).nonzero()[0]
        if rows.size == 0:
            return it, False
        piv = col[rows]
        # floor at zero so round-off negatives cannot win the ratio test
        room = np.maximum(xb[rows], 0.0)
        ratios = room / piv
        if bland:
            best = ratios.min()
            tied = rows[ratios <= best * (1.0 + 1e-12) + 1e-300]
            leave = int(tied[basis[tied].argmin()])
        else:
            # Harris two-pass test: the relaxed step bound caps how far any
            # row can be driven negative, then the largest pivot element
            # among the admissible rows keeps the update well conditioned
            # (a minimum taken by argmin: cheaper than min() on short arrays)
            caps = (room + RATIO_TIE_TOL * (1.0 + room)) / piv
            theta_max = caps[caps.argmin()]
            admissible = (ratios <= theta_max).nonzero()[0]
            leave = int(rows[admissible[piv[admissible].argmax()]])
        obj_before = obj
        # the pivot: row ``leave`` of B^-1 scaled by the pivot element prices
        # every column, then B^-1 and the basic values take a rank-1 update
        p = float(col[leave])
        row = binv[leave] / p
        theta = float(xb[leave]) / p
        step = float(cost[enter])
        cost -= cols @ (step * row)
        obj -= step * theta
        rc[-1] = obj
        col[leave] = 0.0
        binv -= col[:, None] * row
        binv[leave] = row
        xb -= theta * col
        xb[leave] = theta
        basis[leave] = enter
        cost[basis] = 0.0
        # degenerate stretches trip the Bland fallback
        if abs(obj - obj_before) <= 1e-13 * (1.0 + abs(obj_before)):
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        if xb[xb.argmin()] < 0.0:
            clamp = -1e-10 * (1.0 + max(float(xb.max()), 0.0))
            xb[(xb < 0.0) & (xb > clamp)] = 0.0
        it += 1
        if it > max_iter:
            raise NumericError(f"simplex: iteration limit {max_iter} exceeded")


def _start(cols: np.ndarray, cost: np.ndarray, obj: np.ndarray, basis: np.ndarray,
           rhs_floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """B^-1, basic values and reduced costs (then minus the objective) in ``basis``.

    None if that basis is singular, too ill-conditioned to reproduce its own
    columns, or infeasible.
    """
    bmat = cols[basis].T
    try:
        binv = np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        return None
    eye = np.eye(basis.size)
    if not np.all(np.isfinite(binv)) or np.max(np.abs(binv @ bmat - eye), initial=0.0) > 1e-9:
        return None
    xb = binv @ obj
    if np.min(xb, initial=0.0) < rhs_floor:
        return None
    xb = np.maximum(xb, 0.0)
    price = cost[basis] @ binv
    rc = np.append(cost - cols @ price, -(cost[basis] @ xb))
    rc[basis] = 0.0
    return binv, xb, rc


def solve_boxed_lp(c, a_ub, b_ub, lb, ub, *, maximize: bool = False, start=None) -> LpResult:
    """Optimize c @ x subject to a_ub @ x <= b_ub and lb <= x <= ub, through the LP dual.

    Every input must be finite. ``start`` takes the ``basis`` of an
    earlier result on the same variables and bounds, whose rows may since
    have been appended to or removed (with the row labels remapped); the
    method restarts from that basis when it is valid, and from the box
    vertex otherwise. Infeasibility is reported as status "infeasible".
    """
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    nv = c.size
    a = np.asarray(a_ub, dtype=float).reshape(-1, nv)
    b = np.asarray(b_ub, dtype=float).reshape(-1)
    if lb.shape != (nv,) or ub.shape != (nv,):
        raise ValidationError("bounds must match the variable count")
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValidationError("bounds must be finite")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("objective and constraint data must be finite")
    if np.any(ub - lb < -1e-12):
        return LpResult("infeasible", None, float("nan"), 0)

    m = b.size
    obj = c if maximize else -c
    eye = np.eye(nv)
    # dual columns, one per row: u (rows of A), p (x <= ub), q (x >= lb)
    cols = np.vstack([a, eye, -eye])
    cost = np.concatenate([b, ub, -lb])
    rhs_floor = -1e-9 * (1.0 + float(np.max(np.abs(obj), initial=0.0)))
    box = m + np.arange(nv) + np.where(obj >= 0.0, 0, nv)
    max_iter = 5000 + 200 * (m + 3 * nv)

    def run(basis: np.ndarray, bland: bool = False):
        state = _start(cols, cost, obj, basis, rhs_floor)
        if state is None:
            return None
        basis = basis.copy()
        iters, bounded = _iterate(cols, *state, basis, PIVOT_TOL, max_iter, bland)
        if not bounded:
            return basis, None, iters
        return basis, np.clip(ub - state[2][m: m + nv], lb, ub), iters

    out = None
    if start is not None:
        labels = np.asarray(start, dtype=np.intp).reshape(-1)
        if labels.size == nv and np.all((labels >= -2 * nv) & (labels < m)):
            out = run(np.where(labels >= 0, labels, m - 1 - labels))
    warm = out is not None
    if out is None:
        out = run(box)
    basis, x, iters = out
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    if x is not None and m and float(np.max(a @ x - b)) > 1e-7 * scale:
        # numerically degenerate instances occasionally drift infeasible;
        # one pure-Bland restart from the box is slow but dependable
        basis, x, more = run(box, bland=True)
        iters += more
        warm = False
        if x is not None and float(np.max(a @ x - b)) > 1e-6 * scale:
            raise NumericError("simplex: result failed the feasibility check")
    if x is None:
        return LpResult("infeasible", None, float("nan"), iters, warm=warm)
    return LpResult("optimal", x, float(c @ x), iters, np.where(basis < m, basis, m - 1 - basis), warm)
