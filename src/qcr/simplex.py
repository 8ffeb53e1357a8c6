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
method from that basis. The tableau is rebuilt from the problem data by one
nv x nv solve, so no state and no round-off carry over between calls. A
label out of range, a singular or ill-conditioned basis, or one whose
rebuilt basic solution is negative falls back to the box start.

The tableau is a dense row-major array updated by full rank-1 pivots.
Entering columns take the most negative reduced cost with smallest-index
tie-breaking; the leaving row comes from a Harris two-pass ratio test,
which keeps pivots large and bounds how far round-off can push any basic
variable negative. After a long degenerate stall the method switches to
Bland's rule outright, which rules out cycling, and every result is
verified feasible before it is returned.
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


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    rates = tab[:, col].copy()
    rates[row] = 0.0
    tab -= rates[:, None] * tab[row]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _iterate(tab: np.ndarray, basis: np.ndarray, tol: float, max_iter: int,
             bland: bool = False) -> tuple[int, bool]:
    """Minimize by pivoting; returns the iteration count and False on an unbounded ray."""
    # views into the tableau, which every pivot updates in place
    cost = tab[-1, :-1]
    body = tab[:-1, :-1]
    rhs = tab[:-1, -1]
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
        col = body[:, enter]
        rows = (col > tol).nonzero()[0]
        if rows.size == 0:
            return it, False
        piv = col[rows]
        # floor at zero so round-off negatives cannot win the ratio test
        room = np.maximum(rhs[rows], 0.0)
        ratios = room / piv
        if bland:
            best = ratios.min()
            tied = rows[ratios <= best * (1.0 + 1e-12) + 1e-300]
            leave = int(tied[basis[tied].argmin()])
        else:
            # Harris two-pass test: the relaxed step bound caps how far any
            # row can be driven negative, then the largest pivot element
            # among the admissible rows keeps the update well conditioned
            theta_max = ((room + RATIO_TIE_TOL * (1.0 + room)) / piv).min()
            admissible = (ratios <= theta_max).nonzero()[0]
            leave = int(rows[admissible[piv[admissible].argmax()]])
        obj_before = float(tab[-1, -1])
        _pivot(tab, basis, leave, enter)
        # degenerate stretches trip the Bland fallback
        if abs(float(tab[-1, -1]) - obj_before) <= 1e-13 * (1.0 + abs(obj_before)):
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        if rhs.min() < 0.0:
            clamp = -1e-10 * (1.0 + max(float(rhs.max()), 0.0))
            rhs[(rhs < 0.0) & (rhs > clamp)] = 0.0
        it += 1
        if it > max_iter:
            raise NumericError(f"simplex: iteration limit {max_iter} exceeded")


def _tableau(mat: np.ndarray, cost: np.ndarray, cols: np.ndarray, rhs_floor: float) -> np.ndarray | None:
    """Dual tableau in the basis ``cols``, or None if that basis is singular or infeasible."""
    try:
        body = np.linalg.solve(mat[:, cols], mat)
    except np.linalg.LinAlgError:
        return None
    eye = np.eye(cols.size)
    if not np.all(np.isfinite(body)) or np.max(np.abs(body[:, cols] - eye), initial=0.0) > 1e-9:
        return None  # too ill-conditioned to reproduce its own columns
    if np.min(body[:, -1]) < rhs_floor:
        return None
    body[:, cols] = eye
    body[:, -1] = np.maximum(body[:, -1], 0.0)
    reduced = cost - cost[cols] @ body
    reduced[cols] = 0.0
    return np.vstack([body, reduced])


def solve_boxed_lp(c, a_ub, b_ub, lb, ub, *, maximize: bool = False, tol: float = PIVOT_TOL,
                   start=None) -> LpResult:
    """Optimize c @ x subject to a_ub @ x <= b_ub and lb <= x <= ub, through the LP dual.

    Both bound vectors must be finite. ``start`` takes the ``basis`` of an
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
    if np.any(ub - lb < -1e-12):
        return LpResult("infeasible", None, float("nan"), 0)

    m = b.size
    obj = c if maximize else -c
    eye = np.eye(nv)
    # dual columns: u (rows of A), p (x <= ub), q (x >= lb), then the right-hand side
    mat = np.hstack([a.T, eye, -eye, obj[:, None]])
    cost = np.concatenate([b, ub, -lb, [0.0]])
    rhs_floor = -1e-9 * (1.0 + float(np.max(np.abs(obj), initial=0.0)))
    box = m + np.arange(nv) + np.where(obj >= 0.0, 0, nv)
    max_iter = 5000 + 200 * (m + 3 * nv)

    def run(cols: np.ndarray, bland: bool = False):
        tab = _tableau(mat, cost, cols, rhs_floor)
        if tab is None:
            return None
        cols = cols.copy()
        iters, bounded = _iterate(tab, cols, tol, max_iter, bland)
        if not bounded:
            return cols, None, iters
        return cols, np.clip(ub - tab[-1, m: m + nv], lb, ub), iters

    out = None
    if start is not None:
        labels = np.asarray(start, dtype=np.intp).reshape(-1)
        if labels.size == nv and np.all((labels >= -2 * nv) & (labels < m)):
            out = run(np.where(labels >= 0, labels, m - 1 - labels))
    warm = out is not None
    if out is None:
        out = run(box)
    cols, x, iters = out
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    if x is not None and m and float(np.max(a @ x - b)) > 1e-7 * scale:
        # numerically degenerate instances occasionally drift infeasible;
        # one pure-Bland restart from the box is slow but dependable
        cols, x, more = run(box, bland=True)
        iters += more
        warm = False
        if x is not None and float(np.max(a @ x - b)) > 1e-6 * scale:
            raise NumericError("simplex: result failed the feasibility check")
    if x is None:
        return LpResult("infeasible", None, float("nan"), iters, warm=warm)
    return LpResult("optimal", x, float(c @ x), iters, np.where(cols < m, cols, m - 1 - cols), warm)
