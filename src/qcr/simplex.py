"""Dense two-phase simplex for small box-constrained linear programs.

Built for the cutting-plane solver: a few hundred inequality rows over at
most ~100 variables, re-solved from scratch every round. The tableau is a
dense column-major (Fortran-order) array, so each column is contiguous.
A pivot applies its rank-1 update only to the columns where the normalised
pivot row is nonzero; any other entry would compute ``x - r * 0 = x``, so
the tableau is bit-identical to a full dense update (up to the sign of a
zero, which no comparison sees). Entering variables take the most negative
reduced cost with smallest-index tie-breaking; the leaving row comes from
a Harris two-pass ratio test, which keeps pivots large and bounds how far
round-off can push any basic variable negative. After a long degenerate
stall the method switches to Bland's rule outright, which rules out
cycling, and every result is verified feasible before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

PIVOT_TOL = 1e-9
PHASE1_TOL = 1e-7
RATIO_TIE_TOL = 1e-9
STALL_LIMIT = 300


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    value: float
    iterations: int


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    nz = np.flatnonzero(tab[row])
    rates = tab[:, col].copy()
    rates[row] = 0.0
    tab[:, nz] -= rates[:, None] * tab[row, nz][None, :]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _iterate(tab: np.ndarray, basis: np.ndarray, ncols: int, tol: float, max_iter: int,
             bland: bool = False) -> int:
    """Run pivots until optimality; returns the iteration count.

    Raises NumericError on iteration exhaustion and flags unboundedness,
    which cannot happen for the boxed programs built below.
    """
    it = 0
    stall = 0
    while True:
        cost = tab[-1, :ncols]
        neg = np.flatnonzero(cost < -tol)
        if neg.size == 0:
            return it
        if bland:
            enter = int(neg[0])
        else:
            worst = cost[neg].min()
            enter = int(neg[cost[neg] <= worst + 1e-15][0])
        col = tab[:-1, enter]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            raise NumericError("simplex: unbounded direction in a boxed program")
        # floor at zero so round-off negatives cannot win the ratio test
        rhs = np.maximum(tab[rows, -1], 0.0)
        ratios = rhs / col[rows]
        if bland:
            best = ratios.min()
            tied = rows[ratios <= best * (1.0 + 1e-12) + 1e-300]
            leave = int(tied[np.argmin(basis[tied])])
        else:
            # Harris two-pass test: the relaxed step bound caps how far any
            # row can be driven negative, then the largest pivot element
            # among the admissible rows keeps the update well conditioned
            slack_allow = RATIO_TIE_TOL * (1.0 + np.abs(rhs))
            theta_max = np.min((rhs + slack_allow) / col[rows])
            cand = rows[ratios <= theta_max]
            leave = int(cand[np.argmax(col[cand])])
        obj_before = tab[-1, -1]
        _pivot(tab, basis, leave, enter)
        # degenerate stretches trip the Bland fallback
        if abs(tab[-1, -1] - obj_before) <= 1e-13 * (1.0 + abs(obj_before)):
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        rhs = tab[:-1, -1]
        clamp = -1e-10 * (1.0 + float(np.max(rhs, initial=0.0)))
        rhs[(rhs < 0.0) & (rhs > clamp)] = 0.0
        it += 1
        if it > max_iter:
            raise NumericError(f"simplex: iteration limit {max_iter} exceeded")


def _two_phase(c: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float,
               bland: bool = False) -> tuple[str, np.ndarray | None, int]:
    """Minimize c @ y subject to a @ y <= b, y >= 0."""
    m0, n = a.shape
    m = m0
    flip = b < 0.0
    af = np.where(flip[:, None], -a, a)
    bf = np.where(flip, -b, b)
    slack = np.where(flip, -1.0, 1.0)
    art_rows = np.flatnonzero(flip)
    n_art = art_rows.size
    ncols = n + m0 + n_art
    tab = np.zeros((m + 1, ncols + 1), order="F")
    tab[:m, :n] = af
    tab[np.arange(m), n + np.arange(m)] = slack
    for j, r in enumerate(art_rows):
        tab[r, n + m0 + j] = 1.0
    tab[:m, -1] = bf
    basis = np.empty(m, dtype=int)
    basis[~flip] = n + np.flatnonzero(~flip)
    basis[flip] = n + m0 + np.arange(n_art)

    iters = 0
    max_iter = 5000 + 200 * (m + n)
    if n_art:
        cost = np.zeros(ncols + 1)
        cost[n + m0:ncols] = 1.0
        for r in art_rows:
            cost -= tab[r]
        tab[-1] = cost
        iters += _iterate(tab, basis, ncols, tol, max_iter, bland)
        if tab[-1, -1] < -PHASE1_TOL * (1.0 + float(np.max(bf, initial=0.0))):
            return "infeasible", None, iters
        # drive basic artificials out, dropping redundant rows
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= n + m0:
                row = tab[r, : n + m0]
                cols = np.flatnonzero(np.abs(row) > tol)
                if cols.size:
                    _pivot(tab, basis, r, int(cols[0]))
                else:
                    keep[r] = False
        tab = np.asfortranarray(tab[np.ix_(np.append(keep, True), np.r_[: n + m0, ncols])])
        basis = basis[keep]
        ncols = n + m0

    cost = np.zeros(ncols + 1)
    cost[:n] = c
    for r, bi in enumerate(basis):
        if cost[bi] != 0.0:
            cost = cost - cost[bi] * tab[r]
    tab[-1] = cost
    iters += _iterate(tab, basis, ncols, tol, max_iter, bland)
    y = np.zeros(ncols)
    for r, bi in enumerate(basis):
        y[bi] = tab[r, -1]
    return "optimal", y[:n], iters


def solve_boxed_lp(c, a_ub, b_ub, lb, ub, *, maximize: bool = False, tol: float = PIVOT_TOL) -> LpResult:
    """Optimize c @ x subject to a_ub @ x <= b_ub and lb <= x <= ub.

    Both bound vectors must be finite; the box is folded into the constraint
    rows after shifting the variables to be nonnegative.
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

    width = np.maximum(ub - lb, 0.0)
    a2 = np.vstack([a, np.eye(nv)])
    b2 = np.concatenate([b - a @ lb, width])
    obj = -c if maximize else c
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    status, y, iters = _two_phase(obj, a2, b2, tol)
    if status == "optimal" and b.size:
        # numerically degenerate instances occasionally drift infeasible;
        # one pure-Bland restart is slow but dependable
        if float(np.max(a @ (lb + y) - b)) > 1e-7 * scale:
            status, y, more = _two_phase(obj, a2, b2, tol, bland=True)
            iters += more
            if status == "optimal" and float(np.max(a @ (lb + y) - b)) > 1e-6 * scale:
                raise NumericError("simplex: result failed the feasibility check")
    if status != "optimal":
        return LpResult(status, None, float("nan"), iters)
    x = lb + y
    return LpResult("optimal", x, float(c @ x), iters)
