import numpy as np
import pytest

import qcr.simplex
from qcr.errors import NumericError
from qcr.simplex import solve_boxed_lp

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def test_simple_maximization():
    # max x + 2y st x + y <= 4, x <= 3, y <= 3
    res = solve_boxed_lp(
        c=[1.0, 2.0],
        a_ub=[[1.0, 1.0]],
        b_ub=[4.0],
        lb=[0.0, 0.0],
        ub=[3.0, 3.0],
        maximize=True,
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(7.0, abs=1e-9)
    assert np.allclose(res.x, [1.0, 3.0], atol=1e-9)


def test_negative_rhs_needs_phase_one():
    # x >= 1 encoded as -x <= -1
    res = solve_boxed_lp([1.0], [[-1.0]], [-1.0], [0.0], [5.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_detected():
    res = solve_boxed_lp([1.0], [[1.0]], [-1.0], [0.0], [5.0])
    assert res.status == "infeasible"


def test_free_variables_via_shifted_box():
    # min x + y st x + y >= -2 with x, y in [-10, 10]
    res = solve_boxed_lp([1.0, 1.0], [[-1.0, -1.0]], [2.0], [-10.0, -10.0], [10.0, 10.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-2.0, abs=1e-8)


def test_beale_degenerate_example_terminates():
    # classic cycling-prone instance for the primal method; run on the LP dual
    # it takes 2 pivots, so it does not reach the Bland fallback
    c = [-0.75, 150.0, -0.02, 6.0]
    a = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_boxed_lp(c, a, b, [0.0] * 4, [1e6] * 4)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05, abs=1e-9)


def test_random_cross_check_against_scipy():
    rng = np.random.default_rng(99)
    for trial in range(150):
        nv = int(rng.integers(1, 7))
        mc = int(rng.integers(0, 9))
        c = rng.normal(size=nv)
        a = rng.normal(size=(mc, nv))
        b = rng.normal(size=mc)
        lb = -rng.uniform(0.5, 4.0, size=nv)
        ub = rng.uniform(0.5, 4.0, size=nv)
        ours = solve_boxed_lp(c, a, b, lb, ub)
        ref = scipy_linprog(c, A_ub=a if mc else None, b_ub=b if mc else None,
                            bounds=list(zip(lb, ub)), method="highs")
        if ref.status == 2:
            assert ours.status == "infeasible", f"trial {trial}"
            continue
        assert ref.status == 0
        assert ours.status == "optimal", f"trial {trial}"
        assert ours.value == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"
        # our point must be feasible
        if mc:
            assert np.all(a @ ours.x <= b + 1e-7)
        assert np.all(ours.x >= lb - 1e-9)
        assert np.all(ours.x <= ub + 1e-9)


def test_maximize_flag_consistency():
    rng = np.random.default_rng(3)
    c = rng.normal(size=4)
    a = rng.normal(size=(5, 4))
    b = rng.uniform(0.5, 2.0, size=5)
    lo, hi = np.full(4, -2.0), np.full(4, 2.0)
    mx = solve_boxed_lp(c, a, b, lo, hi, maximize=True)
    mn = solve_boxed_lp(-c, a, b, lo, hi, maximize=False)
    assert mx.value == pytest.approx(-mn.value, abs=1e-9)


def test_near_duplicate_rows_stay_feasible():
    # cutting-plane workloads pile up rows differing only at round-off scale;
    # a naive ratio test returns infeasible "optima" on this family
    rng = np.random.default_rng(12)
    for trial in range(40):
        nv = int(rng.integers(3, 6))
        base = rng.normal(size=(6, nv))
        rows = [base + 1e-10 * rng.normal(size=base.shape) for _ in range(12)]
        a = np.vstack(rows)
        b = np.tile(rng.uniform(0.2, 1.5, size=6), 12) + 1e-10 * rng.normal(size=6 * 12)
        c = rng.normal(size=nv)
        lo, hi = np.full(nv, -30.0), np.full(nv, 30.0)
        ours = solve_boxed_lp(c, a, b, lo, hi, maximize=True)
        assert ours.status == "optimal"
        assert np.max(a @ ours.x - b) <= 1e-7
        ref = scipy_linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(lo, hi)), method="highs")
        assert ours.value == pytest.approx(-ref.fun, abs=1e-6), f"trial {trial}"


def _pivot_test_lps():
    rng = np.random.default_rng(2024)
    lps = []
    for trial in range(80):
        nv = int(rng.integers(2, 9))
        mc = int(rng.integers(1, 25))
        a = rng.normal(size=(mc, nv))
        a[rng.random(size=a.shape) < 0.4] = 0.0  # sparse rows leave pivot-row zeros
        lb = -rng.uniform(0.5, 4.0, size=nv)
        ub = rng.uniform(0.5, 4.0, size=nv)
        x0 = rng.uniform(lb, ub)
        # feasible at x0; rows that the box shift makes negative need phase one
        b = a @ x0 + rng.uniform(0.0, 1.0, size=mc)
        kind = trial % 4
        if kind == 1:
            # degenerate: feasible at the lower box corner, half the rows tight there
            b = a @ lb + rng.uniform(0.0, 1.0, size=mc)
            b[: mc // 2] = a[: mc // 2] @ lb
        elif kind == 2:
            # equality pairs through x0: artificials can stay basic at zero after phase one
            b[:3] = a[:3] @ x0
            a = np.vstack([a, -a[:3]])
            b = np.concatenate([b, -b[:3]])
        elif kind == 3:
            b = rng.normal(size=mc)  # often infeasible
        lps.append((rng.normal(size=nv), a, b, lb, ub, bool(rng.integers(2))))
    # Beale's cycling example (2 pivots on the LP dual)
    lps.append(([-0.75, 150.0, -0.02, 6.0],
                [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
                [0.0, 0.0, 1.0], [0.0] * 4, [1e6] * 4, False))
    return lps


def test_pivot_test_lps_match_scipy():
    # negative right-hand sides, degenerate rows, equality pairs, infeasible
    # programs and Beale's cycling example, each against HiGHS
    lps = _pivot_test_lps()
    statuses = set()
    for i, (c, a, b, lb, ub, mx) in enumerate(lps):
        ours = solve_boxed_lp(c, a, b, lb, ub, maximize=mx)
        sign = -1.0 if mx else 1.0
        ref = scipy_linprog(sign * np.asarray(c), A_ub=a, b_ub=b, bounds=list(zip(lb, ub)),
                            method="highs")
        statuses.add(ours.status)
        if ref.status == 2:
            assert ours.status == "infeasible", f"lp {i}"
            assert ours.x is None, f"lp {i}"
            continue
        assert ref.status == 0
        assert ours.status == "optimal", f"lp {i}"
        assert ours.value == pytest.approx(sign * ref.fun, abs=1e-9 * (1.0 + abs(ref.fun))), f"lp {i}"
        assert np.all(np.asarray(a) @ ours.x <= np.asarray(b) + 1e-7), f"lp {i}"
    assert statuses == {"optimal", "infeasible"}


# -- warm starts ----------------------------------------------------------------------

def _close(v, ref):
    return abs(v - ref) <= 1e-9 * (1.0 + abs(ref))


def _remap(basis, keep, m):
    """Row labels after keeping rows ``keep`` of ``m``; None if a basic row went."""
    new_row = np.full(m, -1)
    new_row[keep] = np.arange(len(keep))
    start = basis.copy()
    rows = start >= 0
    start[rows] = new_row[start[rows]]
    return None if np.any(start[rows] < 0) else start


def _kelley_sequences(solve):
    """Kelley-like runs: cut an ellipsoid off at the LP optimum, add random
    tangent rows, retire slack rows, and restart from the remapped basis.

    Each step calls ``solve(c, a, b, lb, ub, start)``, which returns the
    warm-started result the next step is built from.
    """
    rng = np.random.default_rng(41)
    for seq in range(6):
        nv = int(rng.integers(3, 9))
        axes = rng.uniform(0.3, 2.0, size=nv)
        c = rng.normal(size=nv)
        lb, ub = np.full(nv, -3.0), np.full(nv, 3.0)
        a = np.zeros((0, nv))
        b = np.zeros(0)
        start = None
        for step in range(25):
            ours = solve(c, a, b, lb, ub, start)
            # the deepest cut at the optimum, plus random tangent rows
            x = ours.x
            dirs = [x / axes**2] + [rng.normal(size=nv) for _ in range(int(rng.integers(0, 10)))]
            for g in dirs:
                # the supporting plane of sum (x_i / axes_i)^2 <= 1 with normal g
                t = np.sqrt(np.sum((axes * g) ** 2))
                a = np.vstack([a, g])
                b = np.append(b, t)
            start = ours.basis
            if step % 3 == 2:
                # retire up to half the rows that are slack at the optimum
                stale = np.flatnonzero(b - a @ x > 1e-6)
                drop = rng.permutation(stale)[: stale.size // 2]
                keep = np.setdiff1d(np.arange(len(b)), drop)
                start = _remap(start, keep, len(b))
                a, b = a[keep], b[keep]


def test_warm_start_cutting_plane_sequences_match_cold_and_scipy():
    warm = []

    def solve(c, a, b, lb, ub, start):
        ours = solve_boxed_lp(c, a, b, lb, ub, maximize=True, start=start)
        cold = solve_boxed_lp(c, a, b, lb, ub, maximize=True)
        ref = scipy_linprog(-c, A_ub=a if b.size else None, b_ub=b if b.size else None,
                            bounds=list(zip(lb, ub)), method="highs")
        warm.append(ours.warm)
        step = len(warm)
        assert ref.status == 0 and ours.status == cold.status == "optimal"
        assert _close(ours.value, cold.value), step
        assert _close(ours.value, -ref.fun), step
        if b.size:
            assert np.max(a @ ours.x - b) <= 1e-7
        return ours

    _kelley_sequences(solve)
    assert sum(warm) >= 0.9 * (len(warm) - 6)


def test_invalid_warm_starts_fall_back_to_the_box():
    rng = np.random.default_rng(8)
    nv, mc = 5, 12
    c = rng.normal(size=nv)
    a = rng.normal(size=(mc, nv))
    b = rng.uniform(0.2, 1.5, size=mc)
    lb, ub = np.full(nv, -2.0), np.full(nv, 2.0)
    cold = solve_boxed_lp(c, a, b, lb, ub, maximize=True)
    ref = scipy_linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(lb, ub)), method="highs")
    assert _close(cold.value, -ref.fun)
    assert not cold.warm
    again = solve_boxed_lp(c, a, b, lb, ub, maximize=True, start=cold.basis)
    assert again.warm and again.iterations == 0 and _close(again.value, cold.value)
    # the bound columns that the objective does not favour: their basic
    # solution is -|c|, so the rebuilt right-hand side is negative
    wrong_side = -1 - np.arange(nv) - np.where(c >= 0.0, nv, 0)
    bad_starts = {
        "wrong length": cold.basis[:-1],
        "row out of range": np.append(cold.basis[:-1], mc),
        "bound code out of range": np.append(cold.basis[:-1], -2 * nv - 1),
        "singular": np.full(nv, -1),
        "negative right-hand side": wrong_side,
    }
    for name, start in bad_starts.items():
        res = solve_boxed_lp(c, a, b, lb, ub, maximize=True, start=start)
        assert res.status == "optimal", name
        assert not res.warm, name
        assert _close(res.value, cold.value), name
        assert np.max(a @ res.x - b) <= 1e-7, name


def test_rows_added_until_infeasible_are_reported_infeasible():
    rng = np.random.default_rng(5)
    nv = 4
    c = rng.normal(size=nv)
    lb, ub = np.full(nv, -5.0), np.full(nv, 5.0)
    a = np.zeros((0, nv))
    b = np.zeros(0)
    start = None
    for step in range(200):
        # half-spaces g @ x <= -0.5 for unit g: their intersection empties out
        g = rng.normal(size=(2, nv))
        a = np.vstack([a, g / np.linalg.norm(g, axis=1, keepdims=True)])
        b = np.append(b, [-0.5, -0.5])
        ours = solve_boxed_lp(c, a, b, lb, ub, maximize=True, start=start)
        ref = scipy_linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(lb, ub)), method="highs")
        if ref.status == 2:
            assert ours.status == "infeasible" and ours.x is None and ours.basis is None
            assert start is not None  # reached from a warm start
            return
        assert ours.status == "optimal" and _close(ours.value, -ref.fun), step
        start = ours.basis
    pytest.fail("the rows never made the program infeasible")


# -- pivot rule ------------------------------------------------------------------------

def _reference_pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    rates = tab[:, col].copy()
    rates[row] = 0.0
    tab -= np.outer(rates, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _reference_iterate(tab, basis, tol, max_iter, bland=False):
    """The pivot loop as first written, one NumPy call per step: the reference for ``_iterate``."""
    it = 0
    stall = 0
    while True:
        cost = tab[-1, :-1]
        neg = np.flatnonzero(cost < -tol)
        if neg.size == 0:
            return it, True
        if bland:
            enter = int(neg[0])
        else:
            worst = cost[neg].min()
            enter = int(neg[cost[neg] <= worst + 1e-15][0])
        col = tab[:-1, enter]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            return it, False
        rhs = np.maximum(tab[rows, -1], 0.0)
        ratios = rhs / col[rows]
        if bland:
            best = ratios.min()
            tied = rows[ratios <= best * (1.0 + 1e-12) + 1e-300]
            leave = int(tied[np.argmin(basis[tied])])
        else:
            slack_allow = qcr.simplex.RATIO_TIE_TOL * (1.0 + np.abs(rhs))
            theta_max = np.min((rhs + slack_allow) / col[rows])
            cand = rows[ratios <= theta_max]
            leave = int(cand[np.argmax(col[cand])])
        obj_before = tab[-1, -1]
        _reference_pivot(tab, basis, leave, enter)
        if abs(tab[-1, -1] - obj_before) <= 1e-13 * (1.0 + abs(obj_before)):
            stall += 1
            if stall > qcr.simplex.STALL_LIMIT:
                bland = True
        else:
            stall = 0
        rhs = tab[:-1, -1]
        clamp = -1e-10 * (1.0 + float(np.max(rhs, initial=0.0)))
        rhs[(rhs < 0.0) & (rhs > clamp)] = 0.0
        it += 1
        if it > max_iter:
            raise NumericError(f"simplex: iteration limit {max_iter} exceeded")


def _forced_bland(loop):
    return lambda tab, basis, tol, max_iter, bland=False: loop(tab, basis, tol, max_iter, True)


# Dantzig pricing with the usual fallback, Bland's rule throughout, and a
# fallback that trips after two degenerate pivots
PIVOT_MODES = ["dantzig", "bland", "early-stall"]


def _same_as_reference(monkeypatch, mode, *args, **kwargs):
    """Solve with the pivot loop and with the reference loop; both must agree bit for bit."""
    loops = [qcr.simplex._iterate, _reference_iterate]
    if mode == "bland":
        loops = [_forced_bland(loop) for loop in loops]
    results = []
    with monkeypatch.context() as patch:
        if mode == "early-stall":
            patch.setattr(qcr.simplex, "STALL_LIMIT", 1)
        for loop in loops:
            patch.setattr(qcr.simplex, "_iterate", loop)
            results.append(solve_boxed_lp(*args, **kwargs))
    ours, ref = results
    assert (ours.status, ours.iterations, ours.warm) == (ref.status, ref.iterations, ref.warm)
    if ref.x is None:
        assert ours.x is None and ours.basis is None
    else:
        assert np.array_equal(ours.basis, ref.basis)
        assert np.array_equal(ours.x, ref.x)
        assert ours.value == ref.value
    return ours


def _degenerate_lps():
    """Zero objective entries and rows tight at box corners: many pivots leave the objective as is."""
    rng = np.random.default_rng(7)
    lps = []
    for trial in range(40):
        nv = int(rng.integers(3, 8))
        mc = int(rng.integers(4, 20))
        c = rng.normal(size=nv)
        c[rng.random(nv) < 0.5] = 0.0
        a = rng.normal(size=(mc, nv))
        a[rng.random(size=a.shape) < 0.4] = 0.0
        b = np.abs(a) @ np.ones(nv) * rng.integers(0, 2, size=mc)
        lps.append((c, a, b, -np.ones(nv), np.ones(nv), bool(trial % 2)))
    return lps


@pytest.mark.parametrize("mode", PIVOT_MODES)
def test_pivot_loop_matches_the_reference_on_the_pivot_test_lps(monkeypatch, mode):
    for c, a, b, lb, ub, mx in _pivot_test_lps() + _degenerate_lps():
        _same_as_reference(monkeypatch, mode, c, a, b, lb, ub, maximize=mx)


@pytest.mark.parametrize("mode", PIVOT_MODES)
def test_pivot_loop_matches_the_reference_on_warm_started_sequences(monkeypatch, mode):
    warm = []

    def solve(c, a, b, lb, ub, start):
        ours = _same_as_reference(monkeypatch, mode, c, a, b, lb, ub, maximize=True, start=start)
        warm.append(ours.warm)
        return ours

    _kelley_sequences(solve)
    assert sum(warm) >= 0.9 * (len(warm) - 6)
