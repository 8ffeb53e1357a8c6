import numpy as np
import pytest

import qcr.simplex
from qcr.errors import NumericError, ValidationError
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


@pytest.mark.parametrize("bad", ["c", "a", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_data_is_rejected(bad, value):
    data = {"c": np.ones(2), "a": np.ones((1, 2)), "b": np.ones(1)}
    data[bad].flat[0] = value
    with pytest.raises(ValidationError):
        solve_boxed_lp(data["c"], data["a"], data["b"], np.zeros(2), np.full(2, 2.0), maximize=True)


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

def _reference_pivot(cols, binv, xb, rc, basis, row, enter, col):
    piv = col[row]
    prow = binv[row] / piv
    theta = xb[row] / piv
    rate = rc[enter]
    rc[:-1] -= cols @ (rate * prow)
    rc[-1] -= rate * theta
    rates = col.copy()
    rates[row] = 0.0
    binv -= np.outer(rates, prow)
    binv[row] = prow
    xb -= theta * rates
    xb[row] = theta
    basis[row] = enter
    rc[basis] = 0.0


def _reference_iterate(cols, binv, xb, rc, basis, tol, max_iter, bland=False):
    """The revised pivot loop written plainly, one NumPy call per step: the reference for ``_iterate``."""
    it = 0
    stall = 0
    while True:
        cost = rc[:-1]
        neg = np.flatnonzero(cost < -tol)
        if neg.size == 0:
            return it, True
        if bland:
            enter = int(neg[0])
        else:
            worst = cost[neg].min()
            enter = int(neg[cost[neg] <= worst + 1e-15][0])
        col = binv @ cols[enter]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            return it, False
        rhs = np.maximum(xb[rows], 0.0)
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
        obj_before = rc[-1]
        _reference_pivot(cols, binv, xb, rc, basis, leave, enter, col)
        if abs(rc[-1] - obj_before) <= 1e-13 * (1.0 + abs(obj_before)):
            stall += 1
            if stall > qcr.simplex.STALL_LIMIT:
                bland = True
        else:
            stall = 0
        clamp = -1e-10 * (1.0 + float(np.max(xb, initial=0.0)))
        xb[(xb < 0.0) & (xb > clamp)] = 0.0
        it += 1
        if it > max_iter:
            raise NumericError(f"simplex: iteration limit {max_iter} exceeded")


def _forced_bland(loop):
    return lambda cols, binv, xb, rc, basis, tol, max_iter, bland=False: loop(
        cols, binv, xb, rc, basis, tol, max_iter, True)


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


# -- pivot-loop tolerances on hand-built revised states ---------------------------------
#
# The dual columns are the rows of ``cols``; the basis starts as the identity,
# so B^-1 is the identity, and ``rc`` holds the reduced costs followed by minus
# the objective. Column 0 enters on the first pivot.


def test_pivot_clamps_only_round_off_negatives():
    # row 0 leaves (basic value 3 after the pivot); rows 1 and 2 have no entry
    # in the entering column, so the pivot leaves their basic values as they are
    tiny, small = -1e-12, -1e-9 * (1.0 + 3.0)
    cols = np.vstack([[1.0, 0.0, 0.0], np.eye(3)])
    binv = np.eye(3)
    xb = np.array([3.0, tiny, small])
    rc = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
    basis = np.array([1, 2, 3])
    assert qcr.simplex._iterate(cols, binv, xb, rc, basis, qcr.simplex.PIVOT_TOL, 100) == (1, True)
    assert list(basis) == [0, 2, 3]
    assert xb[0] == 3.0
    # the clamp zeroes a negative within 1e-10 (1 + max basic value) and keeps a larger one
    assert xb[1] == 0.0
    assert xb[2] == small


@pytest.mark.parametrize("gap, leaving", [(5e-13, 1), (1e-9, 0)], ids=["tie", "no-tie"])
def test_bland_ratio_ties_leave_by_the_smaller_basis_label(gap, leaving):
    # row 0 (basis label 5) has ratio 1, row 1 (label 2) ratio 1 + gap: within the
    # 1e-12 relative tie tolerance the smaller label leaves, beyond it the exact minimum
    cols = np.zeros((6, 2))
    cols[5, 0] = cols[2, 1] = 1.0
    cols[0] = 1.0
    binv = np.eye(2)
    xb = np.array([1.0, 1.0 + gap])
    rc = np.zeros(7)
    rc[0] = -1.0
    basis = np.array([5, 2])
    assert qcr.simplex._iterate(cols, binv, xb, rc, basis, qcr.simplex.PIVOT_TOL, 100,
                                bland=True) == (1, True)
    assert basis[leaving] == 0
