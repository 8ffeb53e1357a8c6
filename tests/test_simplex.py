import numpy as np
import pytest

import qcr.simplex
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
    # classic cycling-prone instance; Bland fallback must terminate it
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


def _dense_pivot(tab, basis, row, col):
    # reference: the rank-1 update over the whole tableau
    tab[row] /= tab[row, col]
    rates = tab[:, col].copy()
    rates[row] = 0.0
    tab -= rates[:, None] * tab[row][None, :]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


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
    # Beale's cycling example drives the Bland fallback
    lps.append(([-0.75, 150.0, -0.02, 6.0],
                [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
                [0.0, 0.0, 1.0], [0.0] * 4, [1e6] * 4, False))
    return lps


def test_sparse_pivot_bit_identical_to_dense_update(monkeypatch):
    lps = _pivot_test_lps()
    ours = [solve_boxed_lp(c, a, b, lb, ub, maximize=mx) for c, a, b, lb, ub, mx in lps]
    monkeypatch.setattr(qcr.simplex, "_pivot", _dense_pivot)
    ref = [solve_boxed_lp(c, a, b, lb, ub, maximize=mx) for c, a, b, lb, ub, mx in lps]
    statuses = {r.status for r in ref}
    assert statuses == {"optimal", "infeasible"}
    for i, (o, r) in enumerate(zip(ours, ref)):
        assert o.status == r.status, f"lp {i}"
        assert o.iterations == r.iterations, f"lp {i}"
        if r.x is None:
            assert o.x is None, f"lp {i}"
        else:
            assert np.array_equal(o.x, r.x), f"lp {i}"
