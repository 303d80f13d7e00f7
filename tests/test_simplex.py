"""The sparse integer simplex kernel against the dense tableau it replaced.

`reference_solve` is the dense loop the kernel must reproduce pivot for
pivot: every entry a Fraction (or float), the whole tableau updated on each
pivot. The kernel returns the same vertex, so `(x, value)` must agree in
value, in type and, for float data, bit for bit. The kernel takes each row
as a {column: entry} mapping; the tests convert at that boundary only.
"""

import random
from fractions import Fraction

import pytest

import latcov.lcst.lp as lp_mod
import latcov.lcst.simplex as simplex_mod
from latcov.errors import Unbounded
from latcov.lcst.lp import solve_lp_lcst
from latcov.lcst.simplex import solve_canonical_max

from util import random_grouped_tree


def reference_solve(c, rows, b, tol=Fraction(0)):
    """Dense tableau simplex; returns (x, value, whether Bland engaged)."""
    m, n = len(rows), len(c)
    zero = c[0] * 0 if c else Fraction(0)
    width = n + m + 1
    tab = []
    for i in range(m):
        row = list(rows[i]) + [zero] * m + [b[i]]
        row[n + i] = zero + 1
        tab.append(row)
    obj = [-ci for ci in c] + [zero] * m + [zero]
    basis = list(range(n, n + m))
    bland, stalled = False, 0
    while True:
        enter = -1
        if bland:
            enter = next((j for j in range(n + m) if obj[j] < -tol), -1)
        else:
            best_red = -tol
            for j in range(n + m):
                if obj[j] < best_red:
                    best_red, enter = obj[j], j
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            a = tab[i][enter]
            if a > tol:
                ratio = tab[i][-1] / a
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best, leave = ratio, i
        if leave < 0:
            raise Unbounded("objective unbounded above")
        piv = tab[leave][enter]
        prow = tab[leave]
        for j in range(width):
            prow[j] = prow[j] / piv
        for row in tab + [obj]:
            f = row[enter]
            if row is not prow and f != 0:
                for j in range(width):
                    row[j] -= f * prow[j]
        basis[leave] = enter
        if not bland:
            stalled = 0 if best > tol else stalled + 1
            bland = stalled >= 40
    x = [zero] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return x, obj[-1], bland


def sparse(rows):
    """Dense rows as the kernel's {column: entry} mappings."""
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def dense(rows, n):
    """The kernel's row mappings as dense lists of width n."""
    out = []
    for r in rows:
        row = [0] * n
        for j, v in r.items():
            row[j] = v
        out.append(row)
    return out


def assert_same(c, rows, b, tol=Fraction(0)):
    """Kernel and reference agree, Unbounded included; returns Bland flag.

    `rows` are dense; the kernel gets them as mappings.
    """
    try:
        x, value, bland = reference_solve(c, [list(r) for r in rows], b, tol)
    except Unbounded:
        with pytest.raises(Unbounded):
            solve_canonical_max(c, sparse(rows), b, tol=tol)
        return False
    got = solve_canonical_max(c, sparse(rows), b, tol=tol)
    assert repr(got) == repr((x, value))
    assert [type(v) for v in got[0]] == [type(v) for v in x]
    assert type(got[1]) is type(value)
    return bland


def random_lp(rng, m, n, num=Fraction):
    def entry():
        if rng.random() < 0.4:
            return num(0)
        return num(rng.randint(-6, 9)) / num(rng.randint(1, 4))

    c = [entry() for _ in range(n)]
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    b = [num(rng.randint(0, 12)) / num(rng.randint(1, 3)) for _ in range(m)]
    return c, rows, b


def test_random_exact_lps_match_reference():
    rng = random.Random("simplex:exact")
    unbounded = 0
    for _ in range(150):
        c, rows, b = random_lp(rng, rng.randint(1, 8), rng.randint(1, 8))
        try:
            reference_solve(c, [list(r) for r in rows], b)
        except Unbounded:
            unbounded += 1
        assert_same(c, rows, b)
    assert 0 < unbounded < 150  # both outcomes are exercised


def test_degenerate_lp_reaches_bland_and_matches():
    # a zero right-hand side on most rows makes nearly every pivot degenerate
    rng = random.Random("simplex:degenerate")
    n, m = 20, 30
    c = [Fraction(rng.randint(1, 5)) for _ in range(n)]
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(m - 1)] + [[Fraction(1)] * n]
    b = [Fraction(0)] * (m - 1) + [Fraction(7)]
    assert assert_same(c, rows, b)


def test_unbounded_raises():
    c = [Fraction(1), Fraction(0)]
    rows = [{0: Fraction(1), 1: Fraction(-1)}]
    with pytest.raises(Unbounded):
        solve_canonical_max(c, rows, [Fraction(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_canonical_max([Fraction(1)], [{0: Fraction(1)}], [Fraction(-1)])


def test_float_data_matches_reference_bit_for_bit():
    rng = random.Random("simplex:float")
    for k in range(100):
        c, rows, b = random_lp(rng, rng.randint(1, 8), rng.randint(1, 8),
                               num=float)
        if k % 4 == 0:
            c[0] = -abs(c[0]) - 1.0  # a negative c[0] seeds -0.0 zeros
        assert_same(c, rows, b, tol=1e-9)


def test_lcst_cut_rounds_match_reference(monkeypatch):
    # the LP hands the kernel ints; the reference divides, so it gets them
    # as Fractions, and the kernel's Fraction output must match it; the cut
    # loop reads the same vertex as int numerators over one denominator
    calls = []

    def record(c, rows, b, tol):
        got = solve_canonical_max(c, rows, b, tol=tol)
        calls.append((c, dense(rows, len(c)), b, tol, got))
        return got

    monkeypatch.setattr(lp_mod, "solve_canonical_max", record)
    for seed in range(100, 106):
        solve_lp_lcst(random_grouped_tree(seed, 4 + seed % 3))
    assert len(calls) >= 12
    for c, rows, b, tol, got in calls:
        assert tol == 0
        assert {type(v) for v in c + b} == {int}
        x, value, _ = reference_solve(
            [Fraction(v) for v in c],
            [[Fraction(v) for v in r] for r in rows],
            [Fraction(v) for v in b])
        assert repr(got) == repr((x, value))
        nums, den = got[0].nums, got[0].den
        assert type(den) is int and den > 0
        assert {type(v) for v in nums} <= {int}
        assert [Fraction(v, den) for v in nums] == x


def random_sparse_lp(rng, m, n, num):
    """Mostly-zero rows with a zero rhs, and three rows bounding x.

    Every pivot away from the origin starts degenerate, so the runs are
    long and some reach Bland's rule; the bounding rows keep it bounded.
    """
    c = [num(rng.randint(1, 5)) for _ in range(n)]
    rows = [[num(rng.choice([-3, -2, -1, 1, 2, 3])) if rng.random() < 0.15
             else num(0) for _ in range(n)] for _ in range(m)]
    rows += [[num(1) if j % 3 == k else num(0) for j in range(n)]
             for k in range(3)]
    b = [num(0)] * m + [num(rng.randint(3, 9)) for _ in range(3)]
    return c, rows, b


@pytest.mark.parametrize("num, tol", [(Fraction, Fraction(0)),
                                      (float, 1e-9)])
def test_sparse_lps_with_long_pivot_runs_match_reference(num, tol,
                                                        monkeypatch):
    # around each pivot: count cells that fill in and cancel outside the
    # entering column, and check the column index against the cells
    seen = {"fill": 0, "cancel": 0, "pivots": 0}
    pivot = simplex_mod._pivot

    def cells(tab):
        return {(i, j) for i, row in enumerate(tab) for j in row}

    def counted(tab, rhs, den, index, col, leave, enter, exact):
        before = cells(tab)
        pivot(tab, rhs, den, index, col, leave, enter, exact)
        after = cells(tab)
        seen["fill"] += sum(j != enter for _, j in after - before)
        seen["cancel"] += sum(j != enter for _, j in before - after)
        seen["pivots"] += 1
        assert {(i, j) for j, rows in enumerate(index) for i in rows} == after

    monkeypatch.setattr(simplex_mod, "_pivot", counted)
    rng = random.Random("simplex:sparse")  # the same LPs in both modes
    blands = 0
    for _ in range(20):
        c, rows, b = random_sparse_lp(rng, rng.randint(25, 40),
                                      rng.randint(15, 30), num)
        blands += assert_same(c, rows, b, tol)
    assert blands > 0
    assert seen["fill"] > 1000 and seen["cancel"] > 1000
    assert seen["pivots"] > 500


def test_optimal_value_matches_linprog():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = random.Random("simplex:linprog")
    checked = 0
    for _ in range(40):
        c, rows, b = random_lp(rng, rng.randint(1, 8), rng.randint(1, 8))
        res = linprog([-float(v) for v in c],
                      A_ub=[[float(v) for v in r] for r in rows],
                      b_ub=[float(v) for v in b], bounds=(0, None),
                      method="highs")
        if res.status == 3:
            with pytest.raises(Unbounded):
                solve_canonical_max(c, sparse(rows), b)
            continue
        assert res.status == 0
        x, value = solve_canonical_max(c, sparse(rows), b)
        assert float(value) == pytest.approx(-res.fun, rel=1e-7, abs=1e-7)
        assert all(sum(a * xi for a, xi in zip(r, x)) <= bi
                   for r, bi in zip(rows, b))
        checked += 1
    assert checked >= 10
