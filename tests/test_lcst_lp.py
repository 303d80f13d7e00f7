"""Cutting-plane LP over levels, checked against closed forms and brute force."""

import functools
import random
from fractions import Fraction

import pytest

import latcov.lcst.lp as lp_mod
from latcov.cli import _tree_from_metric, parse_genspec
from latcov.errors import SolverStall
from latcov.lcst.lp import (EXACT_VAR_LIMIT, FLOAT_TOL, PIVOT_TOL, KcRow,
                            level_count, solve_lp_lcst)
from latcov.lcst.separation import reduced_tree, separate_kc
from latcov.lcst.simplex import solve_canonical_max

from util import (random_grouped_tree, single_leaf_tree, tree_tour_optimum,
                  two_level_tree)


def check_base_feasibility(tree, sol, slack=0):
    for lv in range(sol.levels + 1):
        x, budget = sol.x[lv], 1 << lv
        assert sum(tree.weight[e] * x[e] for e in tree.edges) <= budget + slack
        for e in tree.edges:
            assert -slack <= x[e] <= 1 + slack
            p = tree.parent[e]
            if p != tree.root:
                assert x[e] <= x[p] + slack
        for gi in range(len(tree.groups)):
            assert -slack <= sol.y[lv][gi] <= 1 + slack
            if lv < sol.levels:
                assert sol.y[lv][gi] <= sol.y[lv + 1][gi] + slack


def test_level_count():
    assert level_count(single_leaf_tree(6)) == 5      # 2*6=12, ceil(log2)=4
    assert level_count(single_leaf_tree(1)) == 2
    assert level_count(single_leaf_tree(0)) == 1      # degenerate weight


def test_single_leaf_closed_form():
    d = 6
    sol = solve_lp_lcst(single_leaf_tree(d))
    assert sol.exact
    for lv in range(sol.levels + 1):
        want = min(Fraction(1), Fraction(2 ** lv, d))
        assert sol.y[lv][0] == want
        assert want <= sol.x[lv][1] <= min(Fraction(1), Fraction(2 ** lv, d))
    expected = Fraction(1, 2) * sum(
        (1 << lv) * (1 - min(Fraction(1), Fraction(2 ** lv, d)))
        for lv in range(sol.levels + 1))
    assert sol.objective == expected
    assert sol.objective <= d
    assert sol.level_of == (2,)  # smallest level with 2^l/6 >= 1/2
    assert sol.kc_rows >= 1 and sol.iterations >= 2


def test_converged_solution_passes_separation():
    tree = two_level_tree()
    sol = solve_lp_lcst(tree)
    assert sol.exact
    check_base_feasibility(tree, sol)
    for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
        for lv in range(sol.levels + 1):
            assert separate_kc(tree, g, k, sol.x[lv], sol.y[lv][gi]) is None
    # top level is fully covering at any optimum
    assert all(y == 1 for y in sol.y[sol.levels])
    assert all(lv <= sol.levels for lv in sol.level_of)


def integral_point(tree, rng):
    """(x, y, start level) for a bought subtree meeting every requirement."""
    chosen = []
    for g, k in zip(tree.groups, tree.reqs):
        chosen.extend(rng.sample(g, k))
    bought = set(reduced_tree(tree, chosen))
    wt = sum(tree.weight[e] for e in bought)
    lv0 = (max(1, wt) - 1).bit_length()   # smallest level with 2^lv >= wt
    return bought, lv0


def test_integral_solution_passes_generated_rows_and_separation():
    for seed in range(8):
        rng = random.Random(f"integral:{seed}")
        tree = random_grouped_tree(seed, 6 + seed % 3)
        sol = solve_lp_lcst(tree)
        bought, lv0 = integral_point(tree, rng)
        assert lv0 <= sol.levels
        xs, ys = [], []
        for lv in range(sol.levels + 1):
            on = Fraction(1 if lv >= lv0 else 0)
            xs.append({e: (on if e in bought else Fraction(0))
                       for e in tree.edges})
            ys.append([on] * len(tree.groups))
        for cut in sol.cuts:
            lhs = (sum(xs[cut.level][e] for e in cut.leaf_cut)
                   + cut.multiplier * sum(xs[cut.level][e]
                                          for e in cut.inner_cut))
            assert lhs >= cut.multiplier * ys[cut.level][cut.group]
        for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
            for lv in range(sol.levels + 1):
                assert separate_kc(tree, g, k, xs[lv], ys[lv][gi]) is None


def test_lp_at_most_integral_optimum():
    for seed in range(6):
        tree = random_grouped_tree(100 + seed, 6 + seed % 3)
        opt, _ = tree_tour_optimum(tree)
        sol = solve_lp_lcst(tree)
        assert sol.exact
        check_base_feasibility(tree, sol)
        assert sol.objective <= opt
        # half completion time bound, measured with the LP's own levels
        assert 8 * opt >= sum(1 << lv for lv in sol.level_of)


def test_float_mode_matches_exact_on_small_instance():
    tree = two_level_tree()
    ex = solve_lp_lcst(tree)
    fl = solve_lp_lcst(tree, exact_limit=1)
    assert ex.exact and not fl.exact
    assert abs(float(ex.objective) - fl.objective) <= 1e-5
    assert fl.level_of == ex.level_of
    check_base_feasibility(tree, fl, slack=1e-6)


def test_iteration_cap_raises():
    with pytest.raises(SolverStall):
        solve_lp_lcst(single_leaf_tree(6), max_iters=1)


@pytest.mark.parametrize("tree, rounds, text", [
    (single_leaf_tree(6), 1, "1"),
    (random_grouped_tree(101, 5), 3, "1/2"),   # a fractional deficit
    (random_grouped_tree(101, 5), 0, "0"),
])
def test_stall_names_the_last_violation_in_lp_units(tree, rounds, text):
    # separation compares ints over the round's denominator; the message
    # reads the worst deficit back as the LP's own rational
    with pytest.raises(SolverStall) as info:
        solve_lp_lcst(tree, max_iters=rounds)
    assert str(info.value) == (
        f"cut generation still active after {rounds} rounds; "
        f"last violation {text}")


def unmemoized_lp_lcst(tree, exact_limit=EXACT_VAR_LIMIT):
    """The cut loop before the separation memo: every round separates every
    (level, group) pair, on Fraction (or float) data.

    Returns (x, y, objective, iterations, cuts, level_of, kc_rows) as
    solve_lp_lcst computes them, and per group the set of distinct
    separation inputs (closure x, y^l_g) over all levels and rounds; the
    base rows and the cut rows are built in the same order.
    """
    edges = tree.edges
    E, G = len(edges), len(tree.groups)
    L = level_count(tree)
    nlev = L + 1
    nvars = nlev * (E + G)
    exact = nvars <= exact_limit
    num = Fraction if exact else float
    tol = Fraction(0) if exact else FLOAT_TOL
    pivot_tol = Fraction(0) if exact else PIVOT_TOL
    eidx = {e: i for i, e in enumerate(edges)}

    def xvar(lv, e):
        return lv * E + eidx[e]

    def yvar(lv, gi):
        return nlev * E + lv * G + gi

    c = [num(0)] * nvars
    for lv in range(nlev):
        for gi in range(G):
            c[yvar(lv, gi)] = num(1 << lv)
    rows, rhs = [], []

    def add_row(coeffs, b):
        rows.append({j: num(v) for j, v in coeffs.items()})
        rhs.append(num(b))

    for lv in range(nlev):
        for e in edges:
            p = tree.parent[e]
            if p == tree.root:
                add_row({xvar(lv, e): 1}, 1)
            else:
                add_row({xvar(lv, e): 1, xvar(lv, p): -1}, 0)
        add_row({xvar(lv, e): tree.weight[e] for e in edges if tree.weight[e]},
                1 << lv)
    for gi in range(G):
        for lv in range(L):
            add_row({yvar(lv, gi): 1, yvar(lv + 1, gi): -1}, 0)
        add_row({yvar(L, gi): 1}, 1)

    closures = [reduced_tree(tree, g) for g in tree.groups]
    inputs = [set() for _ in range(G)]
    seen, cuts, iterations = set(), [], 0
    while True:
        sol, value = solve_canonical_max(c, rows, rhs, tol=pivot_tol)
        iterations += 1
        xs = tuple({e: sol[xvar(lv, e)] for e in edges} for lv in range(nlev))
        ys = tuple(tuple(sol[yvar(lv, gi)] for gi in range(G))
                   for lv in range(nlev))
        violated, fresh = False, 0
        for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
            for lv in range(nlev):
                inputs[gi].add((tuple(xs[lv][e] for e in closures[gi]),
                                ys[lv][gi]))
                v = separate_kc(tree, g, k, xs[lv], ys[lv][gi], tol=tol)
                if v is None:
                    continue
                violated = True
                sig = (lv, gi, v.multiplier, v.leaf_cut, v.inner_cut)
                if sig in seen:
                    continue
                seen.add(sig)
                cuts.append(KcRow(lv, gi, v.multiplier, v.leaf_cut,
                                  v.inner_cut))
                coeffs = {yvar(lv, gi): v.multiplier}
                for e in v.leaf_cut:
                    coeffs[xvar(lv, e)] = -1
                for e in v.inner_cut:
                    coeffs[xvar(lv, e)] = -v.multiplier
                add_row(coeffs, 0)
                fresh += 1
        if not violated:
            break
        assert fresh > 0
    half = Fraction(1, 2) if exact else 0.5
    objective = half * (num(G * ((1 << nlev) - 1)) - value)
    thr = half if exact else half - tol
    level_of = tuple(next((lv for lv in range(nlev) if ys[lv][gi] >= thr), L)
                     for gi in range(G))
    return ((xs, ys, objective, iterations, tuple(cuts), level_of, len(cuts)),
            inputs)


# random_grouped_tree seeds, generated trees, and the benchmark's embedded
# grid (embed seed 0), whose LP runs in floats
MEMO_CASES = ([f"random:{seed}" for seed in range(100, 106)]
              + [f"tree:n={n}:seed=1" for n in range(6, 13)]
              + ["grid:n=10:seed=6"])


def memo_tree(name):
    kind, arg = name.split(":", 1)
    if kind == "random":
        return random_grouped_tree(int(arg), 4 + int(arg) % 3)
    inst = parse_genspec(name)
    return inst.tree if kind == "tree" else _tree_from_metric(inst, 0)


@functools.lru_cache(maxsize=None)
def unmemoized_case(name):
    return unmemoized_lp_lcst(memo_tree(name))


@pytest.mark.parametrize("name", MEMO_CASES)
def test_separation_memo_matches_unmemoized_loop(name):
    tree = memo_tree(name)
    sol = solve_lp_lcst(tree)
    got = (sol.x, sol.y, sol.objective, sol.iterations, sol.cuts,
           sol.level_of, sol.kc_rows)
    want, _ = unmemoized_case(name)
    assert sol.exact == (not name.startswith("grid"))
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", MEMO_CASES)
def test_separation_runs_once_per_distinct_rational_input(name, monkeypatch):
    # the exact memo keys ints over each round's own denominator, reduced
    # by their gcd: a key must hit exactly when the rational inputs repeat,
    # in any level and any round
    tree = memo_tree(name)
    group_of = {id(g): gi for gi, g in enumerate(tree.groups)}
    calls = [0] * len(tree.groups)

    def counted(tree_, g, *args, **kwargs):
        calls[group_of[id(g)]] += 1
        return separate_kc(tree_, g, *args, **kwargs)

    monkeypatch.setattr(lp_mod, "separate_kc", counted)
    solve_lp_lcst(tree)
    _, inputs = unmemoized_case(name)
    assert calls == [len(seen) for seen in inputs]
