"""Budgeted path solvers checked against an independent subset-DP oracle."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from latcov import orienteering
from latcov.cli import parse_genspec
from latcov.errors import CapExceeded
from latcov.instances import random_instance
from latcov.instances.metrics import GridPoints, metric_closure, uniform_metric
from latcov.instances.valuations import (CoverFunction, ExplicitFunction,
                                         uniform_term)
from latcov.mlsc import alg_mlsc
from latcov.orienteering import SopQuery, sop_exact, sop_recursive_greedy
from latcov.ranking import ResidualFunction
from util import reference_recursive_greedy


def dp_best_value(metric, root, g, budget):
    """Best oracle value over budget-feasible simple paths from the root.

    Dynamic program over (visited set, endpoint) with minimal length per
    state; independent of the DFS search used by the implementation.
    """
    n = metric.n
    dp = {(1 << root, root): 0}
    reachable = {1 << root}
    for s in range(1 << n):
        for v in range(n):
            c = dp.get((s, v))
            if c is None:
                continue
            reachable.add(s)
            for u in range(n):
                if s & (1 << u):
                    continue
                c2 = c + metric.d(v, u)
                if c2 <= budget:
                    key = (s | (1 << u), u)
                    if c2 < dp.get(key, budget + 1):
                        dp[key] = c2
    return max(g.value(s) for s in reachable)


def random_cover(rng, n):
    nterms = rng.randint(1, 3)
    terms = []
    for _ in range(nterms):
        size = rng.randint(1, n - 1)
        members = rng.sample(range(1, n), size)  # keep the root valueless
        k = rng.randint(1, size)
        terms.append(uniform_term(Fraction(1, nterms), members, k))
    return CoverFunction(n, terms)


def random_grid_metric(rng, n, span=3):
    pts, used = [], set()
    while len(pts) < n:
        p = (rng.randint(0, span), rng.randint(0, span))
        if p not in used:
            used.add(p)
            pts.append(p)
    return GridPoints(tuple(pts)).to_metric()


def median_distance(metric):
    off = sorted(metric.d(u, v) for u in range(metric.n)
                 for v in range(u + 1, metric.n))
    return off[len(off) // 2]


def random_query(seed):
    rng = random.Random(f"sop:{seed}")
    n = 4 + seed % 4
    if rng.random() < 0.5:
        metric = uniform_metric(n)
    else:
        metric = random_grid_metric(rng, n)
    g = random_cover(rng, n)
    med = median_distance(metric)
    budget = rng.choice([max(1, med // 2), med, med + 1])
    return SopQuery(metric, 0, g, budget)


def check_result(q, res, exact_value):
    rho, sigma = res.guarantee
    assert res.path[0] == q.root
    assert len(set(res.path)) == len(res.path), "path must be simple"
    assert res.length == q.metric.walk_length(list(res.path))
    assert res.length <= sigma * q.budget
    mask = 0
    for v in res.path:
        mask |= 1 << v
    assert res.value == q.valuation.value(mask)
    assert res.value * rho >= exact_value


PIN_POINTS = ((0, 0), (2, 1), (4, 0), (1, 3), (3, 3), (0, 2), (4, 4))


def pinned_query():
    metric = GridPoints(PIN_POINTS).to_metric()
    g = CoverFunction(7, [
        uniform_term(Fraction(1, 2), [1, 2, 4], 2),
        uniform_term(Fraction(1, 4), [3, 5], 1),
        uniform_term(Fraction(1, 4), [2, 5, 6], 3),
    ])
    return SopQuery(metric, 0, g, median_distance(metric))


def test_zero_budget_returns_root():
    q = SopQuery(uniform_metric(5), 0, random_cover(random.Random(1), 5), 0)
    res = sop_exact(q)
    assert res.path == (0,)
    assert res.length == 0
    assert res.value == q.valuation.value(1)


def test_budget_unbinding_covers_everything():
    for seed in range(8):
        rng = random.Random(f"unbind:{seed}")
        n = 5
        metric = random_grid_metric(rng, n)
        g = random_cover(rng, n)
        q = SopQuery(metric, 0, g, (n - 1) * metric.diameter)
        res = sop_exact(q)
        assert res.value == g.value((1 << n) - 1)


def test_exact_equals_dp_oracle_pinned():
    q = pinned_query()
    frozen = Fraction(1, 3)
    res = sop_exact(q)
    assert res.value == frozen
    assert dp_best_value(q.metric, q.root, q.valuation, q.budget) == frozen


def test_exact_equals_dp_oracle_random():
    for seed in range(40):
        q = random_query(seed)
        res = sop_exact(q)
        assert res.value == dp_best_value(q.metric, q.root, q.valuation,
                                          q.budget)


def test_exact_cap():
    n = 10
    g = CoverFunction(n, [uniform_term(Fraction(1), [1], 1)])
    with pytest.raises(CapExceeded):
        sop_exact(SopQuery(uniform_metric(n), 0, g, 3))


def test_exact_tie_break_takes_lexicographic_path():
    g = CoverFunction(3, [uniform_term(Fraction(1, 2), [1], 1),
                          uniform_term(Fraction(1, 2), [2], 1)])
    res = sop_exact(SopQuery(uniform_metric(3), 0, g, 1))
    assert res.path == (0, 1)
    assert res.value == Fraction(1, 2)


def test_recursive_greedy_single_target():
    rng = random.Random("target")
    for _ in range(10):
        metric = random_grid_metric(rng, 6)
        t = rng.randint(1, 5)
        g = CoverFunction(6, [uniform_term(Fraction(1), [t], 1)])
        need = metric.d(0, t)
        res = sop_recursive_greedy(SopQuery(metric, 0, g, need))
        assert res.value == 1 and t in res.path and res.length <= need
        if need > 0:
            starved = sop_recursive_greedy(SopQuery(metric, 0, g, need - 1))
            assert starved.value == 0


def test_recursive_greedy_ratio_small():
    for seed in range(36):
        rng = random.Random(f"ratio:{seed}")
        n = 8 if seed % 3 == 0 else 9
        metric = uniform_metric(n) if seed % 2 else random_grid_metric(rng, n)
        g = random_cover(rng, n)
        budget = max(1, median_distance(metric) // 2)
        q = SopQuery(metric, 0, g, budget)
        exact = sop_exact(q)
        res = sop_recursive_greedy(q)
        rho = math.ceil(math.log2(n)) + 1
        assert res.length <= q.budget
        assert res.value * rho >= exact.value


def test_declared_guarantees():
    q = random_query(3)
    n = q.metric.n
    assert sop_exact(q).guarantee == (1, 1)
    assert sop_recursive_greedy(q).guarantee == (math.ceil(math.log2(n)) + 1, 1)


def test_all_solvers_meet_contract_on_seeded_queries():
    # 300 seeded queries; every returned result must satisfy the declared
    # (rho, sigma) pair against the exhaustive optimum.
    for seed in range(300):
        q = random_query(seed)
        exact = sop_exact(q)
        assert exact.length <= q.budget
        check_result(q, exact, exact.value)
        check_result(q, sop_recursive_greedy(q), exact.value)


def gain_recursive_greedy(q):
    """Reference copy of the recursion that compares gains over g(mask).

    The library compares g(mask u path) instead; subtracting the same base
    from every candidate of one call cannot change an exact comparison.
    This copy also keeps the full b1 scan: it never skips a split whose left
    path repeats the last one, so it checks the library's pruning too.
    """
    _mask = orienteering._mask
    n = q.metric.n
    d = q.metric.dist
    g = q.valuation
    declared = (math.ceil(math.log2(n)) + 1 if n > 1 else 1, 1)
    kmax = orienteering._path_vertex_bound(q)
    depth = math.ceil(math.log2(kmax)) if kmax >= 2 else 0
    memo = {}

    def gain_of(mask, add_mask, base):
        return g.value(mask | add_mask) - base

    def closed(s, t, budget, depth, mask):
        if d[s][t] > budget:
            return None
        key = ("c", s, t, budget, depth, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        base = g.value(mask)
        direct = [s, t] if s != t else [s]
        best = (gain_of(mask, _mask(direct), base), direct)
        if depth > 0:
            for v in range(n):
                lo, back = d[s][v], d[v][t]
                if lo + back > budget:
                    continue
                for b1 in range(lo, budget - back + 1):
                    left = closed(s, v, b1, depth - 1, mask)
                    if left is None:
                        continue
                    lmask = _mask(left[1])
                    right = closed(v, t, budget - b1, depth - 1, mask | lmask)
                    if right is None:
                        continue
                    total = gain_of(mask, lmask | _mask(right[1]), base)
                    if total > best[0]:
                        best = (total, left[1] + right[1][1:])
        memo[key] = best
        return best

    def open_path(s, budget, depth, mask):
        key = ("o", s, budget, depth, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        base = g.value(mask)
        best = (gain_of(mask, 1 << s, base), [s])
        for v in range(n):
            if v != s and d[s][v] <= budget:
                gain = gain_of(mask, (1 << s) | (1 << v), base)
                if gain > best[0]:
                    best = (gain, [s, v])
        if depth > 0:
            for v in range(n):
                lo = d[s][v]
                if lo > budget:
                    continue
                for b1 in range(lo, budget + 1):
                    left = closed(s, v, b1, depth - 1, mask)
                    if left is None:
                        continue
                    lmask = _mask(left[1])
                    right = open_path(v, budget - b1, depth - 1, mask | lmask)
                    total = gain_of(mask, lmask | _mask(right[1]), base)
                    if total > best[0]:
                        best = (total, left[1] + right[1][1:])
        memo[key] = best
        return best

    _, path = open_path(q.root, q.budget, depth, 0)
    return orienteering._finish(q, path, declared)


def test_value_compare_matches_gain_compare_on_seeded_queries():
    for seed in range(300):
        q = random_query(seed)
        assert sop_recursive_greedy(q) == gain_recursive_greedy(q), seed


def test_value_compare_matches_gain_compare_on_residual_queries():
    # the CLI's sop query (residual of the empty set, budget twice the
    # diameter) and a residual with the root and one vertex scheduled
    for n in (7, 8, 9):
        for seed in range(4):
            inst = random_instance("euclidean-grid-metric", n, seed)
            metric, vs = inst.metric, inst.valuations
            for s_mask, budget in ((0, 2 * metric.diameter),
                                   (1 << metric.root | 1 << n - 1,
                                    metric.diameter)):
                def query():
                    return SopQuery(metric, metric.root,
                                    ResidualFunction(vs, s_mask), budget)
                assert (sop_recursive_greedy(query())
                        == gain_recursive_greedy(query())), (n, seed, s_mask)


def test_pruned_splits_match_full_scan_on_mlsc_queries():
    # every residual query an MLSC run asks, phase by phase
    for n in (8, 9, 10):
        for seed in range(4):
            inst = random_instance("euclidean-grid-metric", n, seed)
            runs = [alg_mlsc(inst.metric, inst.valuations, solver)
                    for solver in (sop_recursive_greedy, gain_recursive_greedy)]
            assert runs[0] == runs[1], (n, seed)


def test_every_budget_matches_gain_compare_on_grids():
    # one query per budget 0..2 * diameter: entries answer whole budget
    # intervals and the b1 loop jumps between them, so every budget must
    # still give the full scan's result
    for n in (6, 7, 8):
        for seed in range(4):
            inst = random_instance("euclidean-grid-metric", n, seed)
            metric = inst.metric
            g = ResidualFunction(inst.valuations, 0)
            for budget in range(2 * metric.diameter + 1):
                q = SopQuery(metric, metric.root, g, budget)
                assert (sop_recursive_greedy(q)
                        == gain_recursive_greedy(q)), (n, seed, budget)


def test_every_budget_matches_gain_compare_on_supermodular_tables():
    # the interval argument needs only that best is monotone in the budget,
    # which holds for any valuation; a squared weight sum rewards long paths,
    # so a right half that improves at a larger budget can take over
    for seed in range(30):
        rng = random.Random(f"square:{seed}")
        n = rng.randint(4, 9)
        metric = metric_closure([[0 if i == j else rng.randint(1, 6)
                                  for j in range(n)] for i in range(n)])
        w = [rng.randint(0, 5) for _ in range(n)]
        g = ExplicitFunction(n, [sum(w[e] for e in range(n) if m >> e & 1) ** 2
                                 for m in range(1 << n)])
        for budget in range(2 * metric.diameter + 1):
            q = SopQuery(metric, 0, g, budget)
            assert (sop_recursive_greedy(q)
                    == gain_recursive_greedy(q)), (seed, budget)


def first_grids(n, count):
    """The grid instances of size n with seeds 0..count-1."""
    return [random_instance("euclidean-grid-metric", n, seed)
            for seed in range(count)]


def test_closed_bottom_level_matches_reference_on_larger_grids():
    # past the full scan's reach: the CLI's sop query and a residual with
    # the root and one vertex collected, against the copy that memoized
    # every depth-0 half
    for n in range(10, 15):
        for inst in first_grids(n, 4):
            metric, vs = inst.metric, inst.valuations
            for s_mask, budget in ((0, 2 * metric.diameter),
                                   (1 << metric.root | 1 << n - 1,
                                    metric.diameter)):
                def query():
                    return SopQuery(metric, metric.root,
                                    ResidualFunction(vs, s_mask), budget)
                assert (sop_recursive_greedy(query())
                        == reference_recursive_greedy(query())), (n, s_mask)


def test_closed_bottom_level_matches_reference_on_mlsc_queries():
    def both(q):
        res = sop_recursive_greedy(q)
        assert res == reference_recursive_greedy(q), (q.budget, q.valuation)
        return res

    for n in range(12, 17):
        for inst in first_grids(n, 4):
            alg_mlsc(inst.metric, inst.valuations, both)


def test_recursive_greedy_peak_memory_on_the_cli_query():
    """The CLI's sop query on grid:n=12:seed=0 allocates at most 9 MB at
    its peak under tracemalloc. On Python 3.11 it read 12.2 MB while every
    depth-0 half was a memo entry, and reads 6.7 MB with the bottom level
    answered in closed form. Deterministic, unlike a timing bound."""
    inst = parse_genspec("grid:n=12:seed=0")
    metric = inst.metric
    q = SopQuery(metric, metric.root, ResidualFunction(inst.valuations, 0),
                 2 * metric.diameter)
    tracemalloc.start()
    try:
        sop_recursive_greedy(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 10**6, peak
