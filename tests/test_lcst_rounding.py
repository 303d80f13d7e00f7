"""Dependent rounding: sampling marginals, flow rebalancing, level tours,
and the stitched pipeline against the exhaustive tour optimum."""

import math
import random
from fractions import Fraction

import pytest

from latcov.cli import parse_genspec
from latcov.errors import Infeasible
from latcov.instances.metrics import metric_from_matrix
from latcov.instances.trees import GroupedTree
from latcov.instances.valuations import ValuationSet
from latcov.lcst.lp import solve_lp_lcst
from latcov.lcst.rounding import (alg_lcst, flow_adjust, krs_round,
                                  level_marginals, level_tour, repeat_count,
                                  residual_requirements, weight_cap)
from latcov.tour import LatencyTour

from util import (cover_times, max_flow_fractions, random_grouped_tree,
                  reference_distances, reference_walk_weight,
                  single_leaf_tree, tree_tour_optimum, two_level_tree)

BIG = Fraction(10 ** 9)  # stands in for an uncapped arc; Fraction(inf) raises


def full_path(tree, j, edges):
    while j != tree.root:
        if j not in edges:
            return False
        j = tree.parent[j]
    return True


def subtree_leaves(tree, v):
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        if not tree.children[u]:
            out.append(u)
        stack.extend(tree.children[u])
    return out


def test_krs_degenerate_marginals():
    tree = two_level_tree()
    ones = {e: 1 for e in tree.edges}
    zeros = {e: 0 for e in tree.edges}
    for seed in range(10):
        assert krs_round(tree, ones, seed) == frozenset(tree.edges)
        assert krs_round(tree, zeros, seed) == frozenset()


def test_krs_rejects_nonmonotone():
    chain = GroupedTree((None, 0, 1), (0, 2, 3), 0, ((2,),), (1,))
    with pytest.raises(ValueError):
        krs_round(chain, {1: 0.3, 2: 0.6}, 0)


def test_krs_single_edge_marginal():
    tree = single_leaf_tree(5)
    n = 100000
    hits = sum(1 in krs_round(tree, {1: 0.3}, s) for s in range(n))
    band = 3 * math.sqrt(0.3 * 0.7 / n)
    assert abs(hits / n - 0.3) <= band  # observed 0.2986


def test_krs_chain_marginals_nested():
    # leaf marginal must be its own z, not z_leaf * z_parent
    chain = GroupedTree((None, 0, 1), (0, 2, 3), 0, ((2,),), (1,))
    z = {1: Fraction(3, 5), 2: Fraction(3, 10)}
    n = 100000
    top = leaf = 0
    for s in range(n):
        kept = krs_round(chain, z, s)
        assert not (2 in kept and 1 not in kept)  # kept sets are root-closed
        top += 1 in kept
        leaf += 2 in kept
    assert abs(top / n - 0.6) <= 3 * math.sqrt(0.6 * 0.4 / n)
    assert abs(leaf / n - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n)


def test_krs_random_tree_marginals():
    tree = random_grouped_tree(7, 7)
    rng = random.Random("marg")
    z = {}
    for v in tree.topo_order():
        if v == tree.root:
            continue
        p = tree.parent[v]
        cap = 1.0 if p == tree.root else z[p]
        z[v] = cap * rng.uniform(0.2, 1.0)
    n = 20000
    counts = {e: 0 for e in tree.edges}
    for s in range(n):
        for e in krs_round(tree, z, s):
            counts[e] += 1
    for e in tree.edges:
        se = math.sqrt(z[e] * (1 - z[e]) / n)
        assert abs(counts[e] / n - z[e]) <= 4 * se


def test_flow_star_identity():
    # capacities already support the requirement; nothing moves
    star = GroupedTree((None, 0, 0, 0), (0, 4, 4, 4), 0, ((1, 2, 3),), (2,))
    xbar = {1: Fraction(1), 2: Fraction(1), 3: Fraction(0)}
    adjusted = flow_adjust(star, xbar, frozenset(), (Fraction(1),))
    assert adjusted == xbar


def test_flow_bottleneck_path():
    # both leaves sit under one half-bought edge: r * x_e = 1/2 caps the
    # flow, and the first child in order drains all of it
    path = GroupedTree((None, 0, 1, 1), (0, 3, 2, 2), 0, ((2, 3),), (1,))
    xbar = {e: Fraction(1, 2) for e in path.edges}
    adjusted = flow_adjust(path, xbar, frozenset(), (Fraction(1, 2),))
    assert adjusted == {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)}
    with pytest.raises(Infeasible):
        flow_adjust(path, xbar, frozenset(), (Fraction(1),))


def test_flow_infeasible_zero_support():
    tree = single_leaf_tree(3)
    with pytest.raises(Infeasible):
        flow_adjust(tree, {1: Fraction(0)}, frozenset(), (Fraction(1),))


def test_residual_requirements():
    tree = two_level_tree()
    residual, owed = residual_requirements(tree, {1})
    assert residual == ((2, 3), (4, 5)) and owed == (2, 1)
    residual, owed = residual_requirements(tree, {1, 2})  # leaf 2 covered
    assert residual == ((3,), (4, 5)) and owed == (1, 1)
    residual, owed = residual_requirements(tree, {4})
    assert residual[1] == (5,) and owed[1] == 0


def test_flow_matches_maxflow_oracle():
    checked = 0
    for seed in range(40):
        rng = random.Random(f"flow:{seed}")
        tree = random_grouped_tree(seed, rng.randint(4, 8))
        xbar = {}
        contracted = set()
        for v in tree.topo_order():
            if v == tree.root:
                continue
            p = tree.parent[v]
            cap = Fraction(1) if p == tree.root else xbar[p]
            xbar[v] = cap * Fraction(rng.randint(0, 4), 4)
        for v in tree.topo_order():
            if v == tree.root:
                continue
            p = tree.parent[v]
            if xbar[v] > 0 and (p == tree.root or p in contracted) \
                    and rng.random() < 0.5:
                contracted.add(v)
        residual, owed = residual_requirements(tree, contracted)
        ybar = tuple(Fraction(0) for _ in tree.groups)
        adjusted = flow_adjust(tree, xbar, frozenset(contracted), ybar)
        for gi in range(len(tree.groups)):
            r = owed[gi]
            if r <= 0:
                continue
            sinks = set(residual[gi])
            super_sink = tree.n
            arcs = {}
            for v in range(1, tree.n):
                p = tree.parent[v]
                if not tree.children[v]:
                    arcs[(p, v)] = xbar[v] if v in sinks else Fraction(0)
                elif v in contracted:
                    arcs[(p, v)] = BIG
                else:
                    arcs[(p, v)] = r * xbar[v]
            for j in sinks:
                arcs[(j, super_sink)] = BIG
            want = max_flow_fractions(tree.n + 1, arcs, tree.root, super_sink)
            got = sum(adjusted[j] for j in sinks)
            assert got == want, (seed, gi)
            checked += 1
    assert checked >= 40


def test_level_marginals_invariants():
    for tree in (two_level_tree(), random_grouped_tree(101, 7)):
        sol = solve_lp_lcst(tree)
        assert sol.exact
        for lv in range(sol.levels + 1):
            contracted, adjusted, z = level_marginals(tree, sol, lv)
            x = sol.x[lv]
            residual, owed = residual_requirements(tree, contracted)
            for v in contracted:
                p = tree.parent[v]
                assert x[v] >= Fraction(1, 4)
                assert p == tree.root or p in contracted
                assert z[v] == 1
            for e in tree.edges:
                assert 0 <= z[e] <= 1
                p = tree.parent[e]
                if p != tree.root:
                    assert z[e] <= z[p]
                if tree.children[e]:
                    assert adjusted[e] == x[e]  # only leaves get rebalanced
            for gi in range(len(tree.groups)):
                r = owed[gi]
                if r <= 0:
                    continue
                members = set(residual[gi])
                for e in tree.edges:
                    if not tree.children[e] or e in contracted:
                        continue
                    below = sum(adjusted[j] for j in subtree_leaves(tree, e)
                                if j in members)
                    assert below <= r * adjusted[e]


def test_phase_shape():
    tree = two_level_tree()
    sol = solve_lp_lcst(tree)
    assert repeat_count(tree) == 24           # ceil(6 * (3 + log2 2))
    assert repeat_count(single_leaf_tree(6)) == 18
    assert weight_cap(single_leaf_tree(6), 0) == 576
    for lv in (0, 2, sol.levels):
        for seed in (0, 3):
            ph = level_tour(tree, sol, lv, seed)
            assert len(ph.samples) == 24
            assert ph.selected == ph.contracted.union(*ph.samples)
            for v in ph.selected:  # root-closed, so the Euler tour exists
                p = tree.parent[v]
                assert p == tree.root or p in ph.selected
            assert ph.walk[0] == tree.root and ph.walk[-1] == tree.root
            assert ph.weight == reference_walk_weight(tree, ph.walk)
            assert ph.weight == 2 * sum(tree.weight[e] for e in ph.selected)
            assert ph.accepted == (ph.weight <= weight_cap(tree, lv))


def test_union_weight_within_budget():
    # knapsack row keeps E[w(contracted + one sample)] near 4 * 2^l;
    # measured means run 2.0 .. 7.0 against caps 4 .. 256
    tree = two_level_tree()
    sol = solve_lp_lcst(tree)
    n = 10000
    for lv in range(sol.levels + 1):
        contracted, _, z = level_marginals(tree, sol, lv)
        total = 0
        for s in range(n):
            kept = contracted | krs_round(tree, z, s)
            total += sum(tree.weight[e] for e in kept)
        assert total / n <= 4 * (1 << lv) * 1.1


def test_cover_probability_at_lp_level():
    # one phase at the group's LP level covers it within the weight cap
    # far more often than the 0.7 the stitching argument needs; every
    # fixture measured 500/500
    fixtures = [two_level_tree(), random_grouped_tree(101, 7),
                random_grouped_tree(102, 8)]
    for tree in fixtures:
        sol = solve_lp_lcst(tree)
        for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
            lv = sol.level_of[gi]
            good = 0
            for seed in range(500):
                ph = level_tour(tree, sol, lv, seed)
                got = sum(1 for j in g if full_path(tree, j, ph.selected))
                if ph.accepted and got >= k:
                    good += 1
            assert good >= 350


def test_single_leaf_pipeline():
    tree = single_leaf_tree(6)
    sol = solve_lp_lcst(tree)
    for seed in range(10):
        tour, report = alg_lcst(tree, seed, lp=sol)
        assert tour.objective == 6
        assert tour.cover_times == (6,)
        assert len(report.phases) == 1  # level 0 already covers
        assert not report.fallback


def test_pipeline_ratio_vs_optimum():
    # frozen C = 2.0: objective / optimum stays under C * (3 + log2 g_max);
    # measured worst normalized ratio 0.466 over these seeds
    for seed in range(6):
        tree = random_grouped_tree(200 + seed, 6 + seed % 3)
        opt, _ = tree_tour_optimum(tree)
        tour, report = alg_lcst(tree, 0)
        assert not report.fallback
        assert tour.objective >= opt
        g_max = max(len(g) for g in tree.groups)
        assert tour.objective <= 2.0 * (3 + math.log2(g_max)) * opt
        times, obj = cover_times(tree, tour.walk)
        assert obj == tour.objective
        assert tuple(times) == tour.cover_times


def test_fallback_covers_anyway():
    tree = two_level_tree()
    tour, report = alg_lcst(tree, 0, weight_mult=0)
    assert report.fallback
    assert all(t is not None for t in tour.cover_times)
    # with a zero cap only empty walks pass the gate
    for ph in report.phases:
        assert not ph.accepted or len(ph.walk) == 1


def test_tour_on_the_tree_matches_the_reference_metric():
    # the tour measured on the tree itself equals the same walk priced on
    # the all-pairs table, fallback walks included (weight_mult=0)
    trees = [two_level_tree(), single_leaf_tree(6)]
    trees += [random_grouped_tree(200 + s, 6 + s % 3) for s in range(4)]
    trees += [parse_genspec(f"tree:n={n}:seed=1").tree for n in (6, 7)]
    for tree in trees:
        sol = solve_lp_lcst(tree)
        vs = ValuationSet.singlegroup(tree.n, tree.groups, tree.reqs)
        metric = metric_from_matrix(reference_distances(tree), tree.root)
        for seed, weight_mult in ((0, 192), (1, 192), (0, 0)):
            tour, _ = alg_lcst(tree, seed, weight_mult=weight_mult, lp=sol)
            assert tour == LatencyTour.from_walk(metric, vs, tour.walk)
