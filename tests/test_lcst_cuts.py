"""Cut DP and cut-inequality separation, checked against literal enumeration."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from latcov.instances.trees import GroupedTree
from latcov.lcst.mincut import CutQuery, min_cut_with_exceptions
from latcov.lcst.separation import reduced_tree, separate_kc


# ---- oracles ----------------------------------------------------------------

def brute_min_cut(edges, costs, root, bound):
    """Minimum over all 2^|E| edge subsets separating >= bound leaves."""
    parent = {c: p for c, p in edges}
    idx = {c: i for i, (c, _) in enumerate(edges)}
    parents = {p for _, p in edges}
    leaves = [c for c in parent if c not in parents]
    path_bits = {}
    for leaf in leaves:
        bits, u = 0, leaf
        while u != root:
            bits |= 1 << idx[u]
            u = parent[u]
        path_bits[leaf] = bits
    best = math.inf
    for mask in range(1 << len(edges)):
        if sum(1 for leaf in leaves if mask & path_bits[leaf]) >= bound:
            cost = sum(c for i, c in enumerate(costs) if mask >> i & 1)
            best = min(best, cost)
    return best


def binarized_min_cut(edges, costs, root, bound):
    """The cut DP on a binarized copy, kept as the reference for tie order.

    A super-root sits above the root behind an infinite-cost "top" edge,
    and a node of 3+ children keeps its first child and moves the rest
    under an infinite-cost dummy child, repeatedly.  A one-child node cuts
    its edge when that costs at most the child's entry; a two-child node
    cuts unless a split is strictly cheaper, taking the first cheapest
    split.  Only for trees rooted at root.
    """
    children = {root: []}
    cost_of = {}
    for (c, p), w in zip(edges, costs):
        children.setdefault(p, []).append(c)
        children.setdefault(c, [])
        cost_of[c] = w
    leaves = [v for v, ch in children.items() if not ch and v != root]
    if bound > len(leaves):
        return math.inf, None
    if bound == 0:
        return 0, frozenset()

    cost, orig, kids = [], [], []

    def add(parent_loc, c, original):
        cost.append(c)
        orig.append(original)
        kids.append([])
        if parent_loc is not None:
            kids[parent_loc].append(len(kids) - 1)
        return len(kids) - 1

    top = add(add(None, 0, None), math.inf, None)
    stack = [(root, top)]
    while stack:
        v, loc = stack.pop()
        for c in children[v]:
            stack.append((c, add(loc, cost_of[c], c)))
    work = list(range(len(kids)))
    while work:
        v = work.pop()
        if len(kids[v]) > 2:
            moved = kids[v][1:]
            kids[v] = kids[v][:1]
            d = add(v, math.inf, None)
            kids[d].extend(moved)
            work.append(d)

    order, stack = [], [top]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    table, choice, nleaf = {}, {}, {}
    for v in reversed(order):
        if not kids[v]:
            table[v], choice[v], nleaf[v] = [0, cost[v]], [None, ("cut",)], 1
        elif len(kids[v]) == 1:
            c1 = kids[v][0]
            table[v], choice[v] = [0], [None]
            for k in range(1, nleaf[c1] + 1):
                cut = cost[v] <= table[c1][k]
                table[v].append(cost[v] if cut else table[c1][k])
                choice[v].append(("cut",) if cut else ("one",))
            nleaf[v] = nleaf[c1]
        else:
            c1, c2 = kids[v]
            n1, n2 = nleaf[c1], nleaf[c2]
            table[v], choice[v], nleaf[v] = [0], [None], n1 + n2
            for k in range(1, n1 + n2 + 1):
                best, pick = cost[v], ("cut",)
                for k1 in range(max(0, k - n2), min(k, n1) + 1):
                    cand = table[c1][k1] + table[c2][k - k1]
                    if cand < best:
                        best, pick = cand, ("split", k1)
                table[v].append(best)
                choice[v].append(pick)

    value = table[top][bound]
    if value == math.inf:
        return math.inf, None
    witness = set()
    stack = [(top, bound)]
    while stack:
        v, k = stack.pop()
        if k == 0:
            continue
        pick = choice[v][k]
        if pick == ("cut",):
            witness.add(orig[v])
        elif pick == ("one",):
            stack.append((kids[v][0], k))
        else:
            stack.append((kids[v][0], pick[1]))
            stack.append((kids[v][1], k - pick[1]))
    return value, frozenset(witness)


def brute_kc_deficit(tree, group, k, x, y_target):
    """Literal worst deficit over every (A, B) pair: A a subset of the group
    of size eta, B any edge subset separating the root from group minus A.
    Returns (deficit, eta) with the smallest eta among maximizers."""
    members = set(group)
    edge_list = list(tree.edges)
    idx = {e: i for i, e in enumerate(edge_list)}
    path_bits = {}
    for j in members:
        bits, u = 0, j
        while u != tree.root:
            bits |= 1 << idx[u]
            u = tree.parent[u]
        path_bits[j] = bits
    best = None
    for eta in range(k):
        mult = k - eta
        min_lhs = None
        for kept in combinations(sorted(members), eta):
            need = members - set(kept)
            for mask in range(1 << len(edge_list)):
                if any(not mask & path_bits[j] for j in need):
                    continue
                lhs = sum(
                    x[e] if e in members else mult * x[e]
                    for e in edge_list if mask >> idx[e] & 1)
                if min_lhs is None or lhs < min_lhs:
                    min_lhs = lhs
        deficit = mult * y_target - min_lhs
        if best is None or deficit > best[0]:
            best = (deficit, eta)
    return best


# ---- fixtures ----------------------------------------------------------------

def random_cut_tree(rng, n):
    """Random parent-pointer tree on vertices 0..n-1 rooted at 0."""
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    return tuple((v, parent[v]) for v in range(1, n))


def random_grouped_tree(seed, n):
    rng = random.Random(f"cuts:{seed}")
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    weight = [0] + [rng.randint(1, 6) for _ in range(1, n)]
    kids = set(p for p in parent if p is not None)
    leaves = [v for v in range(1, n) if v not in kids]
    rng.shuffle(leaves)
    groups, reqs = [], []
    while leaves:
        take = min(len(leaves), rng.randint(1, 3))
        g = leaves[:take]
        leaves = leaves[take:]
        groups.append(tuple(sorted(g)))
        reqs.append(rng.randint(1, take))
    return GroupedTree(parent, weight, 0, groups, reqs), rng


def monotone_x(tree, rng, denom=4):
    """Random edge fractions with x_e <= x_{parent edge}."""
    x = {}
    for v in tree.topo_order():
        if v == tree.root:
            continue
        roof = Fraction(1) if tree.parent[v] == tree.root else x[tree.parent[v]]
        x[v] = roof * Fraction(rng.randint(0, denom), denom)
    return x


def check_cut(edges, costs, root, bound, value, witness):
    if witness is None:
        assert value == math.inf
        return
    cost_of = {c: w for (c, _), w in zip(edges, costs)}
    assert sum(cost_of[e] for e in witness) == value
    parent = {c: p for c, p in edges}
    parents = {p for _, p in edges}
    separated = 0
    for leaf in (c for c in parent if c not in parents):
        u = leaf
        while u != root:
            if u in witness:
                separated += 1
                break
            u = parent[u]
    assert separated >= bound


# ---- min cut ------------------------------------------------------------------

def test_star_cheapest_leaf():
    edges = ((1, 0), (2, 0), (3, 0))
    value, witness = min_cut_with_exceptions(CutQuery(edges, (2, 5, 7), 0, 1))
    assert value == 2
    assert witness == frozenset({1})


def test_path_internal_cut():
    # r -- a -- {two leaves}; cutting the shared edge beats both leaf edges
    edges = ((1, 0), (2, 1), (3, 1))
    costs = (5, 4, 4)
    value, witness = min_cut_with_exceptions(CutQuery(edges, costs, 0, 2))
    assert value == 5
    assert witness == frozenset({1})
    assert brute_min_cut(edges, costs, 0, 2) == 5
    # a single leaf is cheaper to cut on its own
    value1, witness1 = min_cut_with_exceptions(CutQuery(edges, costs, 0, 1))
    assert value1 == 4 == brute_min_cut(edges, costs, 0, 1)
    check_cut(edges, costs, 0, 1, value1, witness1)


def test_zero_bound_empty_cut():
    for edges, costs in [
        (((1, 0), (2, 0)), (3, 9)),
        (((1, 0), (2, 1), (3, 2)), (1, 1, 1)),
        ((), ()),
    ]:
        assert min_cut_with_exceptions(CutQuery(edges, costs, 0, 0)) == (0, frozenset())


def test_bound_above_leaf_count_infeasible():
    edges = ((1, 0), (2, 0), (3, 0))
    value, witness = min_cut_with_exceptions(CutQuery(edges, (2, 5, 7), 0, 4))
    assert value == math.inf and witness is None


def test_cut_query_validation():
    with pytest.raises(ValueError):
        CutQuery(((1, 0),), (2,), 0, -1)
    with pytest.raises(ValueError):
        CutQuery(((1, 0),), (2, 3), 0, 1)
    with pytest.raises(ValueError):
        CutQuery(((1, 0), (1, 0)), (2, 3), 0, 1)
    with pytest.raises(ValueError):
        CutQuery(((0, 1), (1, 0)), (2, 3), 0, 1)
    with pytest.raises(ValueError):
        # vertex 5 hangs off nothing reachable
        min_cut_with_exceptions(CutQuery(((1, 0), (2, 5)), (1, 1), 0, 1))


def test_wide_star_binarization():
    # six children force repeated dummy-edge splits
    edges = tuple((v, 0) for v in range(1, 7))
    costs = (3, 1, 4, 1, 5, 9)
    for bound in range(7):
        value, witness = min_cut_with_exceptions(CutQuery(edges, costs, 0, bound))
        assert value == brute_min_cut(edges, costs, 0, bound)
        check_cut(edges, costs, 0, bound, value, witness)


def test_random_trees_match_enumeration():
    for seed in range(40):
        rng = random.Random(f"mincut:{seed}")
        n = rng.randint(4, 9)
        edges = random_cut_tree(rng, n)
        if seed % 3 == 0:
            costs = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 4))
                          for _ in edges)
        else:
            costs = tuple(rng.randint(0, 9) for _ in edges)
        leaves = len({c for c, _ in edges} - {p for _, p in edges})
        for bound in range(leaves + 2):
            q = CutQuery(edges, costs, 0, bound)
            value, witness = min_cut_with_exceptions(q)
            assert value == brute_min_cut(edges, costs, 0, bound)
            check_cut(edges, costs, 0, bound, value, witness)
            assert min_cut_with_exceptions(q) == (value, witness)


def reference_queries(seed):
    """Trees for pinning the tie order: random, star or chain shapes on
    shuffled labels with shuffled edges, and int 0..3, Fraction or float
    costs, so ties are common."""
    rng = random.Random(f"fold:{seed}")
    n = rng.randint(2, 13)
    shape = seed % 4
    if shape == 0:
        parent = [None] + [0] * (n - 1)
    elif shape == 1:
        parent = [None] + list(range(n - 1))
    else:
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
    label = rng.sample(range(50), n)
    edges = [(label[v], label[parent[v]]) for v in range(1, n)]
    rng.shuffle(edges)
    kind = seed // 4 % 3
    if kind == 0:
        costs = [rng.randint(0, 3) for _ in edges]
    elif kind == 1:
        costs = [Fraction(rng.randint(0, 6), 2) for _ in edges]
    else:
        costs = [rng.choice((0.0, 0.5, 1.0, 1.5)) for _ in edges]
    return tuple(edges), tuple(costs), label[0]


def test_fold_matches_binarized_reference():
    for seed in range(1300):
        edges, costs, root = reference_queries(seed)
        leaves = len({c for c, _ in edges} - {p for _, p in edges})
        for bound in range(leaves + 2):
            got = min_cut_with_exceptions(CutQuery(edges, costs, root, bound))
            want = binarized_min_cut(edges, costs, root, bound)
            assert got == want, (edges, costs, root, bound)
            assert type(got[0]) is type(want[0])


def test_detached_cycle_is_refused():
    # 2 and 3 are each other's parent and 4 hangs under them: the root
    # reaches vertex 1 only, so no bound is answered
    edges = ((1, 0), (2, 3), (3, 2), (4, 3))
    for bound in range(4):
        with pytest.raises(ValueError):
            min_cut_with_exceptions(CutQuery(edges, (1, 1, 1, 1), 0, bound))


# ---- separation ---------------------------------------------------------------

def test_reduced_tree_closure():
    # 0 -> 1 -> {2, 3}, 0 -> 4; members 2 and 4
    tree = GroupedTree((None, 0, 1, 1, 0), (0, 2, 1, 1, 5), 0,
                       ((2, 3), (4,)), (1, 1))
    assert reduced_tree(tree, (2, 4)) == (1, 2, 4)
    assert reduced_tree(tree, (3,)) == (1, 3)


def test_zero_x_is_violated():
    tree = GroupedTree((None, 0, 0, 0), (0, 1, 1, 1), 0, ((1, 2, 3),), (1,))
    x = {e: Fraction(0) for e in tree.edges}
    v = separate_kc(tree, (1, 2, 3), 1, x, Fraction(1))
    assert v is not None
    assert v.eta == 0 and v.multiplier == 1
    assert v.cut_value == 0 and v.deficit == 1
    assert v.bound == 1


def test_integral_feasible_has_no_violation():
    for seed in range(25):
        tree, rng = random_grouped_tree(seed, rng_n(seed))
        chosen = []
        for g, k in zip(tree.groups, tree.reqs):
            chosen.extend(rng.sample(g, rng.randint(k, len(g))))
        bought = set(reduced_tree(tree, chosen))
        x = {e: Fraction(1 if e in bought else 0) for e in tree.edges}
        for g, k in zip(tree.groups, tree.reqs):
            assert separate_kc(tree, g, k, x, Fraction(1)) is None


def rng_n(seed):
    return 5 + seed % 4


def test_separation_matches_exhaustive():
    for seed in range(20):
        tree, rng = random_grouped_tree(seed, rng_n(seed))
        x = monotone_x(tree, rng)
        y = Fraction(rng.randint(1, 4), 4)
        for g, k in zip(tree.groups, tree.reqs):
            got = separate_kc(tree, g, k, x, y)
            deficit, eta = brute_kc_deficit(tree, g, k, x, y)
            if deficit <= 0:
                assert got is None
                continue
            assert got is not None
            assert (got.deficit, got.eta) == (deficit, eta)
            assert got.multiplier == k - got.eta
            members = set(g)
            assert got.leaf_cut <= members
            assert not (got.inner_cut & members)
            recomputed = (sum(x[e] for e in got.leaf_cut)
                          + got.multiplier * sum(x[e] for e in got.inner_cut))
            assert recomputed == got.cut_value
            assert got.bound - got.cut_value == got.deficit


def test_tolerance_suppresses_small_violations():
    tree = GroupedTree((None, 0, 0), (0, 3, 3), 0, ((1, 2),), (1,))
    x = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    # cheapest cut for eta=0 costs 1, bound is y; deficit = y - 1
    v = separate_kc(tree, (1, 2), 1, x, Fraction(9, 8))
    assert v is not None and v.deficit == Fraction(1, 8)
    assert separate_kc(tree, (1, 2), 1, x, Fraction(9, 8),
                       tol=Fraction(1, 8)) is None


def test_requirement_validation():
    tree = GroupedTree((None, 0, 0), (0, 1, 1), 0, ((1, 2),), (1,))
    x = {1: Fraction(1), 2: Fraction(1)}
    with pytest.raises(ValueError):
        separate_kc(tree, (1, 2), 0, x, Fraction(1))
    with pytest.raises(ValueError):
        separate_kc(tree, (1, 2), 3, x, Fraction(1))
