"""Independent oracles for tests; deliberately written with different
machinery than the library routines they check."""

from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence


def perm_optimum(vs):
    """Literal minimum of the summed cover times over all n! orderings.

    Returns (objective, lexicographically smallest optimal permutation).
    """
    n = vs.n
    best_obj, best_perm = None, None
    for perm in permutations(range(n)):
        mask = 0
        remaining = set(range(vs.m))
        obj = 0
        for t, e in enumerate(perm, start=1):
            mask |= 1 << e
            done = [i for i in remaining if vs.functions[i].value(mask) == 1]
            for i in done:
                remaining.discard(i)
                obj += t
        if remaining:
            return None  # some valuation never covered; construction bug
        if best_obj is None or obj < best_obj or (obj == best_obj and perm < best_perm):
            best_obj, best_perm = obj, perm
    return best_obj, best_perm


def tree_tour_optimum(tree):
    """Exhaustive best summed group-cover time for walks on a grouped tree.

    Only orderings of group members matter: tree distances already shortcut
    through non-members, and appending unvisited members after the last
    needed one never changes any cover time. Returns (objective, walk).
    """
    members = sorted(v for g in tree.groups for v in g)
    best_obj, best_walk = None, None
    for perm in permutations(members):
        walk = (tree.root,) + perm
        times, obj = cover_times(tree, walk)
        if any(t is None for t in times):
            continue
        if best_obj is None or obj < best_obj or (obj == best_obj
                                                  and walk < best_walk):
            best_obj, best_walk = obj, walk
    return best_obj, best_walk


def cover_times(tree, walk: Sequence[int]) -> tuple[list[Optional[int]], int]:
    """Per-group cover times along a walk on a grouped tree plus the summed
    objective.

    The cover time of a group is the walk-prefix distance at which its
    k-th distinct member is first visited; None if the walk never covers
    it (such groups contribute nothing to the sum and the caller decides
    how to account for them).
    """
    dist = tree.distances()
    need = {gi: tree.reqs[gi] for gi in range(len(tree.groups))}
    member_of: dict[int, int] = {}
    for gi, g in enumerate(tree.groups):
        for v in g:
            member_of[v] = gi
    times: list[Optional[int]] = [None] * len(tree.groups)
    seen: set[int] = set()
    t = 0
    prev = walk[0] if walk else tree.root
    for i, v in enumerate(walk):
        if i > 0:
            t += dist[prev][v]
        prev = v
        if v in member_of and v not in seen:
            seen.add(v)
            gi = member_of[v]
            need[gi] -= 1
            if need[gi] == 0 and times[gi] is None:
                times[gi] = t
    objective = sum(x for x in times if x is not None)
    return times, objective


def pairwise_submodular(fn, n):
    """Definition-level check over all pairs A, B: f(A)+f(B) >= f(AuB)+f(AnB),
    plus monotonicity over all nested pairs. Exponential; keep n tiny."""
    vals = [fn.value(m) for m in range(1 << n)]
    for a in range(1 << n):
        for b in range(1 << n):
            if vals[a] + vals[b] < vals[a | b] + vals[a & b]:
                return False
            if (a & b) == a and vals[a] > vals[b]:
                return False
    return True


def max_flow_fractions(n_nodes, arcs, source, sink):
    """Edmonds-Karp on Fractions. arcs: dict (u, v) -> capacity."""
    cap = {}
    adj = [[] for _ in range(n_nodes)]
    for (u, v), c in arcs.items():
        cap[(u, v)] = cap.get((u, v), Fraction(0)) + Fraction(c)
        cap.setdefault((v, u), Fraction(0))
        if v not in adj[u]:
            adj[u].append(v)
        if u not in adj[v]:
            adj[v].append(u)
    flow = Fraction(0)
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            u = queue.pop(0)
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        bottleneck = None
        v = sink
        while parent[v] is not None:
            u = parent[v]
            c = cap[(u, v)]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u
        flow += bottleneck


# Shared grouped-tree fixtures. Rounding and acceptance tests freeze
# measured values against these, so the rng draw order must not change.

def single_leaf_tree(d):
    from latcov.instances.trees import GroupedTree
    return GroupedTree((None, 0), (0, d), 0, ((1,),), (1,))


def two_level_tree():
    # 0 -> 1 -> {2, 3}, 0 -> {4, 5}; groups {2,3} need 2 and {4,5} need 1
    from latcov.instances.trees import GroupedTree
    return GroupedTree((None, 0, 1, 1, 0, 0), (0, 2, 1, 1, 3, 2), 0,
                       ((2, 3), (4, 5)), (2, 1))


def random_grouped_tree(seed, n):
    import random
    from latcov.instances.trees import GroupedTree
    rng = random.Random(f"lp:{seed}")
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    weight = [0] + [rng.randint(1, 3) for _ in range(1, n)]
    kids = set(p for p in parent if p is not None)
    leaves = [v for v in range(1, n) if v not in kids]
    rng.shuffle(leaves)
    groups, reqs = [], []
    while leaves:
        take = min(len(leaves), rng.randint(1, 3))
        groups.append(tuple(sorted(leaves[:take])))
        reqs.append(rng.randint(1, take))
        leaves = leaves[take:]
    return GroupedTree(parent, weight, 0, groups, reqs)
