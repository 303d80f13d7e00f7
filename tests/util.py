"""Independent oracles for tests; deliberately written with different
machinery than the library routines they check."""

import math
from fractions import Fraction
from itertools import permutations
from operator import itemgetter
from typing import Optional, Sequence

from latcov import orienteering
from latcov.errors import Uncoverable
from latcov.mlsc import (LatencyTour, PhaseLog, PhaseRecord,
                         ResidualValuation, augmentation_count)
from latcov.orienteering import SopQuery
from latcov.stochastic import RealizedSchedule


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


# Test-only copy of the grouped-tree construction, order, walk and
# normalization as they stood before one root-first pass built all three:
# a separate child count, a hop walk per vertex for cycles, a fresh DFS per
# topo_order call, a stack DFS per Euler tour, and pruning by repeated
# degree rescans.

class ReferenceTree:
    def __init__(self, parent, weight, root, groups, reqs):
        self.parent = tuple(parent)
        self.weight = tuple(int(w) for w in weight)
        self.root = root
        self.groups = tuple(tuple(sorted(g)) for g in groups)
        self.reqs = tuple(int(k) for k in reqs)
        self._validate()
        self.children = self._children()
        self.leaves = tuple(v for v in range(self.n)
                            if v != root and not self.children[v])

    @property
    def n(self):
        return len(self.parent)

    @property
    def edges(self):
        return tuple(v for v in range(self.n) if v != self.root)

    def _children(self):
        kids = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return tuple(tuple(sorted(c)) for c in kids)

    def _validate(self):
        n = len(self.parent)
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        if self.parent[self.root] is not None:
            raise ValueError("root must have no parent")
        if self.weight[self.root] != 0:
            raise ValueError("root carries no edge weight")
        if len(self.weight) != n or len(self.groups) != len(self.reqs):
            raise ValueError("field length mismatch")
        if not self.groups:
            raise ValueError("groups must name at least one group, got none")
        for v in range(n):
            if v == self.root:
                continue
            p = self.parent[v]
            if p is None or not 0 <= p < n:
                raise ValueError("non-root vertex needs an in-range parent")
            if self.weight[v] < 0:
                raise ValueError("edge weights must be non-negative integers")
            hops, u = 0, v
            while u != self.root:
                u = self.parent[u]
                hops += 1
                if u is None or hops > n:
                    raise ValueError("parent pointers do not form a rooted tree")
        kids = [0] * n
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p] += 1
        member_seen = set()
        for g, k in zip(self.groups, self.reqs):
            if not g:
                raise ValueError("groups must be nonempty")
            if not 1 <= k <= len(g):
                raise ValueError("requirement must be in 1..|group|")
            for v in g:
                if not 0 <= v < n or v == self.root or kids[v] != 0:
                    raise ValueError("group members must be non-root leaves")
                if v in member_seen:
                    raise ValueError("groups must be disjoint")
                member_seen.add(v)
        for v in range(n):
            if v != self.root and kids[v] == 0 and v not in member_seen:
                raise ValueError("every leaf must belong to some group "
                                 "(run normalize first)")

    def topo_order(self):
        order, stack = [], [self.root]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(self.children[u]))
        return order

    def euler_tour(self, selected=None):
        if selected is None:
            selected = set(self.edges)
        for v in selected:
            p = self.parent[v]
            if p is None:
                raise ValueError("root has no parent edge")
            if p != self.root and p not in selected:
                raise ValueError("selected edges must form a subtree at the root")
        path = [self.root]
        stack = [(c, True) for c in reversed(self.children[self.root])
                 if c in selected]
        while stack:
            v, entering = stack.pop()
            if entering:
                path.append(v)
                stack.append((v, False))
                stack.extend((c, True) for c in reversed(self.children[v])
                             if c in selected)
            else:
                path.append(self.parent[v])
        return path


def reference_normalize(parent, weight, root, groups, reqs):
    parent, weight = list(parent), list(weight)
    groups = [list(g) for g in groups]
    n = len(parent)
    kids = [0] * n
    for v, p in enumerate(parent):
        if p is not None:
            kids[p] += 1
    occurrences = {}
    for g in groups:
        for v in g:
            occurrences[v] = occurrences.get(v, 0) + 1
    claimed = set()
    for g in groups:
        for idx, v in enumerate(g):
            if v == root or kids[v] > 0 or occurrences[v] > 1:
                parent.append(v)
                weight.append(0)
                kids.append(0)
                kids[v] += 1
                g[idx] = len(parent) - 1
                claimed.add(g[idx])
            else:
                claimed.add(v)
    alive = [True] * len(parent)
    changed = True
    while changed:
        changed = False
        deg = [0] * len(parent)
        for v, p in enumerate(parent):
            if alive[v] and p is not None and alive[p]:
                deg[v] += 1
                deg[p] += 1
        for v in range(len(parent)):
            if alive[v] and v != root and deg[v] <= 1 and v not in claimed:
                alive[v] = False
                changed = True
    remap = {}
    for v in range(len(parent)):
        if alive[v]:
            remap[v] = len(remap)
    return ReferenceTree(
        [None if parent[v] is None else remap[parent[v]]
         for v in range(len(parent)) if alive[v]],
        [weight[v] for v in range(len(parent)) if alive[v]], remap[root],
        [[remap[v] for v in g] for g in groups], reqs)


def reference_alg_mlsc(metric, vs, solver, rho, sigma):
    """alg_mlsc as it stood when every augmentation asked the solver and
    rebuilt the residual, and a Fraction sum recorded the phase's gain."""
    if vs.n != metric.n:
        raise ValueError("valuations and metric disagree on the vertex count")
    r = metric.root
    h = augmentation_count(vs.alpha, rho)
    cap = max(1, metric.n * metric.diameter)
    s_mask = 1 << r
    walk = [r]
    length = 0
    phases = []
    budget = 1
    residual = ResidualValuation(vs, s_mask)
    while residual.uncovered:
        results = []
        added = []
        phase_gain = Fraction(0)
        for _ in range(h):
            res = solver(SopQuery(metric, r, residual, budget))
            if res.length > sigma * budget:
                raise ValueError("solver exceeded its declared length bound")
            results.append(res)
            phase_gain += res.value
            if len(res.path) > 1:
                walk.extend(res.path[1:])
                walk.append(r)
                length += res.length + metric.d(res.path[-1], r)
                for v in res.path[1:]:
                    if not s_mask & (1 << v):
                        s_mask |= 1 << v
                        added.append(v)
                residual = ResidualValuation(vs, s_mask)
                if residual.uncovered == 0:
                    break
        phases.append(PhaseRecord(budget, tuple(results), tuple(added), length))
        if residual.uncovered and budget >= cap and phase_gain == 0:
            raise Uncoverable("no residual progress in a full phase at the "
                              "budget cap")
        if budget < cap:
            budget *= 2
    tour = LatencyTour.from_walk(metric, vs, walk)
    return tour, PhaseLog(vs.alpha, rho, sigma, h, tuple(phases))


def reference_recursive_greedy(q):
    """sop_recursive_greedy as it stood when every depth-0 half was a
    memoized call, a fixed endpoint's included, and each split valued its
    candidate with its own num call."""
    n = q.metric.n
    d = q.metric.dist
    num = q.valuation.num
    declared = (orienteering.greedy_rho(n), 1)
    kmax = orienteering._path_vertex_bound(q)
    depth = math.ceil(math.log2(kmax)) if kmax >= 2 else 0
    never = q.budget + 1
    memo = {}

    def best(s, t, budget, depth, mask):
        key = (s, t, depth, mask)
        got = memo.get(key)
        for hit in (got,) if type(got) is tuple else got or ():
            if hit[3] <= budget < hit[4]:
                return hit
        ds = d[s]
        nxt = never
        if t is None:
            top = (num(mask | 1 << s), (s,), 1 << s, 0)
            for v in range(n):
                if v == s:
                    continue
                if ds[v] <= budget:
                    pm = 1 << s | 1 << v
                    val = num(mask | pm)
                    if val > top[0]:
                        top = (val, (s, v), pm, ds[v])
                elif ds[v] < nxt:
                    nxt = ds[v]
        else:
            pm = 1 << s | 1 << t
            top = (num(mask | pm), (s, t) if s != t else (s,), pm, ds[t])
        if depth > 0:
            for v in range(n):
                lo, back = ds[v], d[v][t] if t is not None else 0
                if lo + back > budget:
                    if lo + back < nxt:
                        nxt = lo + back
                    continue
                prev = None
                b1 = lo
                while b1 <= budget - back:
                    left = best(s, v, b1, depth - 1, mask)
                    if left[1] != prev:
                        prev = left[1]
                        right = best(v, t, budget - b1, depth - 1,
                                     mask | left[2])
                        if b1 + right[4] < nxt:
                            nxt = b1 + right[4]
                        pm = left[2] | right[2]
                        total = num(mask | pm)
                        if total > top[0]:
                            top = (total, left[1] + right[1][1:], pm,
                                   left[3] + right[3])
                    b1 = left[4]
                if b1 + back < nxt:
                    nxt = b1 + back
        entry = top + (nxt,)
        memo[key] = entry if got is None else (
            [got, entry] if type(got) is tuple else [*got, entry])
        return entry

    path = best(q.root, None, q.budget, depth, 0)[1]
    memo.clear()
    return orienteering._finish(q, path, declared)


def reference_run(inst, policy, outcome, runs):
    """The run-tree replay as it stood when each new node unwound its whole
    path and recomputed first_cover from the empty set: an inner node is
    (element, children by point, scheduled, realized, path), a path
    (element, point, clock, earlier path) or ()."""

    def grow(scheduled, realized, path):
        steps, rest = [], path
        while rest:
            *step, rest = rest
            steps.append(step)
        steps.reverse()
        cover = inst.valuations.first_cover(map(itemgetter(1, 2), steps))
        e = policy(scheduled, realized) if None in cover else None
        if e is not None:
            return e, {}, scheduled, realized, path
        times = tuple(inst.total_length if c is None else c for c in cover)
        return RealizedSchedule(tuple(map(itemgetter(0), steps)), times,
                                sum(times))

    runs = {} if runs is None else runs
    node = runs.get(None) or runs.setdefault(None, grow(0, 0, ()))
    while type(node) is tuple:
        e, kids, scheduled, realized, path = node
        b = outcome[e]
        child = kids.get(b)
        if child is None:
            if b not in inst.support_points[e]:
                raise ValueError(f"outcome {b} not in element {e}'s support")
            clock = (path[2] if path else 0) + inst.lengths[e]
            child = kids[b] = grow(scheduled | 1 << e, realized | 1 << b,
                                   (e, b, clock, path))
        node = child
    return node
