"""Budgeted path search: maximize a monotone submodular value over rooted
paths of bounded length (pluggable bicriteria solvers).

Two solvers share the SopQuery/SopResult interface. A solver declares a
guarantee pair (rho, sigma): it returns a path of length <= sigma * budget
whose value is at least the best value achievable within budget, over rho.

* ``sop_exact``      -- exhaustive DFS over simple paths, (1, 1); tiny inputs.
* ``sop_recursive_greedy`` -- midpoint/budget-split recursion in the style of
  quasi-polynomial orienteering searches, (ceil(log2 |V|) + 1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, size_cap
from .instances.metrics import Metric

EXACT_CAP = 9
RG_CAP = 64


@dataclass(frozen=True)
class SopQuery:
    metric: Metric
    root: int
    valuation: object          # .value(vertex mask) -> rational, monotone submodular
    budget: int

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not 0 <= self.root < self.metric.n:
            raise ValueError("root out of range")


@dataclass(frozen=True)
class SopResult:
    path: tuple[int, ...]
    length: int
    value: Fraction
    guarantee: tuple[object, int]   # (rho, sigma)


def _mask(path) -> int:
    m = 0
    for v in path:
        m |= 1 << v
    return m


def _finish(q: SopQuery, path: list[int], guarantee) -> SopResult:
    """Shortcut duplicate vertices, recompute length and value from scratch."""
    seen: set[int] = set()
    simple: list[int] = []
    for v in path:
        if v not in seen:
            seen.add(v)
            simple.append(v)
    length = sum(q.metric.d(a, b) for a, b in zip(simple, simple[1:]))
    value = q.valuation.value(_mask(simple))
    return SopResult(tuple(simple), length, value, guarantee)


def sop_exact(q: SopQuery) -> SopResult:
    """Exhaustive search over all simple paths from the root within budget.

    Values are only evaluated at extension-maximal paths; monotonicity makes
    every prefix dominated by its extensions, so no maximizer is missed.
    Ties: larger value, then shorter length, then lexicographic path.
    """
    n = q.metric.n
    if n > size_cap(EXACT_CAP):
        raise CapExceeded(f"sop_exact capped at |V|={EXACT_CAP}")
    d = q.metric.dist
    g = q.valuation
    best_path = [q.root]
    best_len = 0
    best_val = g.value(1 << q.root)

    def consider(path: list[int], length: int):
        nonlocal best_path, best_len, best_val
        val = g.value(_mask(path))
        if (val > best_val
                or (val == best_val and length < best_len)
                or (val == best_val and length == best_len and path < best_path)):
            best_path, best_len, best_val = list(path), length, val

    path = [q.root]

    def extend(length: int):
        last = path[-1]
        maximal = True
        for v in range(n):
            if v in path:
                continue
            step = d[last][v]
            if length + step <= q.budget:
                maximal = False
                path.append(v)
                extend(length + step)
                path.pop()
        if maximal:
            consider(path, length)

    extend(0)
    return _finish(q, best_path, (1, 1))


def _path_vertex_bound(q: SopQuery) -> int:
    """Upper bound on vertices of any budget-feasible path from the root."""
    n = q.metric.n
    positive = [q.metric.d(u, v)
                for u in range(n) for v in range(u + 1, n)
                if q.metric.d(u, v) > 0]
    if len(positive) < n * (n - 1) // 2:
        return n  # zero-distance pairs: no bound from the budget
    if not positive:
        return n
    return min(n, q.budget // min(positive) + 1)


def sop_recursive_greedy(q: SopQuery) -> SopResult:
    """Midpoint recursion: guess the path's middle vertex and budget split,
    solve the halves recursively, chain the greedy residual.

    One search serves both halves: ``best(s, t, ...)`` ends at t, and
    ``best(s, None, ...)`` ends anywhere, as the top-level query and the
    right half of each of its splits do. Direct candidates are [s, t] (or
    [s]) for a fixed endpoint, and [s], then each [s, v] within budget in
    ascending v, for a free one.

    Depth ceil(log2 k) suffices when the optimal path visits k vertices; k is
    bounded by the budget over the smallest positive distance, which keeps
    desk-scale runs shallow. The declared guarantee stays
    (ceil(log2 |V|) + 1, 1). The recursion caches on (endpoints, budget,
    depth, collected mask), which is loss-free. Candidates are compared by
    g(mask u path) rather than by the gain over g(mask): within one call the
    subtracted base is the same for all of them, so the exact comparison,
    and with it the argmax and its tie order, does not change.

    For a fixed midpoint v the split b1 walks upward, skipping a split whose
    left path equals the last one tried. Both halves are nondecreasing in
    their budget (by induction on depth, a larger budget has a superset of
    candidates, none worth less), so the smaller right budget cannot beat a
    total already compared; only a strictly larger total replaces the best,
    so the argmax and its tie order do not change.
    """
    n = q.metric.n
    if n > size_cap(RG_CAP):
        raise CapExceeded(f"sop_recursive_greedy capped at |V|={RG_CAP}")
    d = q.metric.dist
    g = q.valuation
    declared = (math.ceil(math.log2(n)) + 1 if n > 1 else 1, 1)
    kmax = _path_vertex_bound(q)
    depth = math.ceil(math.log2(kmax)) if kmax >= 2 else 0
    memo: dict = {}

    def best(s: int, t: int | None, budget: int, depth: int, mask: int):
        """Best path from s of length <= budget given collected mask, ending
        at t, or anywhere if t is None; callers keep d(s, t) <= budget.
        Returns (g(mask u path), path, path mask)."""
        key = (s, t, budget, depth, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if t is None:
            top = (g.value(mask | 1 << s), [s], 1 << s)
            for v in range(n):
                if v != s and d[s][v] <= budget:
                    pm = 1 << s | 1 << v
                    val = g.value(mask | pm)
                    if val > top[0]:
                        top = (val, [s, v], pm)
        else:
            pm = 1 << s | 1 << t
            top = (g.value(mask | pm), [s, t] if s != t else [s], pm)
        if depth > 0:
            for v in range(n):
                lo, back = d[s][v], d[v][t] if t is not None else 0
                if lo + back > budget:
                    continue
                prev = None
                # b1 >= d(s, v) and budget - b1 >= d(v, t): both halves exist
                for b1 in range(lo, budget - back + 1):
                    left = best(s, v, b1, depth - 1, mask)
                    if left[1] == prev:
                        continue
                    prev = left[1]
                    right = best(v, t, budget - b1, depth - 1, mask | left[2])
                    pm = left[2] | right[2]
                    total = g.value(mask | pm)
                    if total > top[0]:
                        top = (total, left[1] + right[1][1:], pm)
        memo[key] = top
        return top

    path = best(q.root, None, q.budget, depth, 0)[1]
    # best reaches itself through its closure cell, a cycle that keeps the
    # memo alive until the cycle collector runs
    memo.clear()
    return _finish(q, path, declared)
