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
from typing import Optional

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


def sop_recursive_greedy(q: SopQuery, depth_cap: Optional[int] = None
                         ) -> SopResult:
    """Midpoint recursion: guess the path's middle vertex and budget split,
    solve the halves recursively, chain the greedy residual.

    Depth ceil(log2 k) suffices when the optimal path visits k vertices; k is
    bounded by the budget over the smallest positive distance, which keeps
    desk-scale runs shallow. The declared guarantee stays
    (ceil(log2 |V|) + 1, 1). The recursion caches on (endpoints, budget,
    depth, collected mask), which is loss-free. Candidates are compared by
    g(mask u path) rather than by the gain over g(mask): within one call the
    subtracted base is the same for all of them, so the exact comparison,
    and with it the argmax and its tie order, does not change.
    """
    n = q.metric.n
    if n > size_cap(RG_CAP):
        raise CapExceeded(f"sop_recursive_greedy capped at |V|={RG_CAP}")
    d = q.metric.dist
    g = q.valuation
    declared = (math.ceil(math.log2(n)) + 1 if n > 1 else 1, 1)
    kmax = _path_vertex_bound(q)
    depth = math.ceil(math.log2(kmax)) if kmax >= 2 else 0
    if depth_cap is not None:
        depth = min(depth, depth_cap)
    memo: dict = {}

    def closed(s: int, t: int, budget: int, depth: int, mask: int):
        """Best path s..t of length <= budget given collected mask.
        Returns (g(mask u path), path) or None if d(s,t) > budget."""
        if d[s][t] > budget:
            return None
        key = ("c", s, t, budget, depth, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        direct = [s, t] if s != t else [s]
        best = (g.value(mask | _mask(direct)), direct)
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
                    total = g.value(mask | lmask | _mask(right[1]))
                    if total > best[0]:
                        best = (total, left[1] + right[1][1:])
        memo[key] = best
        return best

    def open_path(s: int, budget: int, depth: int, mask: int):
        """Best path starting at s, free endpoint."""
        key = ("o", s, budget, depth, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = (g.value(mask | 1 << s), [s])
        for v in range(n):
            if v != s and d[s][v] <= budget:
                val = g.value(mask | 1 << s | 1 << v)
                if val > best[0]:
                    best = (val, [s, v])
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
                    total = g.value(mask | lmask | _mask(right[1]))
                    if total > best[0]:
                        best = (total, left[1] + right[1][1:])
        memo[key] = best
        return best

    _, path = open_path(q.root, q.budget, depth, 0)
    # closed and open_path reach each other through their closure cells, a
    # cycle that keeps the memo alive until the cycle collector runs
    memo.clear()
    return _finish(q, path, declared)

