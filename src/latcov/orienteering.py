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

from dataclasses import dataclass
from fractions import Fraction

from .errors import check_cap
from .instances.metrics import Metric

EXACT_CAP = 9
RG_CAP = 64


@dataclass(frozen=True)
class SopQuery:
    metric: Metric
    root: int
    # monotone submodular on vertex masks: .num(mask) -> int over the int
    # .den, and .value(mask) -> Fraction(num(mask), den)
    valuation: object
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
    guarantee: tuple[int, int]   # (rho, sigma)


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
    Ties: larger value, then shorter length, then lexicographic path. Values
    are compared as the valuation's ints over its one denominator.
    """
    n = q.metric.n
    check_cap("sop_exact", n, EXACT_CAP, "|V|")
    d = q.metric.dist
    num = q.valuation.num
    best_path = [q.root]
    best_len = 0
    best_val = num(1 << q.root)

    def consider(path: list[int], length: int):
        nonlocal best_path, best_len, best_val
        val = num(_mask(path))
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
    sep = q.metric.min_separation
    if sep == 0:
        return q.metric.n  # zero-distance pairs: no bound from the budget
    return min(q.metric.n, q.budget // sep + 1)


def greedy_rho(n: int) -> int:
    """Recursive greedy's rho, ceil(log2 n) + 1 for n >= 1, in ints."""
    return (n - 1).bit_length() + 1


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
    desk-scale runs shallow. The depth is computed in ints, as
    (k - 1).bit_length(). The declared guarantee stays
    (ceil(log2 |V|) + 1, 1). Candidates are compared by g(mask u path), as
    the valuation's ints, rather than by the gain over g(mask): within one
    call the subtracted base is the same for all of them, so the exact
    comparison, and with it the argmax and its tie order, does not change.

    For a fixed midpoint v the split b1 walks upward, skipping a split whose
    left path equals the last one tried. Both halves are nondecreasing in
    their budget (by induction on depth, a larger budget has a superset of
    candidates, none worth less), so the smaller right budget cannot beat a
    total already compared; only a strictly larger total replaces the best,
    so the argmax and its tie order do not change.

    The memo is keyed on (s, t, depth, mask), and each entry answers a whole
    interval of budgets. Claim: if best at budget B returns a path of length
    l, it returns the same path at every B' in [l, B]. By induction on
    depth: a direct winner exists at B' and is compared first, as at B. A
    split winner sits at position (v, l_left), the first b1 whose left half
    is its left path, because by induction the left half returns that path
    on [l_left, b1] and the skip drops every later position with it. At B'
    that position exists with a right budget in [l_right, B - l_left], so by
    induction it yields the same candidate, and it is not skipped. Every
    candidate before it at B' is worth at most its counterpart at B, by
    monotonicity in the budget, and that counterpart was strictly worse than
    the winner; every candidate after it is worth at most its counterpart,
    which did not beat the winner. Upward, the candidate sequence, and so
    the answer, stays the same below the first budget where one of these
    changes, the entry's `next`: the smallest
      * d(s, v) > B over direct endpoints v (free endpoint only);
      * d(s, v) + d(v, t) over midpoints v not yet feasible;
      * b1 + the right half's next, over the splits tried;
      * the last left half's next + d(v, t), per midpoint, since the
        positions past B - d(v, t) repeat that left path, and are skipped,
        until its next.
    So an entry answers every budget in [l, next), and for a fixed midpoint
    the b1 loop jumps from one left half's next to the following one.

    A depth-0 call with a fixed endpoint has one candidate, the edge [s, t]
    (or [s]), and next = never: it answers every budget from d(s, t) up. So
    a depth-1 call writes those halves out instead of asking the memo. Its
    left half is the edge [s, v] at every b1, so each midpoint runs one
    split and adds nothing to next; a fixed right half is the edge [v, t],
    and adds nothing either. Only the free-endpoint depth-0 scans, whose
    next matters, remain calls. Every entry's value is g(key mask u path),
    and the right half is keyed on mask u left path, so its value is the
    candidate's g(mask u left u right): a split needs no num call of its
    own. Candidates, their order and every next are unchanged, and so is
    the answer.
    """
    n = q.metric.n
    check_cap("sop_recursive_greedy", n, RG_CAP, "|V|")
    d = q.metric.dist
    num = q.valuation.num
    declared = (greedy_rho(n), 1)
    kmax = _path_vertex_bound(q)
    depth = (kmax - 1).bit_length()
    never = q.budget + 1   # no call asks for a larger budget
    memo: dict = {}        # (s, t, depth, mask) -> entry, or list of 2+

    def best(s: int, t: int | None, budget: int, depth: int, mask: int):
        """Best path from s of length <= budget given collected mask, ending
        at t, or anywhere if t is None; callers keep d(s, t) <= budget.
        Returns the entry (g(mask u path) as an int, path, path mask, path
        length, next), the answer at every budget in [length, next)."""
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
                if depth == 1:   # the left half is the edge [s, v]
                    lm = 1 << s | 1 << v
                    lp = (s, v) if v != s else (s,)
                    if t is None:
                        right = best(v, None, budget - lo, 0, mask | lm)
                        if lo + right[4] < nxt:
                            nxt = lo + right[4]
                        if right[0] > top[0]:
                            top = (right[0], lp + right[1][1:],
                                   lm | right[2], lo + right[3])
                    else:   # and the right half the edge [v, t]
                        pm = lm | 1 << t
                        val = num(mask | pm)
                        if val > top[0]:
                            top = (val, lp + ((t,) if t != v else ()), pm,
                                   lo + back)
                    continue
                prev = None
                # b1 >= d(s, v) and budget - b1 >= d(v, t): both halves exist
                b1 = lo
                while b1 <= budget - back:
                    left = best(s, v, b1, depth - 1, mask)
                    if left[1] != prev:
                        prev = left[1]
                        right = best(v, t, budget - b1, depth - 1,
                                     mask | left[2])
                        if b1 + right[4] < nxt:
                            nxt = b1 + right[4]
                        # right is keyed on mask u left: its value is the total
                        if right[0] > top[0]:
                            top = (right[0], left[1] + right[1][1:],
                                   left[2] | right[2], left[3] + right[3])
                    b1 = left[4]   # the left half is the same until then
                if b1 + back < nxt:
                    nxt = b1 + back
        entry = top + (nxt,)
        memo[key] = entry if got is None else (
            [got, entry] if type(got) is tuple else [*got, entry])
        return entry

    path = best(q.root, None, q.budget, depth, 0)[1]
    # best reaches itself through its closure cell, a cycle that keeps the
    # memo alive until the cycle collector runs
    memo.clear()
    return _finish(q, path, declared)
