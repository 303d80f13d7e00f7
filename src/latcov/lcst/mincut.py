"""Minimum-cost cuts separating a tree root from a given number of leaves.

The dynamic program runs on the query's own tree, children before parents.
C[v, k] is the cheapest edge set inside the subtree under edge v (named by
its child vertex, v included) that separates the root from at least k of
the subtree's leaves, and C[v, 0] = 0.  A vertex with children c_1..c_m,
in edge order, folds their tables right to left, c_1 + (c_2 + (... + c_m)):
each step gives every k its cheapest split between the two sides, the
smallest first share on ties.  Edge v is then cut for every k where its
cost is at most the folded entry, so a cut wins ties; below a leaf nothing
else separates it.  The root keeps its folded table.  The tie rules fix
which of several cheapest cuts comes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CutQuery:
    """Rooted tree with per-edge costs; `bound` leaves must be separated."""

    edges: tuple[tuple[int, int], ...]   # (child, parent) pairs
    costs: tuple                         # aligned with edges
    root: int
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be non-negative")
        if len(self.edges) != len(self.costs):
            raise ValueError("edges/costs length mismatch")
        children = {c for c, _ in self.edges}
        if len(children) != len(self.edges):
            raise ValueError("duplicate child vertex in edges")
        if self.root in children:
            raise ValueError("root cannot have a parent edge")


def _split(first, rest):
    """Cheapest split of k separated leaves between two tables, per k.

    Returns (table, shares), shares[k] being first's share, the smallest
    on ties; sums keep the order first[k1] + rest[k - k1].
    """
    n1, n2 = len(first) - 1, len(rest) - 1
    table, shares = [0], [0]
    for k in range(1, n1 + n2 + 1):
        lo = max(0, k - n2)
        best, pick = first[lo] + rest[k - lo], lo
        for k1 in range(lo + 1, min(k, n1) + 1):
            cand = first[k1] + rest[k - k1]
            if cand < best:
                best, pick = cand, k1
        table.append(best)
        shares.append(pick)
    return table, shares


def min_cut_with_exceptions(q: CutQuery):
    """Cheapest cut separating the root from at least `bound` leaves.

    Returns (cost, witness) where witness is a frozenset of child-vertex
    edge ids; (inf, None) when bound exceeds the leaf count.
    """
    children: dict[int, list[int]] = {}
    cost_of: dict[int, object] = {}
    for (c, p), w in zip(q.edges, q.costs):
        children.setdefault(p, []).append(c)
        cost_of[c] = w
    order = [q.root]                 # breadth first: parents before children
    for v in order:
        order.extend(children.get(v, ()))
    if len(order) != len(q.edges) + 1:
        raise ValueError("edges must form a tree rooted at root")

    if q.bound > len(cost_of.keys() - children.keys()):     # leaf count
        return math.inf, None
    if q.bound == 0:
        return 0, frozenset()

    table: dict[int, list] = {}
    cut: dict[int, list[bool]] = {}
    shares: dict[int, list[int]] = {}   # c_i's share in c_i + (c_i+1 + ...)
    for v in reversed(order):
        kids = children.get(v, ())
        fold = table[kids[-1]] if kids else [0, math.inf]
        for c in reversed(kids[:-1]):
            fold, shares[c] = _split(table[c], fold)
        if v == q.root:
            break
        w = cost_of[v]
        cut[v] = flags = [False] + [w <= f for f in fold[1:]]
        table[v] = [w if flag else f for flag, f in zip(flags, fold)]

    value = fold[q.bound]
    if value == math.inf:
        return math.inf, None
    witness: list[int] = []
    stack = [(q.root, q.bound)]
    while stack:
        v, k = stack.pop()
        if k == 0:
            continue
        if v != q.root and cut[v][k]:
            witness.append(v)
            continue
        kids = children[v]
        for c in kids[:-1]:
            stack.append((c, shares[c][k]))
            k -= shares[c][k]
        stack.append((kids[-1], k))
    return value, frozenset(witness)
