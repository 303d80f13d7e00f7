"""Rooted edge-weighted trees with disjoint leaf groups.

Edges are identified by their child vertex (vertex v owns the edge to
parent[v]). Construction builds each vertex's children and one root-first
order (depth-first preorder, children in id order) in the pass that checks
the parent pointers: they form a tree exactly when that order reaches
every vertex. `topo_order`, `euler_tour` and the group checks read these
stored lists. Group covering instances additionally require, after
`normalize`: group members are leaves, groups are pairwise disjoint, and
every leaf belongs to some group.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .metrics import Metric, metric_from_matrix


class GroupedTree:
    """Immutable rooted tree with leaf groups and coverage requirements."""

    def __init__(self, parent: Sequence[Optional[int]], weight: Sequence[int],
                 root: int, groups: Sequence[Sequence[int]], reqs: Sequence[int]):
        self.parent = tuple(parent)
        self.weight = tuple(int(w) for w in weight)
        self.root = root
        self.groups = tuple(tuple(sorted(g)) for g in groups)
        self.reqs = tuple(int(k) for k in reqs)
        n = self.n
        if len(self.weight) != n or len(self.groups) != len(self.reqs):
            raise ValueError("field length mismatch")
        if not 0 <= root < n:
            raise ValueError("root out of range")
        if self.parent[root] is not None:
            raise ValueError("root must have no parent")
        if self.weight[root] != 0:
            raise ValueError("root carries no edge weight")
        if not self.groups:
            raise ValueError("groups must name at least one group, got none")
        kids: list[list[int]] = [[] for _ in range(n)]
        for v in self.edges:
            p = self.parent[v]
            if p is None or not 0 <= p < n:
                raise ValueError("non-root vertex needs an in-range parent")
            if self.weight[v] < 0:
                raise ValueError("edge weights must be non-negative integers")
            kids[p].append(v)
        # each vertex is listed under its one parent, so the order from the
        # root reaches every vertex exactly when there is no cycle
        self._order = _root_first(kids, root)
        if len(self._order) != n:
            raise ValueError("parent pointers do not form a rooted tree")
        self.children = tuple(map(tuple, kids))
        self.leaves = tuple(v for v in self.edges if not kids[v])
        member_seen: set[int] = set()
        for g, k in zip(self.groups, self.reqs):
            if not g:
                raise ValueError("groups must be nonempty")
            if not 1 <= k <= len(g):
                raise ValueError("requirement must be in 1..|group|")
            for v in g:
                if not 0 <= v < n or v == root or kids[v]:
                    raise ValueError("group members must be non-root leaves")
                if v in member_seen:
                    raise ValueError("groups must be disjoint")
                member_seen.add(v)
        if not member_seen.issuperset(self.leaves):
            raise ValueError("every leaf must belong to some group "
                             "(run normalize first)")
        self._dists: Optional[list[list[int]]] = None

    # ---- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def edges(self) -> tuple[int, ...]:
        """Non-root vertices; vertex v names the edge (v, parent[v])."""
        return tuple(v for v in range(self.n) if v != self.root)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupedTree) and (
            self.parent, self.weight, self.root, self.groups, self.reqs
        ) == (other.parent, other.weight, other.root, other.groups, other.reqs)

    # ---- geometry ----------------------------------------------------------

    @property
    def total_weight(self) -> int:
        return sum(self.weight)

    def distances(self) -> list[list[int]]:
        """All-pairs tree distances (cached; per-vertex traversal)."""
        if self._dists is None:
            self._dists = [self._bfs(v) for v in range(self.n)]
        return self._dists

    def _bfs(self, s: int) -> list[int]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for v in self.edges:
            p = self.parent[v]
            adj[v].append((p, self.weight[v]))
            adj[p].append((v, self.weight[v]))
        dist = [-1] * self.n
        dist[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w, wt in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + wt
                    stack.append(w)
        return dist

    def tree_metric(self) -> Metric:
        return metric_from_matrix(self.distances(), self.root)

    def topo_order(self) -> list[int]:
        """Vertices root-first; every parent precedes its children."""
        return list(self._order)

    # ---- tours -------------------------------------------------------------

    def euler_tour(self, selected: Optional[set[int]] = None) -> list[int]:
        """Closed walk from the root traversing each selected edge twice.

        `selected` is a set of edge ids (child vertices); it must be closed
        under taking parents, i.e. form a subtree hanging at the root. None
        selects every edge.
        """
        if selected is None:
            selected = set(self.edges)
        for v in selected:
            p = self.parent[v]
            if p is None:
                raise ValueError("root has no parent edge")
            if p != self.root and p not in selected:
                raise ValueError("selected edges must form a subtree at the root")
        # the root-first order enters the selected vertices as a depth-first
        # walk would; climb back to each one's parent before entering it
        path = [self.root]
        for v in self._order:
            if v in selected:
                while path[-1] != self.parent[v]:
                    path.append(self.parent[path[-1]])
                path.append(v)
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def walk_weight(self, walk: Sequence[int]) -> int:
        dist = self.distances()
        return sum(dist[a][b] for a, b in zip(walk, walk[1:]))


def _root_first(kids: Sequence[Sequence[int]], root: int) -> list[int]:
    """Depth-first preorder from the root, children in id order."""
    order, stack = [], [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(kids[u]))
    return order


def normalize(parent: Sequence[Optional[int]], weight: Sequence[int], root: int,
              groups: Sequence[Sequence[int]], reqs: Sequence[int]) -> GroupedTree:
    """Rewrite a raw grouped tree into the canonical leaf-group form.

    Surgery, in order: group members that are internal vertices or shared
    between groups get a fresh zero-weight pendant leaf; subtrees holding
    no member are pruned, in one pass up the root-first order; vertex ids
    are then compacted preserving relative order. Vertices the root cannot
    reach are kept, so `GroupedTree` refuses a parent array that is not a
    tree.
    """
    parent = list(parent)
    weight = list(weight)
    groups = [list(g) for g in groups]
    n = len(parent)
    if len(weight) != n:
        raise ValueError("field length mismatch")
    if not 0 <= root < n:
        raise ValueError("root out of range")
    if not all(0 <= v < n for g in groups for v in g):
        raise ValueError("group members must be non-root leaves")
    kids: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if v != root and p is not None and 0 <= p < n:
            kids[p].append(v)
    occurrences = Counter(v for g in groups for v in g)
    members: set[int] = set()
    for g in groups:
        for idx, v in enumerate(g):
            if v == root or kids[v] or occurrences[v] > 1:
                # fresh zero-weight pendant per occurrence; v turns internal
                g[idx] = len(parent)
                kids[v].append(g[idx])
                kids.append([])
                parent.append(v)
                weight.append(0)
            members.add(g[idx])

    keep = [True] * len(parent)
    for v in reversed(_root_first(kids, root)):   # children before parents
        keep[v] = v == root or v in members or any(keep[c] for c in kids[v])
    kept = [v for v in range(len(parent)) if keep[v]]
    remap = {v: i for i, v in enumerate(kept)}
    # only the root's parent can be pruned; it and a parent out of range
    # become -1, which GroupedTree refuses
    new_parent = [None if parent[v] is None else remap.get(parent[v], -1)
                  for v in kept]
    return GroupedTree(new_parent, [weight[v] for v in kept], remap[root],
                       [[remap[v] for v in g] for g in groups], reqs)
