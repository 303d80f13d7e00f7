"""Rooted edge-weighted trees with disjoint leaf groups.

Edges are identified by their child vertex (vertex v owns the edge to
parent[v]). Group covering instances additionally require, after
`normalize`: group members are leaves, groups are pairwise disjoint, and
every degree-1 vertex belongs to some group.
"""

from __future__ import annotations

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
        self._validate()
        self.children: tuple[tuple[int, ...], ...] = self._children()
        self.leaves = tuple(v for v in range(self.n)
                            if v != root and not self.children[v])
        self._dists: Optional[list[list[int]]] = None

    # ---- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def edges(self) -> tuple[int, ...]:
        """Non-root vertices; vertex v names the edge (v, parent[v])."""
        return tuple(v for v in range(self.n) if v != self.root)

    def _children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
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
        seen_root = 0
        for v in range(n):
            if v == self.root:
                seen_root += 1
                continue
            p = self.parent[v]
            if p is None or not 0 <= p < n:
                raise ValueError("non-root vertex needs an in-range parent")
            if self.weight[v] < 0:
                raise ValueError("edge weights must be non-negative integers")
            # walk to the root; cycles would loop past n steps
            hops, u = 0, v
            while u != self.root:
                u = self.parent[u]
                hops += 1
                if u is None or hops > n:
                    raise ValueError("parent pointers do not form a rooted tree")
        if seen_root != 1:
            raise ValueError("exactly one root required")
        kids: list[int] = [0] * n
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p] += 1
        member_seen: set[int] = set()
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
        order, stack = [], [self.root]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(self.children[u]))
        return order

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
        # iterative DFS emitting the child on entry and the parent on exit
        path = [self.root]
        stack: list[tuple[int, bool]] = [
            (c, True) for c in reversed(self.children[self.root]) if c in selected
        ]
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

    def walk_weight(self, walk: Sequence[int]) -> int:
        dist = self.distances()
        return sum(dist[a][b] for a, b in zip(walk, walk[1:]))


def normalize(parent: Sequence[Optional[int]], weight: Sequence[int], root: int,
              groups: Sequence[Sequence[int]], reqs: Sequence[int]) -> GroupedTree:
    """Rewrite a raw grouped tree into the canonical leaf-group form.

    Surgery, in order: group members that are internal vertices or shared
    between groups get a fresh zero-weight pendant leaf; degree-1 vertices
    in no group are pruned (repeatedly); vertex ids are then compacted
    preserving relative order.
    """
    parent = list(parent)
    weight = list(weight)
    groups = [list(g) for g in groups]
    n = len(parent)
    kids = [0] * n
    for v, p in enumerate(parent):
        if p is not None:
            kids[p] += 1

    occurrences: dict[int, int] = {}
    for g in groups:
        for v in g:
            occurrences[v] = occurrences.get(v, 0) + 1

    claimed: set[int] = set()
    for g in groups:
        for idx, v in enumerate(g):
            internal = (v == root) or kids[v] > 0
            if internal or occurrences[v] > 1:
                # fresh zero-weight pendant per occurrence; v turns internal
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

    remap: dict[int, int] = {}
    for v in range(len(parent)):
        if alive[v]:
            remap[v] = len(remap)
    new_parent = [None if parent[v] is None else remap[parent[v]]
                  for v in range(len(parent)) if alive[v]]
    new_weight = [weight[v] for v in range(len(parent)) if alive[v]]
    new_groups = [[remap[v] for v in g] for g in groups]
    return GroupedTree(new_parent, new_weight, remap[root], new_groups, reqs)

