"""Random hierarchical tree embeddings of integer metrics.

One random permutation and one radius scale beta in [1, 2) drive the whole
hierarchy: the cluster at level l is split by assigning each point to the
first permutation element whose ball of radius beta * 2^(l-2) contains it.
A child created at level l-1 hangs below its parent on an edge of weight
2^l, so two points separated below a level-(s+1) cluster sit at tree
distance >= 2^(s+2) while their metric distance is < 2 * beta * 2^s: the
embedding never contracts.  The tree is re-rooted at the metric root's
leaf; path distances do not change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..instances.trees import GroupedTree, normalize, path_length


@dataclass(frozen=True)
class EmbeddedTree:
    """Tree skeleton over cluster nodes plus the metric-to-leaf map.

    Vertices with metric distance zero share one leaf.  `grouped` turns
    metric-vertex groups into a leaf-group tree, capping each requirement
    at the number of distinct leaves the group maps to.
    """

    parent: tuple
    weight: tuple
    root: int
    leaf_of: tuple          # metric vertex -> tree vertex
    metric: object = field(repr=False, compare=False)

    @property
    def mean_stretch(self) -> float:
        """Mean of tree distance / metric distance over positive pairs."""
        n, leaf = len(self.leaf_of), self.leaf_of
        ratios = [self.distance(leaf[a], leaf[b]) / d
                  for a in range(n) for b in range(a + 1, n)
                  if (d := self.metric.d(a, b)) > 0]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def grouped(self, groups, reqs) -> GroupedTree:
        mapped, capped = [], []
        for g, k in zip(groups, reqs):
            leaves = tuple(sorted({self.leaf_of[v] for v in g}))
            mapped.append(leaves)
            capped.append(min(k, len(leaves)))
        return normalize(self.parent, self.weight, self.root, mapped, capped)

    def distance(self, a: int, b: int) -> int:
        return path_length(self.parent, self.weight, a, b)


def frt_embed(metric, seed: int) -> EmbeddedTree:
    """Random non-contracting tree over the metric; deterministic per seed."""
    rng = random.Random(f"frt:{seed}")
    n = metric.n

    # distance-zero vertices act as one point
    reps: list[int] = []
    rep_of: list[int] = []
    for v in range(n):
        r = next((u for u in reps if metric.d(u, v) == 0), None)
        if r is None:
            reps.append(v)
            r = v
        rep_of.append(r)

    beta = 1 + rng.random()
    pi = list(reps)
    rng.shuffle(pi)
    diam = metric.diameter
    top = (max(1, diam) - 1).bit_length() + 1   # smallest: 2^(top-1) >= diam

    parent: list = [None]
    weight: list[int] = [0]
    leaf_node: dict[int, int] = {}
    stack: list[tuple[tuple[int, ...], int, int]] = [(tuple(reps), top, 0)]
    while stack:
        cluster, level, node = stack.pop()
        if len(cluster) == 1:
            leaf_node[cluster[0]] = node
            continue
        radius = beta * 2 ** (level - 2)
        buckets: dict[int, list[int]] = {}
        for x in cluster:
            center = next(u for u in pi if metric.d(u, x) <= radius)
            buckets.setdefault(center, []).append(x)
        for u in pi:
            if u in buckets:
                child = len(parent)
                parent.append(node)
                weight.append(2 ** level)
                stack.append((tuple(buckets[u]), level - 1, child))

    # re-root at the metric root's leaf; edge ids move to the new children
    new_root = leaf_node[rep_of[metric.root]]
    path = []
    u: int | None = new_root
    while u is not None:
        path.append(u)
        u = parent[u]
    old_weight = list(weight)
    for a, b in zip(path, path[1:]):
        parent[b] = a
        weight[b] = old_weight[a]
    parent[new_root] = None
    weight[new_root] = 0

    return EmbeddedTree(
        parent=tuple(parent),
        weight=tuple(weight),
        root=new_root,
        leaf_of=tuple(leaf_node[rep_of[v]] for v in range(n)),
        metric=metric,
    )
