"""Random tree embeddings: non-contraction, determinism, stretch statistics."""

import math
import random
import warnings

from latcov.instances.metrics import (GridPoints, Metric, metric_closure,
                                      metric_from_matrix, uniform_metric)
from latcov.instances.trees import path_length
from latcov.lcst.embed import frt_embed

from util import reference_distances


def random_metric(seed):
    rng = random.Random(f"embed:{seed}")
    n = rng.randint(3, 9)
    style = seed % 3
    if style == 0:
        return uniform_metric(n)
    if style == 1:
        pts = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(n)]
        return GridPoints(tuple(pts), 0).to_metric()
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, 12)
    return metric_closure(rows)


def test_two_point_non_contraction():
    m = metric_from_matrix([[0, 6], [6, 0]])
    for seed in range(20):
        t = frt_embed(m, seed)
        assert t.distance(t.leaf_of[0], t.leaf_of[1]) >= 6


def test_same_seed_same_tree():
    m = random_metric(7)
    assert frt_embed(m, 123) == frt_embed(m, 123)
    assert any(frt_embed(m, s) != frt_embed(m, 123) for s in range(5))


def test_non_contracting_on_random_metrics():
    for seed in range(30):
        m = random_metric(seed)
        t = frt_embed(m, seed * 31 + 1)
        assert t.weight[t.root] == 0
        assert t.parent[t.root] is None
        assert t.leaf_of[m.root] == t.root
        for a in range(m.n):
            for b in range(a + 1, m.n):
                td = t.distance(t.leaf_of[a], t.leaf_of[b])
                assert td >= m.d(a, b)
                if m.d(a, b) == 0:
                    assert t.leaf_of[a] == t.leaf_of[b]


def test_distance_is_the_tree_path_length():
    for seed in range(30):
        t = frt_embed(random_metric(seed), seed)
        ref = reference_distances(t)
        for a in range(len(t.parent)):
            for b in range(len(t.parent)):
                assert t.distance(a, b) == ref[a][b] == \
                    path_length(t.parent, t.weight, a, b), (seed, a, b)


def test_edge_weights_are_powers_of_two():
    m = random_metric(4)
    t = frt_embed(m, 9)
    for v, w in enumerate(t.weight):
        if v == t.root:
            assert w == 0
        else:
            assert w >= 2 and w & (w - 1) == 0


def test_zero_distance_vertices_share_a_leaf_and_cap_requirements():
    m = metric_from_matrix([[0, 3, 3], [3, 0, 0], [3, 0, 0]])
    t = frt_embed(m, 5)
    assert t.leaf_of[1] == t.leaf_of[2]
    g = t.grouped(((1, 2),), (2,))
    assert len(g.groups) == 1
    assert len(g.groups[0]) == 1 and g.reqs == (1,)


def test_group_containing_metric_root_survives_normalization():
    m = metric_from_matrix([[0, 4, 7], [4, 0, 5], [7, 5, 0]])
    t = frt_embed(m, 2)
    g = t.grouped(((0,), (1, 2)), (1, 2))
    # pendant surgery gives the root's class a fresh zero-weight leaf
    assert len(g.groups) == 2
    times_root_group = g.groups[0]
    assert len(times_root_group) == 1
    assert g.reqs == (1, 2)


def test_uniform_stretch_statistics():
    m = uniform_metric(8)
    means = []
    for seed in range(2000):
        means.append(frt_embed(m, seed).mean_stretch)
    grand = sum(means) / len(means)
    assert grand >= 1  # non-contraction forces stretch >= 1 on every pair
    if grand > 8 * math.log(m.n):
        warnings.warn(f"mean stretch {grand:.2f} above 8 ln n "
                      f"({8 * math.log(m.n):.2f})")
