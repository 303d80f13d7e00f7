"""Seed-deterministic random instance generators.

Every generator draws from ``random.Random(f"{kind}:{n}:{seed}")`` so a
(kind, n, seed) triple pins the instance bit-for-bit across runs and
platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..errors import check_cap, size_cap
from .metrics import GridPoints, Metric, uniform_metric
from .stoch import StochasticInstance
from .trees import GroupedTree, normalize
from .valuations import SUBMODULAR_CAP, ExplicitFunction, ValuationSet

KINDS = ("uniform-metric", "euclidean-grid-metric", "random-tree",
         "random-groups", "random-stochastic")
GEN_CAP = 256   # the metrics' O(n^3) triangle check takes ~1 s at n = 256


@dataclass
class Instance:
    """Union container matching the sections of the on-disk format."""

    kind: str                                   # ranking | mlsc | lcst | wssr
    metric: Optional[Metric] = None
    tree: Optional[GroupedTree] = None
    valuations: Optional[ValuationSet] = None
    stochastic: Optional[StochasticInstance] = None


def _check_size(n: int):
    if n < 1:
        raise ValueError(f"generator size must be n >= 1, got n={n}")
    check_cap("generators", n, GEN_CAP)


def _random_groups(rng: random.Random, pool: list[int], count: int,
                   max_size: int = 4) -> tuple[list[list[int]], list[int]]:
    groups, reqs = [], []
    for _ in range(count):
        size = rng.randint(1, min(max_size, len(pool)))
        groups.append(sorted(rng.sample(pool, size)))
        reqs.append(rng.randint(1, size))
    return groups, reqs


STYLES = ("singlegroup", "multicoverage", "coverage", "explicit")


def _random_valuations(rng: random.Random, n: int, pool: list[int]) -> ValuationSet:
    style = rng.choice(STYLES)
    if style == "explicit" and n > size_cap(SUBMODULAR_CAP):
        style = "multicoverage"   # the same groups, left untabulated
    return _styled_valuations(rng, style, n, pool)


def random_valuations(style: str, n: int, seed: int) -> ValuationSet:
    """Deterministic random valuation set of one fixed style."""
    if style not in STYLES:
        raise ValueError(f"unknown valuation style {style!r}")
    _check_size(n)
    rng = random.Random(f"{style}:{n}:{seed}")
    return _styled_valuations(rng, style, n, list(range(n)))


def _styled_valuations(rng: random.Random, style: str, n: int,
                       pool: list[int]) -> ValuationSet:
    count = rng.randint(2, 4) if style == "singlegroup" else rng.randint(2, 5)
    groups, reqs = _random_groups(rng, pool, count)
    # make sure the union can be covered: nothing to fix, any groups work
    if style == "coverage":
        return ValuationSet.coverage(n, groups)
    if style == "multicoverage":
        return ValuationSet.multicoverage(n, groups, reqs)
    if style == "singlegroup":
        return ValuationSet.singlegroup(n, groups, reqs)
    # explicit: tabulate a coverage-style function so the table is guaranteed
    # monotone submodular, then forget the structure; refuse before building
    # 2^n entries that epsilon's exhaustive sweep would refuse anyway
    check_cap("explicit valuation tables", n, SUBMODULAR_CAP)
    base = ValuationSet.multicoverage(n, groups, reqs).functions[0]
    nums = [base.num(mask) for mask in range(1 << n)]
    return ValuationSet(n, [ExplicitFunction.from_nums(n, nums, base.den)],
                        "explicit")


def random_instance(kind: str, n: int, seed: int) -> Instance:
    """Generate a deterministic random instance of the requested kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    _check_size(n)
    if n < 2 and kind in ("uniform-metric", "euclidean-grid-metric"):
        # valuations draw from the non-root points 1..n-1
        raise ValueError(f"{kind} needs n >= 2, got n={n}")
    rng = random.Random(f"{kind}:{n}:{seed}")

    if kind == "random-groups":
        vs = _random_valuations(rng, n, list(range(n)))
        return Instance("ranking", valuations=vs)

    if kind == "uniform-metric":
        metric = uniform_metric(n, root=0)
        vs = _random_valuations(rng, n, list(range(1, n)))
        return Instance("mlsc", metric=metric, valuations=vs)

    if kind == "euclidean-grid-metric":
        side = max(2, round(n ** 0.5) + 1)
        cells = [(x, y) for x in range(side) for y in range(side)]
        pts = rng.sample(cells, n)
        metric = GridPoints(tuple(pts), root=0).to_metric()
        vs = _random_valuations(rng, n, list(range(1, n)))
        return Instance("mlsc", metric=metric, valuations=vs)

    if kind == "random-tree":
        return Instance("lcst", tree=_random_tree(rng, n))

    # random-stochastic
    return Instance("wssr", stochastic=_random_stochastic(rng, n))


def _random_tree(rng: random.Random, n: int) -> GroupedTree:
    """Random rooted tree on n vertices with 1-3 disjoint leaf groups."""
    if n < 3:
        raise ValueError(f"random-tree needs n >= 3, got n={n}")
    parent: list[Optional[int]] = [None]
    weight = [0]
    for v in range(1, n):
        parent.append(rng.randrange(v))
        weight.append(rng.randint(1, 4))
    inner = set(parent)
    leaves = [v for v in range(1, n) if v not in inner]
    rng.shuffle(leaves)
    count = min(len(leaves), rng.randint(1, 3))
    groups: list[list[int]] = [[] for _ in range(count)]
    for i, leaf in enumerate(leaves):
        if rng.random() < 0.85 or i < count:
            groups[i % count].append(leaf)
    groups = [sorted(g) for g in groups if g]
    reqs = [rng.randint(1, len(g)) for g in groups]
    return normalize(parent, weight, 0, groups, reqs)


def _random_stochastic(rng: random.Random, n: int) -> StochasticInstance:
    """n elements over a small domain, supports of size 1-3, lengths 1-4."""
    domain = max(3, min(2 * n, 8))
    supports = []
    lengths = []
    for _ in range(n):
        size = rng.randint(1, min(3, domain))
        pts = sorted(rng.sample(range(domain), size))
        raws = [rng.randint(1, 6) for _ in pts]
        total = sum(raws)
        probs = [Fraction(r, total) for r in raws]
        supports.append(tuple(zip(pts, probs)))
        lengths.append(rng.randint(1, 4))
    pool = list(range(domain))
    vs = _random_valuations(rng, domain, pool)
    return StochasticInstance(domain, tuple(supports), tuple(lengths), vs)
