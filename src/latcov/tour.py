"""A root walk scored by latency: its prefix distances, the distance at
which each valuation is first covered, and their sum.

`latcov.mlsc.alg_mlsc` returns one on a metric, and
`latcov.lcst.rounding.alg_lcst` on a grouped tree, which needs none of the
path solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import Uncoverable
from .instances.metrics import Metric
from .instances.valuations import ValuationSet


@dataclass(frozen=True)
class LatencyTour:
    """A root walk with its prefix distances and per-valuation cover times."""

    walk: tuple[int, ...]
    prefix: tuple[int, ...]
    cover_times: tuple[int, ...]
    objective: int

    @classmethod
    def from_walk(cls, metric: Metric, vs: ValuationSet,
                  walk: Sequence[int]) -> "LatencyTour":
        """Recompute prefix lengths, cover times, and the objective."""
        walk = tuple(walk)
        if not walk or walk[0] != metric.root:
            raise ValueError("walk must start at the root")
        prefix = [0]
        for a, b in zip(walk, walk[1:]):
            prefix.append(prefix[-1] + metric.d(a, b))
        cover = vs.first_cover(zip(walk, prefix))
        if None in cover:
            raise Uncoverable("walk does not cover every valuation")
        return cls(walk, tuple(prefix), tuple(cover), sum(cover))
