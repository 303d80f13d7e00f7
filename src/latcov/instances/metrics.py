"""Finite integer metrics with a designated root."""

from __future__ import annotations

import functools
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """Symmetric integer distance matrix over vertices 0..n-1.

    Distances are non-negative integers satisfying the triangle inequality;
    `root` is the start vertex for every tour built on the metric.
    """

    dist: tuple[tuple[int, ...], ...]
    root: int = 0

    def __post_init__(self):
        n = len(self.dist)
        if any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix must be square")
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        for i in range(n):
            if self.dist[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(i + 1, n):
                d = self.dist[i][j]
                if d != self.dist[j][i]:
                    raise ValueError("matrix must be symmetric")
                if d < 0 or d != int(d):
                    raise ValueError("distances must be non-negative integers")
        for i in range(n):
            di = self.dist[i]
            for j in range(n):
                dij = di[j]
                for k in range(n):
                    if dij > di[k] + self.dist[k][j]:
                        raise ValueError("triangle inequality violated")

    @property
    def n(self) -> int:
        return len(self.dist)

    def d(self, u: int, v: int) -> int:
        return self.dist[u][v]

    @functools.cached_property
    def min_separation(self) -> int:
        """Smallest distance between two distinct vertices; 0 if two
        vertices coincide or there is only one."""
        n = self.n
        return min((self.dist[u][v] for u in range(n)
                    for v in range(u + 1, n)), default=0)

    @property
    def diameter(self) -> int:
        return max(max(row) for row in self.dist)

    def walk_length(self, walk: list[int]) -> int:
        return sum(self.dist[a][b] for a, b in zip(walk, walk[1:]))


def metric_from_matrix(rows: list[list[int]], root: int = 0) -> Metric:
    return Metric(tuple(tuple(int(x) for x in row) for row in rows), root)


def metric_closure(rows: list[list[int]], root: int = 0) -> Metric:
    """Repair an almost-metric matrix by taking its shortest-path closure.

    Symmetrizes by the minimum of the two directions, then runs
    Floyd-Warshall. Useful for user-supplied matrices produced by scaling
    and rounding real distances, which can break the triangle inequality
    by a unit.
    """
    n = len(rows)
    d = [[min(int(rows[i][j]), int(rows[j][i])) if i != j else 0
          for j in range(n)] for i in range(n)]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < row[j]:
                    row[j] = via
    return metric_from_matrix(d, root)


@dataclass(frozen=True)
class GridPoints:
    """Integer grid points with L1 distances (an exact integer metric)."""

    points: tuple[tuple[int, int], ...]
    root: int = 0

    def to_metric(self) -> Metric:
        pts = self.points
        rows = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
        return metric_from_matrix(rows, self.root)


def uniform_metric(n: int, root: int = 0) -> Metric:
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    return metric_from_matrix(rows, root)
