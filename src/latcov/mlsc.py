"""Latency-minimizing cover walks on a metric.

Budget-doubling construction: phase k runs a fixed number of path
augmentations at budget 2^k, each solved by a pluggable bounded-path solver
against the scaled residual of the still-uncovered valuations, and stitches
the returned paths through the root. The objective of a walk is the sum over
valuations of the prefix distance at which each first reaches value 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import Uncoverable, check_cap
from .instances.metrics import Metric
from .instances.valuations import ResidualFunction, ValuationSet
from .orienteering import SopQuery, SopResult
from .ranking import check_decay, uncovered_at, uncovered_counts
from .tour import LatencyTour

LATENCY_CAP = 7


# value rebound so perfbench can wrap it here; goes once probes read counters
class ResidualValuation(ResidualFunction):
    __slots__ = ()
    value = ResidualFunction.value


@dataclass(frozen=True)
class PhaseRecord:
    budget: int
    results: tuple[SopResult, ...]
    added: tuple[int, ...]   # vertices first collected this phase, in order
    end_length: int          # walk length when the phase closed


@dataclass(frozen=True)
class PhaseLog:
    alpha: Fraction
    rho: int
    sigma: int
    augmentations: int
    phases: tuple[PhaseRecord, ...]


def augmentation_count(alpha: Fraction, rho: int) -> int:
    """Augmentations per phase: ceil(4 * alpha * rho)."""
    return math.ceil(4 * alpha * rho)


def mlsc_checkpoint_base(alpha: Fraction, rho: int, sigma: int) -> int:
    """Checkpoint unit 4 * ceil(4 alpha rho) * sigma.

    Rounding the augmentation count once keeps the checkpoint an exact upper
    bound on the walk length at the end of phase j after doubling: the walk
    grows by at most 2 * H * sigma * 2^k in phase k, and summing the
    geometric series gives < 4 * H * sigma * 2^j.
    """
    return 4 * augmentation_count(alpha, rho) * sigma


def alg_mlsc(metric: Metric, vs: ValuationSet,
             solver: Callable[[SopQuery], SopResult],
             ) -> tuple[LatencyTour, PhaseLog]:
    """Phase-doubling latency cover: returns the stitched tour and its log.

    Each phase runs ceil(4 alpha rho) augmentations at the phase budget; each
    augmentation asks `solver` for a rooted path maximizing the residual
    valuation, then appends it to the walk with a return leg to the root.
    Budgets double until they reach n * diameter; past that bound any
    coverable valuation is coverable in one augmentation, so a full phase
    with zero residual gain signals an uncoverable valuation.

    (rho, sigma) is the guarantee `solver` declares in its first answer; a
    later answer declaring another pair, or a path longer than sigma times
    its budget, raises ValueError.

    `solver` must be a pure function of its query. A query is fixed by the
    collected vertex set and the budget, so the solver is asked each
    distinct query once: until one of the two changes, every augmentation
    reuses the last answer, logs it again and, if it is a path past the
    root, walks it again.
    """
    if vs.n != metric.n:
        raise ValueError("valuations and metric disagree on the vertex count")
    r = metric.root
    declared = None   # the solver's (rho, sigma), from its first answer
    h = 1             # augmentations per phase, set by the first answer
    cap = max(1, metric.n * metric.diameter)
    s_mask = 1 << r
    walk = [r]
    length = 0
    phases: list[PhaseRecord] = []
    budget = 1
    residual = ResidualValuation(vs, s_mask)
    asked = res = None   # the last (s_mask, budget) asked and its answer
    while residual.uncovered:
        results: list[SopResult] = []
        added: list[int] = []
        gained = False
        while len(results) < h:   # one result per augmentation
            if asked != (s_mask, budget):
                asked = (s_mask, budget)
                res = solver(SopQuery(metric, r, residual, budget))
                if declared is None:
                    declared = res.guarantee
                    h = augmentation_count(vs.alpha, declared[0])
                elif res.guarantee != declared:
                    raise ValueError(f"solver declared {res.guarantee} "
                                     f"after {declared}")
                if res.length > declared[1] * budget:
                    raise ValueError("solver exceeded its declared "
                                     "length bound")
            results.append(res)
            gained = gained or res.value > 0
            if len(res.path) > 1:
                walk.extend(res.path[1:])
                walk.append(r)
                length += res.length + metric.d(res.path[-1], r)
                before = s_mask
                for v in res.path[1:]:
                    if not s_mask & (1 << v):
                        s_mask |= 1 << v
                        added.append(v)
                if s_mask != before:
                    residual = ResidualValuation(vs, s_mask)
                    if residual.uncovered == 0:
                        break
        phases.append(PhaseRecord(budget, tuple(results), tuple(added), length))
        if residual.uncovered and budget >= cap and not gained:
            raise Uncoverable("no residual progress in a full phase at the "
                              "budget cap")
        if budget < cap:
            budget *= 2
    tour = LatencyTour.from_walk(metric, vs, walk)
    # no query when the root alone covers every valuation: each count
    # check_decay reads is then 0, so any base gives the same rows and verdict
    rho, sigma = declared or (1, 1)
    return tour, PhaseLog(vs.alpha, rho, sigma,
                          augmentation_count(vs.alpha, rho), tuple(phases))


def brute_force_latency(metric: Metric, vs: ValuationSet) -> LatencyTour:
    """Exact minimizer of the summed cover times over root-started paths.

    Optimal walks may be taken vertex-simple (shortcutting repeats never
    delays an arrival). A walk's objective sums d(v_{k-1}, v_k) times the
    number of valuations uncovered at {v_0..v_{k-1}}, so a DP over (visited
    set, last vertex) minimizes it over all orders of the non-root vertices.
    Each step takes the smallest next vertex that keeps the optimum, which
    gives the lexicographically smallest optimal walk.
    """
    n = metric.n
    check_cap("brute_force_latency", n, LATENCY_CAP)
    if vs.n != n:
        raise ValueError("valuations and metric disagree on the vertex count")
    d, uncovered = metric.dist, uncovered_counts(vs)
    best = [[0] * n for _ in range(1 << n)]   # cost still to come at (S, v)

    def moves(mask: int, v: int) -> list[tuple[int, int]]:
        return [(d[v][u] * uncovered[mask] + best[mask | 1 << u][u], u)
                for u in range(n) if not mask >> u & 1]

    for mask in range((1 << n) - 2, 0, -1):
        for v in range(n):
            if mask >> v & 1:
                best[mask][v] = min(moves(mask, v))[0]
    walk = [metric.root]
    while len(walk) < n:
        walk.append(min(moves(sum(1 << v for v in walk), walk[-1]))[1])
    return LatencyTour.from_walk(metric, vs, walk)


def check_mlsc_recurrence(tour: LatencyTour, log: PhaseLog, opt: LatencyTour,
                          ) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Quarter-decay check |R_j| <= |R_{j-1}|/4 + |R*_j| over all j >= 0.

    R_j counts valuations the tour covers strictly after distance
    4 * ceil(4 alpha rho) * sigma * 2^j, R*_j those the optimal tour covers
    strictly after 2^j; with int cover times, "strictly after t" is
    "at t + 1 or later". One run, so check_decay's verdict is exactly
    4 |R_j| <= |R_{j-1}| + 4 |R*_j|, and horizon 0 stops the scan at the
    first level where both counts are zero. Returns (ok, rows of
    (j, |R_j|, |R_{j-1}|, |R*_j|)).
    """
    def counts(t: int, t_star: int) -> list[tuple[int, int]]:
        return [(uncovered_at(tour.cover_times, t + 1),
                 uncovered_at(opt.cover_times, t_star + 1))]

    ok, rows = check_decay(counts,
                           mlsc_checkpoint_base(log.alpha, log.rho, log.sigma))
    return ok, [row[:4] for row in rows]
