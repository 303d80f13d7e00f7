"""Latency-minimizing cover walks on a metric.

Budget-doubling construction: phase k runs a fixed number of path
augmentations at budget 2^k, each solved by a pluggable bounded-path solver
against the scaled residual of the still-uncovered valuations, and stitches
the returned paths through the root. The objective of a walk is the sum over
valuations of the prefix distance at which each first reaches value 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapExceeded, Uncoverable, size_cap
from .instances.metrics import Metric
from .instances.valuations import ValuationSet
from .orienteering import SopQuery, SopResult

LATENCY_CAP = 7


class ResidualValuation:
    """Scaled residual f^S(T) = sum over uncovered i of the covered fraction
    of what f_i still lacks: (f_i(S u T) - f_i(S)) / (1 - f_i(S)).

    Monotone submodular whenever every f_i is; each uncovered valuation
    contributes at most 1, reached exactly when T completes it.
    """

    __slots__ = ("s_mask", "_active", "_memo")

    def __init__(self, functions: Sequence, s_mask: int):
        self.s_mask = s_mask
        self._active = []
        for fn in functions:
            base = fn.value(s_mask)
            if base < 1:
                self._active.append((fn, base, 1 - base))
        self._memo: dict[int, Fraction] = {}   # keyed by S u T

    @property
    def uncovered(self) -> int:
        return len(self._active)

    def value(self, tmask: int) -> Fraction:
        u = self.s_mask | tmask
        hit = self._memo.get(u)
        if hit is not None:
            return hit
        total = Fraction(0)
        for fn, base, gap in self._active:
            total += (fn.value(u) - base) / gap
        self._memo[u] = total
        return total


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
    checkpoints: tuple[tuple[int, int, int], ...]  # (j, t_j, |R(t_j)|)


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


def uncovered_after(cover_times: Sequence[int], t) -> tuple[int, ...]:
    """R(t): indices still uncovered strictly after prefix distance t."""
    return tuple(i for i, c in enumerate(cover_times) if c > t)


def alg_mlsc(metric: Metric, vs: ValuationSet,
             solver: Callable[[SopQuery], SopResult],
             rho: int, sigma: int) -> tuple[LatencyTour, PhaseLog]:
    """Phase-doubling latency cover: returns the stitched tour and its log.

    Each phase runs ceil(4 alpha rho) augmentations at the phase budget; each
    augmentation asks `solver` for a rooted path maximizing the residual
    valuation, then appends it to the walk with a return leg to the root.
    Budgets double until they reach n * diameter; past that bound any
    coverable valuation is coverable in one augmentation, so a full phase
    with zero residual gain signals an uncoverable valuation.
    """
    if vs.n != metric.n:
        raise ValueError("valuations and metric disagree on the vertex count")
    r = metric.root
    h = augmentation_count(vs.alpha, rho)
    cap = max(1, metric.n * metric.diameter)
    s_mask = 1 << r
    walk = [r]
    length = 0
    phases: list[PhaseRecord] = []
    budget = 1
    residual = ResidualValuation(vs.functions, s_mask)
    while residual.uncovered:
        results: list[SopResult] = []
        added: list[int] = []
        phase_gain = Fraction(0)
        for _ in range(h):
            res = solver(SopQuery(metric, r, residual, budget))
            if res.length > sigma * budget:
                raise ValueError("solver exceeded its declared length bound")
            results.append(res)
            phase_gain += res.value
            if len(res.path) > 1:
                walk.extend(res.path[1:])
                walk.append(r)
                length += res.length + metric.d(res.path[-1], r)
                for v in res.path[1:]:
                    if not s_mask & (1 << v):
                        s_mask |= 1 << v
                        added.append(v)
                residual = ResidualValuation(vs.functions, s_mask)
                if residual.uncovered == 0:
                    break
        phases.append(PhaseRecord(budget, tuple(results), tuple(added), length))
        if residual.uncovered and budget >= cap and phase_gain == 0:
            raise Uncoverable("no residual progress in a full phase at the "
                              "budget cap")
        if budget < cap:
            budget *= 2
    tour = LatencyTour.from_walk(metric, vs, walk)
    base = mlsc_checkpoint_base(vs.alpha, rho, sigma)
    total = tour.prefix[-1]
    checkpoints: list[tuple[int, int, int]] = []
    j = 0
    while True:
        t_j = base * (1 << j)
        checkpoints.append((j, t_j, len(uncovered_after(tour.cover_times, t_j))))
        if t_j >= total:
            break
        j += 1
    log = PhaseLog(vs.alpha, rho, sigma, h, tuple(phases), tuple(checkpoints))
    return tour, log


def brute_force_latency(metric: Metric, vs: ValuationSet) -> LatencyTour:
    """Exact minimizer of the summed cover times over root-started paths.

    Optimal walks may be taken vertex-simple (shortcutting repeats never
    delays an arrival), so enumerating permutations of the non-root vertices
    is exhaustive. Ties resolve to the lexicographically smallest walk.
    """
    n = metric.n
    if n > size_cap(LATENCY_CAP):
        raise CapExceeded(f"brute_force_latency capped at n={LATENCY_CAP}")
    if vs.n != n:
        raise ValueError("valuations and metric disagree on the vertex count")
    r = metric.root
    others = [v for v in range(n) if v != r]
    best: LatencyTour | None = None
    for perm in itertools.permutations(others):
        tour = LatencyTour.from_walk(metric, vs, (r,) + perm)
        if (best is None or tour.objective < best.objective
                or (tour.objective == best.objective and tour.walk < best.walk)):
            best = tour
    return best


def check_mlsc_recurrence(log: PhaseLog, opt: LatencyTour,
                          ) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Quarter-decay check |R_j| <= |R_{j-1}|/4 + |R*_j| over all j >= 0.

    R_j comes from the log's checkpoint counts (uncovered strictly after
    4 * ceil(4 alpha rho) * sigma * 2^j); R*_j counts valuations the optimal
    tour covers strictly after distance 2^j. Both hit zero and stay zero, so
    the scan stops once they do. Returns the verdict plus
    (j, |R_j|, |R_{j-1}|, |R*_j|) rows.
    """
    counts = {j: c for j, _, c in log.checkpoints}
    rows: list[tuple[int, int, int, int]] = []
    ok = True
    prev = 0  # |R_{-1}|
    j = 0
    while True:
        r_j = counts.get(j, 0)
        rstar_j = len(uncovered_after(opt.cover_times, 1 << j))
        rows.append((j, r_j, prev, rstar_j))
        if 4 * r_j > prev + 4 * rstar_j:
            ok = False
        if r_j == 0 and rstar_j == 0:
            break
        prev = r_j
        j += 1
    return ok, rows
