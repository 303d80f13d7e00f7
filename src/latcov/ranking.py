"""Adaptive greedy ranking of a ground set against submodular valuations.

The greedy scores each unscheduled element by the sum, over not-yet-covered
valuations, of its marginal gain normalized by the remaining gap to 1, and
schedules the argmax. Cover time of a valuation is the 1-based prefix index
at which it first reaches 1; the objective is the sum of cover times.

`brute_force_ranking` is the exact oracle: a memoized subset DP whose value
equals the minimum over all n! orderings (the objective is a chain sum of
prefix-set statistics, so position within a prefix never matters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded, size_cap
from .instances.valuations import ValuationSet, ZERO

RANKING_CAP = 8


@dataclass(frozen=True)
class Ordering:
    permutation: tuple[int, ...]
    cover_times: tuple[int, ...]   # per valuation, 1-based prefix index
    objective: int


@dataclass(frozen=True)
class RankingTrace:
    """Per step t (1-based): uncovered valuation indices before the step and
    the residual score of the chosen element."""

    uncovered: tuple[tuple[int, ...], ...]
    chosen_scores: tuple[Fraction, ...]


def residual_score(vs: ValuationSet, s_mask: int, e: int) -> Fraction:
    """Sum over uncovered f_i of (f_i(S+e) - f_i(S)) / (1 - f_i(S))."""
    if s_mask & (1 << e):
        raise ValueError("element already scheduled")
    total = ZERO
    for f in vs.functions:
        fs = f.value(s_mask)
        if fs < 1:
            total += (f.value(s_mask | (1 << e)) - fs) / (1 - fs)
    return total


class ResidualFunction:
    """residual_score lifted to sets: T -> sum_i (f_i(S u T) - f_i(S)) / (1 - f_i(S)).

    Monotone and submodular whenever every f_i is; reaches sum of uncovered
    count on the full set. Used directly as the query valuation for
    budgeted path searches.
    """

    __slots__ = ("vs", "s_mask", "_base", "_gaps", "_memo")

    def __init__(self, vs: ValuationSet, s_mask: int):
        self.vs = vs
        self.s_mask = s_mask
        self._base = [f.value(s_mask) for f in vs.functions]
        self._gaps = [1 - b for b in self._base]
        self._memo: dict[int, Fraction] = {}   # keyed by S u T

    @property
    def n(self) -> int:
        return self.vs.n

    def value(self, t_mask: int) -> Fraction:
        u = self.s_mask | t_mask
        hit = self._memo.get(u)
        if hit is not None:
            return hit
        total = ZERO
        for f, base, gap in zip(self.vs.functions, self._base, self._gaps):
            if gap > 0:
                total += (f.value(u) - base) / gap
        self._memo[u] = total
        return total


def alg_ag(vs: ValuationSet) -> tuple[Ordering, RankingTrace]:
    """Greedy ranking; ties go to the smallest element index."""
    n = vs.n
    perm: list[int] = []
    mask = 0
    score_log: list[Fraction] = []
    for _ in range(n):
        best_e, best_score = -1, None
        for e in range(n):
            if mask & (1 << e):
                continue
            score = residual_score(vs, mask, e)
            if best_score is None or score > best_score:
                best_e, best_score = e, score
        perm.append(best_e)
        score_log.append(best_score)
        mask |= 1 << best_e
    order = _ordering(vs, perm)
    uncovered_log = tuple(uncovered_at(order.cover_times, t)
                          for t in range(1, n + 1))
    return order, RankingTrace(uncovered_log, tuple(score_log))


def _uncovered_counts(vs: ValuationSet) -> list[int]:
    """#uncovered valuations per subset mask, for all 2^n masks."""
    n = vs.n
    counts = [0] * (1 << n)
    for f in vs.functions:
        for mask in range(1 << n):
            if f.value(mask) < 1:
                counts[mask] += 1
    return counts


def brute_force_ranking(vs: ValuationSet) -> Ordering:
    """Exact optimum of the sum of cover times over all orderings.

    The objective of an ordering equals sum over t of the number of
    valuations still uncovered after t-1 elements, which depends on prefix
    sets only; the DP below minimizes that chain sum over all 2^n prefix
    sets and therefore over all n! orderings. Reconstruction picks the
    smallest element index at every step, the lexicographically smallest
    optimal permutation.
    """
    n = vs.n
    if n > size_cap(RANKING_CAP):
        raise CapExceeded(f"brute_force_ranking capped at n={RANKING_CAP}")
    counts = _uncovered_counts(vs)
    full = (1 << n) - 1
    best = [0] * (1 << n)
    for mask in range(full, -1, -1):
        if counts[mask] == 0:
            continue  # monotone: all supersets covered too, future cost 0
        tail = min(best[mask | (1 << e)]
                   for e in range(n) if not mask & (1 << e))
        best[mask] = counts[mask] + tail
    perm: list[int] = []
    mask = 0
    while len(perm) < n:
        choice = None
        if counts[mask] == 0:
            choice = next(e for e in range(n) if not mask & (1 << e))
        else:
            target = best[mask] - counts[mask]
            for e in range(n):
                if not mask & (1 << e) and best[mask | (1 << e)] == target:
                    choice = e
                    break
        perm.append(choice)
        mask |= 1 << choice
    return _ordering(vs, perm)


def _ordering(vs: ValuationSet, perm: Sequence[int]) -> Ordering:
    """A full permutation with its cover times; every valuation reaches 1
    on the full set, so each gets a time."""
    cover = tuple(vs.first_cover((e, t) for t, e in enumerate(perm, start=1)))
    return Ordering(tuple(perm), cover, sum(cover))


def check_log_claim(fn, chain: Sequence[int]) -> Fraction:
    """Chain sum sum_k (f(S_k) - f(S_{k-1})) / (1 - f(S_{k-1})), 0/0 = 0.

    `chain` is a nested sequence of subset masks; the caller asserts the
    result against 1 + ln(1/delta) for delta the smallest nonzero marginal.
    """
    for a, b in zip(chain, chain[1:]):
        if a & ~b:
            raise ValueError("chain must be nested")
    total = ZERO
    for a, b in zip(chain, chain[1:]):
        fa = fn.value(a)
        gap = 1 - fa
        if gap == 0:
            continue  # numerator is 0 too for monotone f bounded by 1
        total += (fn.value(b) - fa) / gap
    return total


def checkpoint_base(alpha: Fraction, base_multiplier: int = 8) -> int:
    """Integer checkpoint unit ceil(multiplier * alpha).

    Rounding once here (rather than per level) keeps consecutive checkpoint
    gaps at exactly half the checkpoint value, which the quarter-decay
    argument needs; doubling an already-integral base loses nothing.
    """
    return math.ceil(alpha * base_multiplier)


def uncovered_at(cover_times: Sequence[int], t) -> tuple[int, ...]:
    """R(t): indices covered no earlier than t (cov >= t)."""
    return tuple(i for i, c in enumerate(cover_times) if c >= t)


def check_recurrence(trace: RankingTrace, opt: Ordering, alpha: Fraction,
                     base_multiplier: int = 8,
                     ) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Quarter-decay recurrence |R_j| <= |R_{j-1}|/4 + |R*_j| for all j >= 0.

    R_j counts valuations the greedy covers at index >= ceil(8 alpha) * 2^j
    (read off the trace's uncovered sets); R*_j counts valuations the optimum
    covers at index >= 2^j. Returns the verdict plus
    (j, |R_j|, |R_{j-1}|, |R*_j|) rows for reporting. Once both sides hit
    zero they stay zero, so scanning stops at the horizon.
    """
    base = checkpoint_base(alpha, base_multiplier)
    n = len(trace.uncovered)

    def r_size(t: int) -> int:
        return len(trace.uncovered[t - 1]) if t <= n else 0

    horizon = max(n, max(opt.cover_times))
    rows: list[tuple[int, int, int, int]] = []
    ok = True
    j = 0
    prev = 0  # |R_{-1}|
    while True:
        r_j = r_size(base * (1 << j))
        rstar_j = len(uncovered_at(opt.cover_times, 1 << j))
        rows.append((j, r_j, prev, rstar_j))
        if 4 * r_j > prev + 4 * rstar_j:
            ok = False
        if base * (1 << j) > horizon and (1 << j) > horizon:
            break
        prev = r_j
        j += 1
    return ok, rows
