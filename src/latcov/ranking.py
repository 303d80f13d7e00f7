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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import check_cap
from .instances.valuations import ResidualFunction, ValuationSet

RANKING_CAP = 8


@dataclass(frozen=True)
class Ordering:
    permutation: tuple[int, ...]
    cover_times: tuple[int, ...]   # per valuation, 1-based prefix index
    objective: int


def alg_ag(vs: ValuationSet) -> Ordering:
    """Greedy ranking: each step schedules the unscheduled element e of
    largest ResidualFunction(vs, S).value(1 << e), compared as its num;
    ties go to the smallest element index. Once everything is covered
    every score is 0, so the rest follow in index order."""
    n = vs.n
    perm: list[int] = []
    mask = 0
    for _ in range(n):
        residual = ResidualFunction(vs, mask)
        if not residual.uncovered:
            perm.extend(e for e in range(n) if not mask & (1 << e))
            break
        e = max((e for e in range(n) if not mask & (1 << e)),
                key=lambda e: residual.num(1 << e))
        perm.append(e)
        mask |= 1 << e
    return _ordering(vs, perm)


def uncovered_counts(vs: ValuationSet) -> list[int]:
    """#uncovered valuations per subset mask, for all 2^n masks."""
    n = vs.n
    counts = [0] * (1 << n)
    for f in vs.functions:
        for mask in range(1 << n):
            if f.num(mask) < f.den:
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
    check_cap("brute_force_ranking", n, RANKING_CAP)
    counts = uncovered_counts(vs)
    best = [0] * (1 << n)
    for mask in range((1 << n) - 1, -1, -1):
        if counts[mask] == 0:
            continue  # monotone: all supersets covered too, future cost 0
        tail = min(best[mask | (1 << e)]
                   for e in range(n) if not mask & (1 << e))
        best[mask] = counts[mask] + tail
    perm, mask = [], 0
    while len(perm) < n:
        free = [e for e in range(n) if not mask >> e & 1]
        e = min(free, key=lambda e: best[mask | 1 << e] if counts[mask] else 0)
        perm.append(e)
        mask |= 1 << e
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
    top, bottom = 0, 1   # the running sum as ints, over the gaps' lcm
    for a, b in zip(chain, chain[1:]):
        if a & ~b:
            raise ValueError("chain must be nested")
        base = fn.num(a)
        gap = fn.den - base
        if gap == 0:
            continue  # numerator is 0 too for monotone f bounded by 1
        lcm = math.lcm(bottom, gap)
        top = top * (lcm // bottom) + (fn.num(b) - base) * (lcm // gap)
        bottom = lcm
    return Fraction(top, bottom)


def checkpoint_base(alpha: Fraction) -> int:
    """Integer checkpoint unit ceil(8 alpha).

    Rounding once here (rather than per level) keeps consecutive checkpoint
    gaps at exactly half the checkpoint value, which the quarter-decay
    argument needs; doubling an already-integral base loses nothing.
    """
    return math.ceil(alpha * 8)


def uncovered_at(cover_times: Sequence[int], t) -> int:
    """|R(t)|: the number of valuations covered no earlier than t."""
    return sum(1 for c in cover_times if c >= t)


def check_decay(counts: Callable[[int, int], Sequence[tuple[int, int]]],
                base: int, horizon: int = 0,
                weights: Sequence[int] | None = None
                ) -> tuple[bool, list[tuple]]:
    """Quarter-decay check E|R_j| <= E|R_{j-1}|/4 + E|R*_j| for all j >= 0.

    The one level loop of every recurrence check. counts(base << j, 1 << j)
    gives one (R, R*) pair per run: the algorithm's uncovered count at time
    base * 2^j and the reference's at time 2^j; `weights` counts each run's
    copies (1 each by default). With R_{-1} = 0, ds and dq sum d = 4 R_j -
    R_{j-1} - 4 R*_j and d^2 as ints over the k runs; level j fails iff
    mean d > 3 se, squared and scaled by k^2 max(1, k-1): ds > 0 and ds^2
    max(1, k-1) > 9 (k dq - ds^2). For k = 1, dq = ds^2, so this is exactly
    4 R_j > R_{j-1} + 4 R*_j. The scan stops after the first level past
    `horizon` on both clocks with every count zero. Returns the verdict
    and rows (j, sum R_j, sum R_{j-1}, sum R*_j, ds, dq).
    """
    if base < 1:
        raise ValueError(f"checkpoint base must be >= 1, got {base}")
    ok, rows, sp = True, [], 0
    prev: Iterable[int] = itertools.repeat(0)    # R_{-1} = 0 in every run
    for j in itertools.count():
        pairs = counts(base << j, 1 << j)
        sr = ss = ds = dq = 0
        for (r, s), p, w in zip(pairs, prev, weights or itertools.repeat(1)):
            d = 4 * r - p - 4 * s
            wd = w * d
            sr, ss, ds, dq = sr + w * r, ss + w * s, ds + wd, dq + wd * d
        prev = [r for r, _ in pairs]
        rows.append((j, sr, sp, ss, ds, dq))
        k = sum(weights) if weights else len(pairs)
        if ds > 0 and ds * ds * max(1, k - 1) > 9 * (dq * k - ds * ds):
            ok = False
        if base << j > horizon and 1 << j > horizon and sr == ss == 0:
            return ok, rows
        sp = sr


def check_recurrence(order: Ordering, opt: Ordering, alpha: Fraction
                     ) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Quarter-decay recurrence |R_j| <= |R_{j-1}|/4 + |R*_j| for all j >= 0.

    R_j counts valuations the greedy covers at index >= ceil(8 alpha) * 2^j,
    R*_j those the optimum covers at index >= 2^j, both read off cover
    times. One run, so check_decay's verdict is exactly that; no cover
    index exceeds the horizon max(n, max opt cover time), so the scan
    stops at the first level past it. Rows are (j, |R_j|, |R_{j-1}|, |R*_j|).
    """
    def counts(t: int, t_star: int) -> list[tuple[int, int]]:
        return [(uncovered_at(order.cover_times, t),
                 uncovered_at(opt.cover_times, t_star))]

    ok, rows = check_decay(counts, checkpoint_base(alpha),
                           max(len(order.permutation), max(opt.cover_times)))
    return ok, [row[:4] for row in rows]
