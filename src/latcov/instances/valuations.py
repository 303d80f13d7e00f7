"""Monotone submodular valuations on a small ground set.

Every valuation maps subsets of {0..n-1} (int bitmasks) to Fractions in
[0, 1] with f(full) = 1. Two concrete representations cover everything the
rest of the library needs:

* ``CoverFunction`` -- a weighted sum of truncated coverage terms
  f(S) = sum_t w_t * min(1, sum_{e in g_t cap S} u_{t,e}).
  The classic kinds (set cover, coverage with requirements, one group per
  function) are all instances with uniform unit credits u = 1/k.
* ``ExplicitFunction`` -- a value table over all 2^n subsets.

Values are exact rationals throughout; there is no float path here.
A ``CoverFunction`` and the residual valuations built on it memoize their
values per mask; the terms are frozen, so a cached value is the exact
Fraction the computation would return again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..errors import CapExceeded, size_cap
from ..sets import bits

ZERO = Fraction(0)
ONE = Fraction(1)

SUBMODULAR_CAP = 12


@dataclass(frozen=True)
class CoverTerm:
    """One truncated coverage term: min(1, sum of unit credits present)."""

    weight: Fraction
    members: tuple[int, ...]      # sorted, distinct
    units: tuple[Fraction, ...]   # credit per member, aligned with members

    def __post_init__(self):
        if len(self.members) != len(self.units):
            raise ValueError("members/units length mismatch")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and distinct")
        if self.weight < 0 or any(u <= 0 for u in self.units):
            raise ValueError("weights must be >= 0 and units > 0")

    @property
    def mask(self) -> int:
        m = 0
        for e in self.members:
            m |= 1 << e
        return m


class CoverFunction:
    """Weighted truncated coverage; monotone submodular by construction."""

    __slots__ = ("n", "terms", "_items", "_full", "_memo")

    def __init__(self, n: int, terms: Sequence[CoverTerm]):
        self.n = n
        self.terms = tuple(terms)
        # (mask, [(bit, unit)...], saturates_when_full) per term
        self._items = []
        for t in self.terms:
            if t.members and t.members[-1] >= n:
                raise ValueError("term member out of range")
            pairs = [(1 << e, u) for e, u in zip(t.members, t.units)]
            self._items.append((t.mask, pairs, sum(t.units) >= 1))
        self._full = (1 << n) - 1
        self._memo: dict[int, Fraction] = {}

    def value(self, mask: int) -> Fraction:
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        total = ZERO
        for term, (tmask, pairs, sat) in zip(self.terms, self._items):
            if term.weight == 0:
                continue
            hit = mask & tmask
            if hit == tmask and sat:
                total += term.weight
                continue
            credit = ZERO
            for bit, unit in pairs:
                if hit & bit:
                    credit += unit
            total += term.weight * (credit if credit < 1 else ONE)
        self._memo[mask] = total
        return total


class ExplicitFunction:
    """Valuation given as a table over all 2^n subsets."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: Sequence[Fraction]):
        if len(table) != 1 << n:
            raise ValueError("table must have 2^n entries")
        self.n = n
        self.table = tuple(Fraction(v) for v in table)

    def value(self, mask: int) -> Fraction:
        return self.table[mask]


def uniform_term(weight: Fraction, members: Sequence[int], k: int) -> CoverTerm:
    """min(1, |S cap members| / k) scaled by `weight`."""
    members = tuple(sorted(set(members)))
    if not 1 <= k <= len(members):
        raise ValueError("requirement k must be in 1..|members|")
    unit = Fraction(1, k)
    return CoverTerm(weight, members, (unit,) * len(members))


def check_submodular(fn, n: int) -> bool:
    """True iff fn is monotone and submodular on all of 2^[n].

    Uses the local characterization (single-element monotonicity plus
    diminishing returns on element pairs), which is equivalent to the
    definition over all nested pairs A subset of B. Exhaustive: capped.
    """
    if n > size_cap(SUBMODULAR_CAP):
        raise CapExceeded(f"check_submodular capped at n={SUBMODULAR_CAP}")
    vals = [fn.value(mask) for mask in range(1 << n)]
    for mask in range(1 << n):
        base = vals[mask]
        for i in range(n):
            bi = 1 << i
            if mask & bi:
                continue
            gain_i = vals[mask | bi] - base
            if gain_i < 0:
                return False
            for j in range(i + 1, n):
                bj = 1 << j
                if mask & bj:
                    continue
                if gain_i < vals[mask | bi | bj] - vals[mask | bj]:
                    return False
    return True


class ValuationSet:
    """A family f_1..f_m of monotone submodular valuations on {0..n-1}.

    Invariants enforced on construction: each f_i(full) = 1 and
    f_i(empty) < 1. `epsilon` lower-bounds every nonzero marginal gain of
    every function; the closed-form kinds compute it analytically, explicit
    tables exhaustively, and reductions may pass their own analytic value.
    """

    KINDS = ("coverage", "multicoverage", "singlegroup", "explicit", "wtc")

    def __init__(self, n: int, functions: Sequence, kind: str,
                 epsilon: Fraction | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if not functions:
            raise ValueError("need at least one valuation")
        self.n = n
        self.functions = tuple(functions)
        self.kind = kind
        full = (1 << n) - 1
        for f in self.functions:
            if f.value(full) != 1:
                raise ValueError("every valuation must reach exactly 1 on the full set")
            if f.value(0) >= 1:
                raise ValueError("valuations must start uncovered")
        self.epsilon = Fraction(epsilon) if epsilon is not None else compute_epsilon(self)
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")

    @property
    def m(self) -> int:
        return len(self.functions)

    @property
    def alpha(self) -> Fraction:
        return alpha_from_epsilon(self.epsilon)

    def first_cover(self, steps: Iterable[tuple[int, int]]
                    ) -> list[int | None]:
        """First time each valuation reaches 1 along a sequence of steps.

        `steps` yields (point, time) pairs; each adds `point` to the set.
        A valuation never covered gets None. Stops pulling steps as soon
        as every valuation is covered, so a lazy generator is not advanced
        past full cover.
        """
        cover: list[int | None] = [None] * self.m
        pending = list(range(self.m))
        mask = 0
        for point, time in steps:
            mask |= 1 << point
            still = []
            for i in pending:
                if self.functions[i].value(mask) == 1:
                    cover[i] = time
                else:
                    still.append(i)
            pending = still
            if not pending:
                break
        return cover

    # ---- constructors for the classic kinds -------------------------------

    @classmethod
    def coverage(cls, n: int, groups: Sequence[Sequence[int]]) -> "ValuationSet":
        """Set-cover style: one f(S) = (1/N) * sum_i min(1, |S cap g_i|)."""
        groups = [tuple(sorted(set(g))) for g in groups]
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be nonempty")
        w = Fraction(1, len(groups))
        terms = [uniform_term(w, g, 1) for g in groups]
        return cls(n, [CoverFunction(n, terms)], "coverage", Fraction(1, len(groups)))

    @classmethod
    def multicoverage(cls, n: int, groups: Sequence[Sequence[int]],
                      reqs: Sequence[int]) -> "ValuationSet":
        """One f(S) = (1/N) * sum_i min(1, |S cap g_i| / k_i)."""
        if len(groups) != len(reqs):
            raise ValueError("groups/reqs length mismatch")
        w = Fraction(1, len(groups))
        terms = [uniform_term(w, g, k) for g, k in zip(groups, reqs)]
        eps = Fraction(1, len(groups) * max(reqs))
        return cls(n, [CoverFunction(n, terms)], "multicoverage", eps)

    @classmethod
    def singlegroup(cls, n: int, groups: Sequence[Sequence[int]],
                    reqs: Sequence[int]) -> "ValuationSet":
        """One f_i per group: f_i(S) = min(1, |S cap g_i| / k_i)."""
        if len(groups) != len(reqs):
            raise ValueError("groups/reqs length mismatch")
        fns = [CoverFunction(n, [uniform_term(ONE, g, k)])
               for g, k in zip(groups, reqs)]
        return cls(n, fns, "singlegroup", Fraction(1, max(reqs)))

    @classmethod
    def explicit(cls, n: int, tables: Sequence[Sequence[Fraction]]) -> "ValuationSet":
        fns = [ExplicitFunction(n, t) for t in tables]
        return cls(n, fns, "explicit")


def compute_epsilon(vs: ValuationSet) -> Fraction:
    """Smallest nonzero marginal increase of any function in the set.

    Closed forms for the coverage kinds; the exhaustive single-element
    sweep of `min_nonzero_marginal` for explicit tables and generic
    weighted-coverage sets (capped). Single-element marginals suffice: a
    nonzero marginal over nested sets telescopes into single-element steps,
    at least one of which is nonzero.
    """
    if vs.kind == "coverage":
        return Fraction(1, len(vs.functions[0].terms))
    if vs.kind == "multicoverage":
        # uniform units are 1/k exactly, so k is the unit's denominator
        f = vs.functions[0]
        kmax = max(t.units[0].denominator for t in f.terms)
        return Fraction(1, len(f.terms) * kmax)
    if vs.kind == "singlegroup":
        kmax = max(f.terms[0].units[0].denominator for f in vs.functions)
        return Fraction(1, kmax)
    return min(min_nonzero_marginal(f, vs.n) for f in vs.functions)


def alpha_from_epsilon(epsilon: Fraction) -> Fraction:
    """Rational upper bound on 1 + ln(1/epsilon), tight to 1e-9.

    Rounded up at 1e-9 with a one-billionth guard term so the result is
    certainly >= the exact real value despite float log error. The log is
    taken of numerator and denominator separately: `math.log` accepts ints
    of any size, so a tiny epsilon such as 1/10^400 does not overflow.
    """
    x = 1.0 + math.log(epsilon.denominator) - math.log(epsilon.numerator)
    return Fraction(math.ceil(x * 10**9) + 1, 10**9)


def min_nonzero_marginal(fn, n: int) -> Fraction:
    """Exhaustive smallest nonzero single-element marginal of one function."""
    if n > size_cap(SUBMODULAR_CAP):
        raise CapExceeded("marginal enumeration capped at n=12")
    best: Fraction | None = None
    for mask in range(1 << n):
        base = fn.value(mask)
        for e in range(n):
            if mask & (1 << e):
                continue
            gain = fn.value(mask | (1 << e)) - base
            if gain > 0 and (best is None or gain < best):
                best = gain
    if best is None:
        raise ValueError("function is constant")
    return best
