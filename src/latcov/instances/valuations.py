"""Monotone submodular valuations on a small ground set.

Every valuation maps subsets of {0..n-1} (int bitmasks) to Fractions in
[0, 1] with f(full) = 1. Two concrete representations cover everything the
rest of the library needs:

* ``CoverFunction`` -- a weighted sum of truncated coverage terms
  f(S) = sum_t w_t * min(1, sum_{e in g_t cap S} u_{t,e}).
  The classic kinds (set cover, coverage with requirements, one group per
  function) are all instances with uniform unit credits u = 1/k.
* ``ExplicitFunction`` -- a value table over all 2^n subsets, in ints.

``ResidualFunction`` is the one residual valuation, f^S(T) = sum over f_i
uncovered at S of (f_i(S u T) - f_i(S)) / (1 - f_i(S)). The ranking greedy,
the budgeted path searches and the MLSC phases score with it; the
stochastic greedy takes its expectation over one element's draw.

Values are exact rationals throughout; there is no float path here.
Every valuation also exposes its values as ints over one fixed
denominator: ``num(mask)`` is f(mask) * ``den``. Comparisons inside the
library (the greedy argmaxes, the budgeted path searches, cover tests)
use ``num``; ``value(mask)`` is ``Fraction(num(mask), den)``, the same
Fraction the rational computation gives. A ``CoverFunction`` and a
``ResidualFunction`` memoize ``num`` per mask; the terms are frozen, so a
cached int is the one the computation would return again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import sub
from typing import Iterable, Iterator, Sequence

from ..errors import check_cap

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

    __slots__ = ("n", "terms", "den", "_items", "_memo")

    def __init__(self, n: int, terms: Sequence[CoverTerm]):
        self.n = n
        self.terms = tuple(terms)
        bad = [e for t in self.terms for e in t.members if not 0 <= e < n]
        if bad:
            raise ValueError(f"term member {bad[0]} out of range 0..{n - 1}")
        # int credits over cap_t = lcm(unit denominators), scaled over den;
        # _items: (mask, [(bit, credit)...], cap_t, scale_t, all-hit value)
        live = [t for t in self.terms if t.weight]
        caps = [math.lcm(*(u.denominator for u in t.units)) for t in live]
        den = self.den = math.lcm(*(t.weight.denominator * c
                                     for t, c in zip(live, caps)))
        self._items = []
        for t, cap in zip(live, caps):
            scale = t.weight.numerator * den // (t.weight.denominator * cap)
            pairs = [(1 << e, u.numerator * cap // u.denominator)
                     for e, u in zip(t.members, t.units)]
            whole = min(cap, sum(c for _, c in pairs))
            self._items.append((t.mask, pairs, cap, scale, scale * whole))
        self._memo: dict[int, int] = {}

    def num(self, mask: int) -> int:
        """f(mask) * den."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        for tmask, pairs, cap, scale, whole in self._items:
            hit = mask & tmask
            if hit == tmask:
                total += whole
            elif hit:
                credit = 0
                for bit, c in pairs:
                    if hit & bit:
                        credit += c
                total += scale * (credit if credit < cap else cap)
        self._memo[mask] = total
        return total

    def value(self, mask: int) -> Fraction:
        return Fraction(self.num(mask), self.den)


class ExplicitFunction:
    """Valuation given as a table over all 2^n subsets."""

    __slots__ = ("n", "den", "_nums")

    def __init__(self, n: int, table: Sequence[Fraction]):
        table = [Fraction(v) for v in table]
        den = math.lcm(*(v.denominator for v in table))
        self._fill(n, [v.numerator * (den // v.denominator) for v in table],
                   den)

    @classmethod
    def from_nums(cls, n: int, nums: Sequence[int], den: int):
        """The table nums[mask] / den over den // gcd(den, *nums), the lcm
        of the reduced denominators, as the table constructor has it."""
        fn = cls.__new__(cls)
        fn._fill(n, nums, den)
        return fn

    def _fill(self, n: int, nums: Sequence[int], den: int):
        if len(nums) != 1 << n:
            raise ValueError("table must have 2^n entries")
        g = math.gcd(den, *nums)
        self.n, self.den = n, den // g
        self._nums = tuple(x // g for x in nums) if g > 1 else tuple(nums)

    def num(self, mask: int) -> int:
        return self._nums[mask]

    def value(self, mask: int) -> Fraction:
        return Fraction(self._nums[mask], self.den)


class ResidualFunction:
    """Scaled residual T -> sum over f_i uncovered at S of
    (f_i(S u T) - f_i(S)) / (1 - f_i(S)).

    Monotone submodular whenever every f_i is; each uncovered valuation
    contributes at most 1, reached exactly when T completes it. As ints:
    with F_i, B_i the nums of f_i at S u T and at S and D_i its den, term i
    is (F_i - B_i) / (D_i - B_i), so num(T) sums (F_i - B_i) * (den // gap_i)
    over den = lcm of the gaps D_i - B_i (1 when all are covered).
    """

    __slots__ = ("s_mask", "den", "_active", "_memo")

    def __init__(self, vs: ValuationSet, s_mask: int):
        self.s_mask = s_mask
        active = []   # (f_i, B_i, D_i - B_i) for uncovered f_i
        for f in vs.functions:
            base = f.num(s_mask)
            if base < f.den:
                active.append((f, base, f.den - base))
        den = self.den = math.lcm(*(gap for _, _, gap in active))
        self._active = [(f.num, base, den // gap) for f, base, gap in active]
        self._memo: dict[int, int] = {}   # keyed by S u T

    @property
    def uncovered(self) -> int:
        return len(self._active)

    def num(self, t_mask: int) -> int:
        """value(t_mask) * den."""
        u = self.s_mask | t_mask
        hit = self._memo.get(u)
        if hit is not None:
            return hit
        total = 0
        for num, base, scale in self._active:
            total += (num(u) - base) * scale
        self._memo[u] = total
        return total

    def value(self, t_mask: int) -> Fraction:
        return Fraction(self.num(t_mask), self.den)


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
    check_cap("check_submodular", n, SUBMODULAR_CAP)
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

    def first_cover(self, steps: Iterable[tuple[int, int]],
                    cover: Sequence[int | None] | None = None,
                    mask: int = 0) -> list[int | None]:
        """First time each valuation reaches 1 along a sequence of steps.

        `steps` yields (point, time) pairs; each adds `point` to the set.
        A valuation never covered gets None. Stops pulling steps as soon
        as every valuation is covered, so a lazy generator is not advanced
        past full cover. `cover` and `mask`, if given, resume an earlier
        call: its result (copied, not changed) and the set its steps
        reached, so the steps continue that sequence.
        """
        cover = [None] * self.m if cover is None else list(cover)
        pending = [i for i, c in enumerate(cover) if c is None]
        for point, time in steps if pending else ():
            mask |= 1 << point
            still = []
            for i in pending:
                f = self.functions[i]
                if f.num(mask) == f.den:
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
        return cls(n, [CoverFunction(n, terms)], "coverage")

    @classmethod
    def multicoverage(cls, n: int, groups: Sequence[Sequence[int]],
                      reqs: Sequence[int]) -> "ValuationSet":
        """One f(S) = (1/N) * sum_i min(1, |S cap g_i| / k_i)."""
        if len(groups) != len(reqs):
            raise ValueError("groups/reqs length mismatch")
        w = Fraction(1, len(groups))
        terms = [uniform_term(w, g, k) for g, k in zip(groups, reqs)]
        return cls(n, [CoverFunction(n, terms)], "multicoverage")

    @classmethod
    def singlegroup(cls, n: int, groups: Sequence[Sequence[int]],
                    reqs: Sequence[int]) -> "ValuationSet":
        """One f_i per group: f_i(S) = min(1, |S cap g_i| / k_i)."""
        if len(groups) != len(reqs):
            raise ValueError("groups/reqs length mismatch")
        fns = [CoverFunction(n, [uniform_term(ONE, g, k)])
               for g, k in zip(groups, reqs)]
        return cls(n, fns, "singlegroup")

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


def flip_pairs(nums: list, n: int) -> Iterator[tuple[list, list]]:
    """Slices (lo, hi) of a 2^n-mask table pairing nums[m] with nums[m | 1
    << e] for every mask m without e: strided for low e, blocks for high."""
    for e in range(n):
        b = 1 << e
        if 2 * b * b <= len(nums):
            yield from ((nums[j::2 * b], nums[j + b::2 * b]) for j in range(b))
        else:
            yield from ((nums[s:s + b], nums[s + b:s + 2 * b])
                        for s in range(0, len(nums), 2 * b))


def min_nonzero_marginal(fn, n: int) -> Fraction:
    """Exhaustive smallest nonzero single-element marginal of one function,
    scanned as its ints over its one denominator."""
    check_cap("marginal enumeration", n, SUBMODULAR_CAP)
    ints = [fn.num(mask) for mask in range(1 << n)]
    gains = chain.from_iterable(map(sub, hi, lo)
                                for lo, hi in flip_pairs(ints, n))
    best = min(filter((0).__lt__, gains), default=None)
    if best is None:
        raise ValueError("function is constant")
    return Fraction(best, fn.den)
