"""Stochastic scheduling instances: elements realize random domain points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .valuations import ValuationSet

Support = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class StochasticInstance:
    """Independent elements with integer durations over a finite domain.

    Element j runs for lengths[j] time units and realizes one domain point
    drawn from supports[j] (pairs of (point, probability), probabilities
    summing to one). Valuations are monotone submodular functions over
    subsets of the domain.
    """

    domain: int
    supports: tuple[Support, ...]
    lengths: tuple[int, ...]
    valuations: ValuationSet

    def __post_init__(self):
        if not self.supports:
            raise ValueError("supports must name at least one element, "
                             "got none")
        if self.valuations.n != self.domain:
            raise ValueError("valuations must live on the element domain")
        if len(self.supports) != len(self.lengths):
            raise ValueError("supports/lengths length mismatch")
        for supp in self.supports:
            if not supp:
                raise ValueError("empty support")
            pts = [b for b, _ in supp]
            if pts != sorted(set(pts)):
                raise ValueError("support points must be sorted and distinct")
            if any(not 0 <= b < self.domain for b in pts):
                raise ValueError("support point out of domain")
            if any(p <= 0 for _, p in supp) or sum(p for _, p in supp) != 1:
                raise ValueError("probabilities must be positive and sum to 1")
        for length in self.lengths:
            if length < 1 or length != int(length):
                raise ValueError("lengths must be positive integers")

    @property
    def n(self) -> int:
        return len(self.supports)

    @cached_property
    def support_points(self) -> tuple[frozenset[int], ...]:
        """Each element's support points, built once for outcome checks."""
        return tuple(frozenset(b for b, _ in supp) for supp in self.supports)

    @cached_property
    def int_weights(self) -> tuple[int, tuple[tuple[int, int, tuple], ...]]:
        """The stochastic kernels' ints, built once: (T, per element
        (d_e, w_e, ((1 << b, c_b), ...))). d_e is the lcm of element e's
        probability denominators, c_b = p_b * d_e for each support point
        b, T the lcm of d_e * len_e over elements and w_e = T / (d_e len_e),
        so p_b / len_e = w_e * c_b / T."""
        dens = [math.lcm(*(p.denominator for _, p in supp))
                for supp in self.supports]
        total = math.lcm(*(d * int(ln) for d, ln in zip(dens, self.lengths)))
        return total, tuple(
            (d, total // (d * int(ln)),
             tuple((1 << b, p.numerator * (d // p.denominator))
                   for b, p in supp))
            for d, ln, supp in zip(dens, self.lengths, self.supports))

    @property
    def total_length(self) -> int:
        """Duration of any complete schedule; the cover time assigned to
        valuations that no realization ever satisfies."""
        return sum(self.lengths)
