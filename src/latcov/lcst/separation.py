"""Separation oracle for group-connectivity cut inequalities.

A fractional (x, y) must satisfy, for every group g, every A subset of g with
|A| = eta, and every edge cut B separating the root from g minus A:

    sum_{member leaf j in B} x_j + (k_g - eta) * sum_{other e in B} x_e
        >= (k_g - eta) * y_g

Choosing A is equivalent to choosing which |g| - eta members the cut must
separate, so for fixed eta the worst (A, B) pair is a minimum cut with bound
D = |g| - eta on the reduced tree (the ancestor closure of g), with member
leaf edges priced x_j and the rest priced (k_g - eta) * x_e.  Only
eta < k_g matters: beyond that the right-hand side is nonpositive.

Values may be Fractions, floats or ints.  The exact cut LP passes x and y
as int numerators over one common denominator: every quantity compared is
then scaled by the same positive factor, so the cut is the same, and the
returned cut value, bound and deficit are in those scaled units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .mincut import CutQuery, min_cut_with_exceptions


@dataclass(frozen=True)
class KcViolation:
    """A violated cut inequality, ready to be added as an LP row."""

    eta: int
    multiplier: int              # k_g - eta, the y coefficient
    leaf_cut: frozenset          # member leaf edges in B, coefficient 1
    inner_cut: frozenset         # remaining edges in B, coefficient k_g - eta
    cut_value: object
    bound: object                # (k_g - eta) * y_target
    deficit: object              # bound - cut_value, > tol


def reduced_tree(tree, members) -> tuple[int, ...]:
    """Edges (child vertices) on some root path of a member."""
    keep: set[int] = set()
    for v in members:
        u = v
        while u != tree.root and u not in keep:
            keep.add(u)
            u = tree.parent[u]
    return tuple(sorted(keep))

def separate_kc(tree, group, k_g, x: Mapping[int, object],
                y_target, tol=0) -> Optional[KcViolation]:
    """Most violated cut inequality for one group, or None.

    Scans eta = 0..k_g-1; returns the largest deficit, smallest eta on
    ties.  `x` maps edge ids (child vertices) to fractional values.
    """
    members = frozenset(group)
    if not 1 <= k_g <= len(members):
        raise ValueError("requirement must be between 1 and the group size")
    closure = reduced_tree(tree, members)
    edges = tuple((e, tree.parent[e]) for e in closure)
    best: Optional[KcViolation] = None
    for eta in range(k_g):
        mult = k_g - eta
        costs = tuple(x[e] if e in members else mult * x[e] for e in closure)
        value, witness = min_cut_with_exceptions(
            CutQuery(edges, costs, tree.root, len(members) - eta))
        rhs = mult * y_target
        deficit = rhs - value
        if deficit <= tol:
            continue
        if best is None or deficit > best.deficit:
            best = KcViolation(
                eta=eta,
                multiplier=mult,
                leaf_cut=frozenset(e for e in witness if e in members),
                inner_cut=frozenset(e for e in witness if e not in members),
                cut_value=value,
                bound=rhs,
                deficit=deficit,
            )
    return best
