"""Dependent rounding of the level LP into a stitched latency tour.

krs_round samples a root-connected edge set top-down so every edge keeps
its marginal exactly.  flow_adjust rebalances member-leaf fractions per
group through a tree max flow: contracted edges carry no cap, other
internal edges r_g * x_e, member leaves x_j, which is what makes the
sampled member counts concentrate.  level_tour runs one level end to end
(contract, adjust, scale to z = min(4x, 1), sample, Euler, weight gate)
and alg_lcst stitches the accepted level walks, falling back to one full
Euler tour when the last level still leaves a group uncovered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..errors import Infeasible
from ..instances.trees import GroupedTree
from ..instances.valuations import ValuationSet
from ..tour import LatencyTour
from .lp import FLOAT_TOL, LpSolution, solve_lp_lcst


def krs_round(tree: GroupedTree, z, seed) -> frozenset:
    """Sample a root subtree; edge e is kept with probability exactly z_e.

    Top-down: a root edge survives with probability z_e, any other edge
    with probability z_e / z_{pe} when its parent survived.  z must be
    monotone along root paths.  Returns the kept edge ids.

    Each draw is compared as ints: random() is k / 2^53, so it is below
    a / b iff k * b < a * 2^53.  Exact marginals give z_e / z_{pe} as
    (a_e * b_pe, b_e * a_pe); float marginals (the float LP mode) draw
    against their quotient as float division rounds it.
    """
    edges = tree.edges
    ratio = {e: z[e].as_integer_ratio() for e in edges}
    for e in edges:
        p = tree.parent[e]
        if p != tree.root and ratio[e][0] * ratio[p][1] > \
                ratio[p][0] * ratio[e][1]:
            raise ValueError("marginals must not exceed the parent edge's")
    rng = random.Random(f"krs:{seed}")
    picked: set[int] = set()
    for v in tree.topo_order():
        if v == tree.root:
            continue
        a, b = ratio[v]
        if a <= 0:
            continue
        p = tree.parent[v]
        if p != tree.root:
            if p not in picked:
                continue
            if type(z[v]) is float or type(z[p]) is float:
                a, b = (z[v] / z[p]).as_integer_ratio()
            else:
                a, b = a * ratio[p][1], b * ratio[p][0]
        if int(rng.random() * 9007199254740992.0) * b < a << 53:
            picked.add(v)
    return frozenset(picked)


def path_within(tree: GroupedTree, v: int, edges) -> bool:
    while v != tree.root:
        if v not in edges:
            return False
        v = tree.parent[v]
    return True


def residual_requirements(tree: GroupedTree, contracted):
    """Per group: members not yet covered by `contracted`, and how many of
    them are still owed.  A leaf counts as covered only when its entire
    root path is contracted."""
    covered = {j for j in tree.leaves if path_within(tree, j, contracted)}
    residual, owed = [], []
    for g, k in zip(tree.groups, tree.reqs):
        rem = tuple(j for j in g if j not in covered)
        residual.append(rem)
        owed.append(k - (len(g) - len(rem)))
    return tuple(residual), tuple(owed)


def flow_adjust(tree: GroupedTree, xbar, contracted, ybar, tol=0) -> dict:
    """Leaf fractions rebalanced by a per-group tree max flow.

    xbar maps edges to one level's LP values, contracted is the root-closed
    bought set, ybar holds the level's group values.  Internal edges keep
    xbar.  For each group still owing r > 0 members, its uncovered leaves
    receive their flow share under capacities: contracted internal edges
    unbounded, other internal edges r * xbar_e, member leaves xbar_j.
    A group whose flow misses r * ybar - tol means xbar violates one of
    its cut inequalities; that is an upstream solver bug, so raise.
    """
    contracted = set(contracted)
    residual, owed = residual_requirements(tree, contracted)
    adjusted = {e: xbar[e] for e in tree.edges}
    order = tree.topo_order()
    for gi in range(len(tree.groups)):
        r = owed[gi]
        if r <= 0:
            continue
        sinks = set(residual[gi])
        pot: dict[int, object] = {}
        for v in reversed(order):
            if v != tree.root and not tree.children[v]:
                pot[v] = xbar[v] if v in sinks else 0
            else:
                below = sum(pot[c] for c in tree.children[v])
                if v == tree.root or v in contracted:
                    pot[v] = below
                else:
                    pot[v] = min(below, r * xbar[v])
        total = pot[tree.root]
        if total < r * ybar[gi] - tol:
            raise Infeasible(
                f"group {gi} supports flow {total} below its requirement "
                f"{r} * {ybar[gi]}; the fractional input violates a cut "
                "inequality")
        grant = {tree.root: total}
        for v in order:
            room = grant[v] if v in grant else 0
            for c in tree.children[v]:
                take = pot[c] if pot[c] < room else room
                grant[c] = take
                room -= take
        for j in residual[gi]:
            adjusted[j] = grant[j]
    return adjusted


def level_marginals(tree: GroupedTree, sol: LpSolution, lv: int):
    """One level's (contracted set, adjusted fractions, sampling marginals)."""
    quarter = Fraction(1, 4) if sol.exact else 0.25
    one = Fraction(1) if sol.exact else 1.0
    x = sol.x[lv]
    contracted: set[int] = set()
    for v in tree.topo_order():
        if v == tree.root:
            continue
        p = tree.parent[v]
        if x[v] >= quarter and (p == tree.root or p in contracted):
            contracted.add(v)
    adjusted = flow_adjust(tree, x, contracted, sol.y[lv],
                           tol=0 if sol.exact else FLOAT_TOL)
    z: dict[int, object] = {}
    for v in tree.topo_order():
        if v == tree.root:
            continue
        zv = one if v in contracted else min(4 * adjusted[v], one)
        p = tree.parent[v]
        if p != tree.root and z[p] < zv:
            zv = z[p]
        z[v] = zv
    return frozenset(contracted), adjusted, z


def repeat_count(tree: GroupedTree, repeat_mult=6) -> int:
    g_max = max(len(g) for g in tree.groups)
    return math.ceil(repeat_mult * (3 + math.log2(g_max)))


def weight_cap(tree: GroupedTree, lv: int, weight_mult=192):
    g_max = max(len(g) for g in tree.groups)
    return weight_mult * (3 + math.log2(g_max)) * (1 << lv)


@dataclass(frozen=True)
class RoundingPhase:
    level: int
    contracted: frozenset
    samples: tuple             # one kept edge set per repetition
    selected: frozenset        # contracted plus every sample
    walk: tuple                # Euler tour of `selected`
    weight: int                # tour length; twice the selected weight
    accepted: bool             # weight within this level's cap


@dataclass(frozen=True)
class RoundingReport:
    phases: tuple
    fallback: bool             # full-tree Euler tour had to finish the job


def level_tour(tree: GroupedTree, sol: LpSolution, lv: int, seed,
               repeat_mult=6, weight_mult=192) -> RoundingPhase:
    """Run one level of the rounding scheme end to end."""
    contracted, _, z = level_marginals(tree, sol, lv)
    rng = random.Random(f"lcst-level:{seed}:{lv}")
    samples = tuple(krs_round(tree, z, rng.getrandbits(32))
                    for _ in range(repeat_count(tree, repeat_mult)))
    selected = contracted.union(*samples)
    walk = tuple(tree.euler_tour(set(selected)))
    weight = tree.walk_weight(walk)
    return RoundingPhase(
        level=lv, contracted=contracted, samples=samples, selected=selected,
        walk=walk, weight=weight,
        accepted=weight <= weight_cap(tree, lv, weight_mult))


def alg_lcst(tree: GroupedTree, seed, repeat_mult=6, weight_mult=192,
             lp: Optional[LpSolution] = None):
    """Level loop: sample each level, keep the walks that pass the weight
    gate, stop as soon as the stitched walk covers every group.  Returns
    (LatencyTour, RoundingReport)."""
    sol = lp if lp is not None else solve_lp_lcst(tree)
    vs = ValuationSet.singlegroup(tree.n, tree.groups, tree.reqs)
    walk: list[int] = [tree.root]
    visited = 1 << tree.root
    phases: list[RoundingPhase] = []
    covered = False
    for lv in range(sol.levels + 1):
        ph = level_tour(tree, sol, lv, seed, repeat_mult, weight_mult)
        phases.append(ph)
        if ph.accepted and len(ph.walk) > 1:
            walk.extend(ph.walk[1:])
            for v in ph.walk:
                visited |= 1 << v
        # a group is covered once k of its members are visited: f = 1
        if all(f.num(visited) == f.den for f in vs.functions):
            covered = True
            break
    fallback = not covered
    if fallback:
        walk.extend(tree.euler_tour()[1:])
    tour = LatencyTour.from_walk(tree.tree_metric(), vs, walk)
    report = RoundingReport(tuple(phases), fallback)
    return tour, report
