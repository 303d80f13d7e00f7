"""Adaptive ranking of stochastic elements with explicit distributions.

Elements realize one domain point each when scheduled, observed only after
committing the element's full length. The greedy scores an unscheduled
element by the expected residual gain of its realization per unit length;
independence makes conditioning on the observed prefix vacuous, so the
expectation runs over the element's own distribution and is exact.

A policy is a rule on knowledge states (scheduled set, realized set), both
bitmasks, and a pure function of them: it names the next element, or None
to stop. Replay asks it state by state along one outcome vector until it
stops or everything is covered. The runs form a tree on the points drawn at
the visited elements, which a caller replaying many outcomes keeps per
policy (policy_cover_times); each node carries the cover times reached at
it, and a child adds its one step to its parent's. Sampling loops replay
each distinct outcome vector once per block of samples (outcome_tally).
One memoized recursion over states gives a policy's exact expected cost
(evaluate_policy) and, minimizing over the next element, the optimal policy
(optimal_adaptive). That space is exponential, so both are capped very
small; past the cap the `wssr` command samples greedy runs. greedy_policy
computes its rule lazily, one cached state at a time, so it has no size
cap. The scores and the recursion sum ints over the instance's
int_weights and make a Fraction only of the value they hand back.

Cover times are clock times (prefix sums of lengths). A valuation no
realization satisfies pays the full schedule length, the maximum time any
schedule can reach.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .errors import CapExceeded, size_cap
from .instances.stoch import StochasticInstance, Support
from .instances.valuations import (ONE, ZERO, CoverFunction, CoverTerm,
                                   ResidualFunction, ValuationSet)
from .ranking import check_decay, checkpoint_base, uncovered_at

ADAPTIVE_ELEMENT_CAP = 4
ADAPTIVE_SUPPORT_CAP = 3
OUTCOME_BLOCK = 4096   # samples outcome_tally counts at once

# (scheduled mask, realized mask) -> next element, or None to stop
AdaptivePolicy = Callable[[int, int], Optional[int]]


@dataclass(frozen=True)
class RealizedSchedule:
    """One complete run: elements in order and cover times."""

    order: tuple[int, ...]        # elements in scheduling order
    cover_times: tuple[int, ...]  # per valuation; horizon if never covered
    objective: int


def sto_residual_score(inst: StochasticInstance, scheduled: int,
                       realized: int, e: int,
                       residual: Optional[ResidualFunction] = None
                       ) -> Fraction:
    """Expected residual gain of element e, per unit of its length.

    scheduled is a bitmask over elements, realized a bitmask over domain
    points already drawn. Exact: sums the element's explicit distribution
    as one int over inst.int_weights, w_e * sum_b c_b * residual.num(b)
    over residual.den * T, and makes one Fraction of it.
    residual, if given, must be ResidualFunction(inst.valuations,
    realized); callers scoring many elements at one state pass one.
    """
    if scheduled & (1 << e):
        raise ValueError("element already scheduled")
    if residual is None:
        residual = ResidualFunction(inst.valuations, realized)
    total, weights = inst.int_weights
    _, w, pairs = weights[e]
    return Fraction(w * sum([c * residual.num(bit) for bit, c in pairs]),
                    residual.den * total)


def outcome_tally(inst: StochasticInstance, rng: random.Random,
                  samples: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """`samples` independent realizations as (outcome vector, count) pairs,
    each distinct vector once per block of OUTCOME_BLOCK samples in
    first-draw order; memory is one block's. An element takes the first
    support point whose running float sum of probabilities exceeds its
    rng.random() (the last point if round-off leaves the draw past it), in
    the per-sample loop's order: sample by sample, element by element."""
    tables = [(list(accumulate(float(p) for _, p in supp)),
               tuple(b for b, _ in supp) + (supp[-1][0],))
              for supp in inst.supports]
    for start in range(0, samples, OUTCOME_BLOCK):
        yield from Counter([
            tuple([points[bisect_right(sums, rng.random())]
                   for sums, points in tables])
            for _ in range(min(OUTCOME_BLOCK, samples - start))]).items()


def sample_outcome(inst: StochasticInstance, rng: random.Random
                   ) -> tuple[int, ...]:
    """One independent realization per element."""
    return next(outcome_tally(inst, rng, 1))[0]


def _node(inst: StochasticInstance, policy: AdaptivePolicy, scheduled: int,
          realized: int, clock: int, cover: list, path: tuple
          ) -> tuple | RealizedSchedule:
    """The run-tree node at a state whose cover times so far are cover:
    inner while anything is uncovered and the policy goes on, else a leaf."""
    e = policy(scheduled, realized) if None in cover else None
    if e is not None:
        return e, {}, scheduled, realized, clock, cover, path
    order = []
    while path:
        e, path = path
        order.append(e)
    times = tuple(inst.total_length if c is None else c for c in cover)
    return RealizedSchedule(tuple(reversed(order)), times, sum(times))


def _run(inst: StochasticInstance, policy: AdaptivePolicy,
         outcome: Sequence[int], runs: Optional[dict]) -> RealizedSchedule:
    """The policy's run on an outcome vector, walked down its run tree and
    grown where missing; a drawn point is checked before its node is stored.
    runs[None] is the root, an inner node (element, children by point,
    scheduled, realized, clock, cover times so far, path), a leaf the
    RealizedSchedule of its path, and a path (element, earlier path) or ().
    A new node resumes its parent's cover times with its one step, so a
    run of depth k makes O(k) cover checks."""
    runs = {} if runs is None else runs
    node = runs.get(None) or runs.setdefault(None, _node(
        inst, policy, 0, 0, 0, inst.valuations.first_cover(()), ()))
    while type(node) is tuple:
        e, kids, scheduled, realized, clock, cover, path = node
        b = outcome[e]
        child = kids.get(b)
        if child is None:
            if b not in inst.support_points[e]:
                raise ValueError(f"outcome {b} not in element {e}'s support")
            clock += inst.lengths[e]
            child = kids[b] = _node(
                inst, policy, scheduled | 1 << e, realized | 1 << b, clock,
                inst.valuations.first_cover(((b, clock),), cover, realized),
                (e, path))
        node = child
    return node


def alg_ag_sto(inst: StochasticInstance, outcome: Sequence[int],
               greedy: Optional[AdaptivePolicy] = None,
               runs: Optional[dict] = None) -> RealizedSchedule:
    """Adaptive greedy: argmax expected residual score, smallest index on
    ties, observing each draw before the next choice.

    outcome is a full realization vector, one support point per element;
    the run is greedy_policy replayed on it, a deterministic function of
    the instance and the vector. greedy, if given, must be
    greedy_policy(inst), and runs, if given, that rule's run tree (see
    policy_cover_times); callers replaying many outcomes pass one of each
    so cached states are scored, and repeated paths walked, once.
    """
    outcome = tuple(outcome)
    if len(outcome) != inst.n:
        raise ValueError("outcome vector must cover every element")
    if not all(map(frozenset.__contains__, inst.support_points, outcome)):
        for e, b in enumerate(outcome):
            if b not in inst.support_points[e]:
                raise ValueError(f"outcome {b} not in element {e}'s support")
    if greedy is None:
        greedy = greedy_policy(inst)
    return _run(inst, greedy, outcome, runs)


def _check_adaptive_cap(inst: StochasticInstance):
    n_cap = size_cap(ADAPTIVE_ELEMENT_CAP)
    s_cap = size_cap(ADAPTIVE_SUPPORT_CAP)
    if inst.n > n_cap or max(len(s) for s in inst.supports) > s_cap:
        states = math.prod(1 + len(s) for s in inst.supports)
        raise CapExceeded(
            f"exact adaptive evaluation needs <= {n_cap} elements with "
            f"supports <= {s_cap}; this instance has about {states} "
            f"knowledge states")


def _expected(inst: StochasticInstance,
              policy: Optional[AdaptivePolicy] = None
              ) -> tuple[Callable[[int, int], tuple[int, Optional[int]]], int]:
    """(solve, D): solve is memoized (scheduled, realized) -> (D times the
    expected remaining cost, element taken or None at a stop), an int.

    A step costs length * #uncovered plus the expectation over the
    element's support; a stop charges each uncovered valuation the rest of
    the horizon, total_length - clock. The sum is the expected total cover
    time, a function of the state alone since elements are independent.
    The element taken is the policy's choice or, with no policy, the
    cheapest unscheduled one while anything is uncovered (ties to the
    smallest index), which is backward induction for the optimum.
    D = prod d_e over inst.int_weights. A state's cost times the product
    of the unscheduled elements' d_e is an int, so its value is an int
    divisible by d_e for every scheduled e, and a step on e adds
    (sum_b c_b * value(child_b)) // d_e exactly.
    """
    _check_adaptive_cap(inst)
    functions, lengths = inst.valuations.functions, inst.lengths
    weights = inst.int_weights[1]
    scale = math.prod(d for d, _, _ in weights)

    @functools.cache
    def solve(scheduled: int, realized: int) -> tuple[int, Optional[int]]:
        uncovered = sum(1 for f in functions if f.num(realized) < f.den)

        def step(e: int) -> int:
            d, _, pairs = weights[e]
            return lengths[e] * uncovered * scale + sum(
                c * solve(scheduled | (1 << e), realized | bit)[0]
                for bit, c in pairs) // d

        if policy is not None:
            e = policy(scheduled, realized)
            options = () if e is None else (e,)
        else:
            options = [e for e in range(inst.n)
                       if uncovered and not scheduled & (1 << e)]
        if options:
            return min(((step(e), e) for e in options), key=itemgetter(0))
        left = sum(ln for e, ln in enumerate(lengths)
                   if not scheduled & (1 << e))
        return uncovered * left * scale, None

    return solve, scale


def optimal_adaptive(inst: StochasticInstance
                     ) -> tuple[AdaptivePolicy, Fraction]:
    """Exact minimum expected total cover time, with an optimal policy.

    _expected without a policy; stopping early is never cheaper than the
    horizon charge. The policy reads the choice off the recursion's memo.
    """
    solve, scale = _expected(inst)
    total, _ = solve(0, 0)
    return ((lambda scheduled, realized: solve(scheduled, realized)[1]),
            Fraction(total, scale))


def greedy_policy(inst: StochasticInstance) -> AdaptivePolicy:
    """alg_ag_sto's choice as a rule on knowledge states.

    Stops once every valuation is covered; otherwise picks the unscheduled
    element of largest sto_residual_score, smallest index on ties, and
    None once every element is scheduled. Each state is computed when
    first asked and cached, so only the states a caller visits cost
    anything and there is no size cap. One ResidualFunction per state
    serves the scores of all its elements.
    """

    @functools.cache
    def rule(scheduled: int, realized: int) -> Optional[int]:
        residual = ResidualFunction(inst.valuations, realized)
        if not residual.uncovered:
            return None
        return max((e for e in range(inst.n) if not scheduled & (1 << e)),
                   key=functools.partial(sto_residual_score, inst,
                                         scheduled, realized,
                                         residual=residual),
                   default=None)

    return rule


def policy_cover_times(inst: StochasticInstance, policy: AdaptivePolicy,
                       outcome: Sequence[int], runs: Optional[dict] = None
                       ) -> tuple[int, ...]:
    """Replay a policy against one fixed realization vector. runs, if given,
    is its run tree: a dict, empty at first, passed for it and no other."""
    return _run(inst, policy, outcome, runs).cover_times


def evaluate_policy(inst: StochasticInstance,
                    policy: AdaptivePolicy) -> Fraction:
    """Exact expected total cover time of a policy: _expected's root,
    under the same size caps as optimal_adaptive."""
    solve, scale = _expected(inst, policy)
    return Fraction(solve(0, 0)[0], scale)


def check_sto_recurrence(inst: StochasticInstance, policy: AdaptivePolicy,
                         samples: int, seed: int,
                         greedy: Optional[AdaptivePolicy] = None):
    """Monte-Carlo checkpoint decay of the greedy against a reference policy.

    Couples both runs to the same sampled outcomes; the greedy side replays
    greedy_policy, which gives alg_ag_sto's cover times on every outcome
    vector. R_j counts valuations the greedy covers at clock time
    >= ceil(8 alpha) * 2^j, R*_j those the policy covers at time >= 2^j.
    Each distinct (greedy, reference) pair of cover times is one run of
    check_decay, weighted by its sample count. A level passes when the
    empirical means satisfy E[R_j] <= E[R_{j-1}]/4 + E[R*_j] within three
    standard errors of the per-outcome difference, decided on integer sums.
    No clock time, the never-covered charge included, exceeds the horizon
    total_length, so the scan stops at the first level past it. Returns
    (ok, rows) with rows of (j, mean R_j, mean R_{j-1}, mean R*_j, stderr
    of the difference), floats computed from check_decay's sums.
    greedy, if given, must be greedy_policy(inst), as for alg_ag_sto.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(f"wssr-mc:{seed}")
    if greedy is None:
        greedy = greedy_policy(inst)
    tally, greedy_runs, policy_runs = Counter(), {}, {}
    for w, k in outcome_tally(inst, rng, samples):
        tally[policy_cover_times(inst, greedy, w, greedy_runs),
              policy_cover_times(inst, policy, w, policy_runs)] += k

    def counts(t: int, t_star: int) -> list[tuple[int, int]]:
        return [(uncovered_at(ct, t), uncovered_at(ct_star, t_star))
                for ct, ct_star in tally]

    ok, sums = check_decay(counts, checkpoint_base(inst.valuations.alpha),
                           inst.total_length, list(tally.values()))
    rows = []
    dof = max(1, samples - 1)
    for j, r_j, prev, r_star, ds, dq in sums:
        mean_d = ds / samples
        var = (dq / samples - mean_d ** 2) * samples / dof
        se = math.sqrt(max(0.0, var) / samples) / 4  # d was scaled by 4
        rows.append((j, r_j / samples, prev / samples, r_star / samples, se))
    return ok, rows


def _canon_support(supp) -> Support:
    merged: dict[int, Fraction] = {}
    for b, p in supp:
        merged[b] = merged.get(b, ZERO) + Fraction(p)
    return tuple(sorted((b, p) for b, p in merged.items() if p > 0))


def reduce_ssc(domain: int, sets, supports, lengths) -> StochasticInstance:
    """Hitting every target subset at minimum expected cost.

    One valuation averaging min(1, |A cap S|) over the collection, so value
    1 means exactly that each target set is hit; epsilon is 1 / #sets.
    """
    vs = ValuationSet.coverage(domain, sets)
    return StochasticInstance(domain, tuple(_canon_support(s) for s in supports),
                              tuple(lengths), vs)


def reduce_filter(queries, selectivities, lengths,
                  latency: bool = False) -> StochasticInstance:
    """Conjunctive queries over independent True/False filters.

    Filter j realizes point 2j (True) with probability selectivities[j],
    else point 2j+1 (False). A query's term saturates on any one False
    filter or on all of its filters True, exactly when the conjunction is
    determined. latency=False builds the single averaged valuation
    (minimum expected evaluation cost); latency=True builds one valuation
    per query (minimum average time to answer).
    """
    n = len(selectivities)
    if len(lengths) != n:
        raise ValueError("one length per filter")
    queries = [tuple(sorted(set(q))) for q in queries]
    if not queries or any(not q for q in queries):
        raise ValueError("queries must be nonempty filter subsets")
    for q in queries:
        if q[0] < 0 or q[-1] >= n:
            raise ValueError("query names an unknown filter")
    domain = 2 * n
    supports = []
    for j, p in enumerate(selectivities):
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ValueError("selectivities must lie in [0, 1]")
        if p == 1:
            supports.append(((2 * j, ONE),))
        elif p == 0:
            supports.append(((2 * j + 1, ONE),))
        else:
            supports.append(((2 * j, p), (2 * j + 1, 1 - p)))

    def term(q, weight):
        members, units = [], []
        for j in q:
            members.extend((2 * j, 2 * j + 1))
            units.extend((Fraction(1, len(q)), ONE))  # True credit, False credit
        return CoverTerm(weight, tuple(members), tuple(units))

    q_max = max(len(q) for q in queries)
    if latency:
        fns = [CoverFunction(domain, [term(q, ONE)]) for q in queries]
        eps = Fraction(1, q_max)
    else:
        w = Fraction(1, len(queries))
        fns = [CoverFunction(domain, [term(q, w) for q in queries])]
        eps = Fraction(1, len(queries) * q_max)
    vs = ValuationSet(domain, fns, "wtc", eps)
    return StochasticInstance(domain, tuple(supports), tuple(lengths), vs)


def reduce_sgmssc(domain: int, sets, requirements, supports,
                  lengths) -> StochasticInstance:
    """Each target set completes once `requirement` of its points are
    realized: one valuation min(1, |A cap S| / k(S)) per set, and epsilon
    is 1 over the largest requirement."""
    vs = ValuationSet.singlegroup(domain, sets, requirements)
    return StochasticInstance(domain, tuple(_canon_support(s) for s in supports),
                              tuple(lengths), vs)
