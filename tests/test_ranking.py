from fractions import Fraction

import pytest

from latcov.instances import (CoverFunction, ValuationSet, check_submodular,
                              random_instance)
from latcov.instances.generators import random_valuations
from latcov.mlsc import ResidualValuation
from latcov.ranking import (ResidualFunction, alg_ag, brute_force_ranking,
                            check_log_claim, check_recurrence, residual_score)
from util import pairwise_submodular, perm_optimum


def half_cover(n):
    """Single valuation min(|S|/2, 1) over n elements."""
    return ValuationSet.singlegroup(n, [list(range(n))], [2])


def test_residual_score_fresh_element():
    vs = half_cover(4)
    assert residual_score(vs, 0, 2) == Fraction(1, 2)


def test_residual_score_completing_scores_one():
    vs = half_cover(4)
    assert residual_score(vs, 0b0001, 1) == 1


def test_residual_score_skips_covered():
    # f1 covered after one element, f2 needs all of {2,3}
    vs = ValuationSet.singlegroup(4, [[0, 1], [2, 3]], [1, 2])
    s = 0b0001  # f1 done
    assert residual_score(vs, s, 1) == 0
    assert residual_score(vs, s, 2) == Fraction(1, 2)


def test_residual_score_rejects_scheduled():
    with pytest.raises(ValueError):
        residual_score(half_cover(3), 0b001, 0)


def test_alg_ag_prefers_double_coverage():
    # element 0 covers both groups; classic set-cover greedy takes it first
    vs = ValuationSet.coverage(4, [[0, 1], [0, 2], [3]])
    order, _ = alg_ag(vs)
    assert order.permutation[0] == 0


def test_alg_ag_tiebreak_smallest_index():
    vs = ValuationSet.coverage(4, [[0, 1], [2, 3]])
    order, _ = alg_ag(vs)
    assert order.permutation[0] == 0


def test_cover_times_and_objective_consistent():
    for seed in range(25):
        vs = random_instance("random-groups", 6, seed).valuations
        order, trace = alg_ag(vs)
        assert order.objective == sum(order.cover_times)
        # recompute cover times from scratch
        mask = 0
        for t, e in enumerate(order.permutation, start=1):
            mask |= 1 << e
            for i, f in enumerate(vs.functions):
                if order.cover_times[i] == t:
                    assert f.value(mask) == 1
                    prev = mask & ~(1 << e)
                    # covered exactly at t: uncovered after t-1 elements
                    assert f.value(prev) < 1
        # |R(t)| non-increasing
        sizes = [len(u) for u in trace.uncovered]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_prefix_recompute_argmax():
    for seed in range(10):
        vs = random_instance("random-groups", 5, seed).valuations
        order, trace = alg_ag(vs)
        mask = 0
        for t, e in enumerate(order.permutation):
            best = max(residual_score(vs, mask, x)
                       for x in range(vs.n) if not mask & (1 << x))
            assert residual_score(vs, mask, e) == best == trace.chosen_scores[t]
            # ties: no smaller index attains the max
            for x in range(e):
                if not mask & (1 << x):
                    assert residual_score(vs, mask, x) < best
            mask |= 1 << e


def test_brute_force_single_element_cover():
    vs = ValuationSet.singlegroup(4, [list(range(4))], [1])
    assert brute_force_ranking(vs).objective == 1


def test_brute_force_full_requirement():
    n = 5
    vs = ValuationSet.singlegroup(n, [list(range(n))], [n])
    assert brute_force_ranking(vs).objective == n


def test_brute_force_matches_literal_enumeration():
    for seed in range(40):
        vs = random_instance("random-groups", 5, seed).valuations
        opt = brute_force_ranking(vs)
        lit_obj, lit_perm = perm_optimum(vs)
        assert opt.objective == lit_obj
        assert opt.permutation == lit_perm


def test_greedy_never_beats_oracle():
    for seed in range(40):
        vs = random_instance("random-groups", 6, seed).valuations
        order, _ = alg_ag(vs)
        assert order.objective >= brute_force_ranking(vs).objective


def test_ratio_within_theorem_bound():
    for seed in range(60):
        vs = random_instance("random-groups", 6, seed).valuations
        order, _ = alg_ag(vs)
        opt = brute_force_ranking(vs)
        assert order.objective <= 56 * vs.alpha * opt.objective


def test_check_log_claim_single_step():
    vs = half_cover(3)
    f = vs.functions[0]
    assert check_log_claim(f, [0, 0b111]) == 1


def test_check_log_claim_half_then_full():
    f = half_cover(4).functions[0]
    chain = [0, 0b0001, 0b1111]
    # 1/2 + (1 - 1/2)/(1 - 1/2) = 3/2
    assert check_log_claim(f, chain) == Fraction(3, 2)


def test_check_log_claim_rejects_non_nested():
    f = half_cover(3).functions[0]
    with pytest.raises(ValueError):
        check_log_claim(f, [0b011, 0b001])


def test_check_log_claim_random_chains_bounded():
    import math
    import random
    rng = random.Random(7)
    for seed in range(120):
        vs = random_instance("random-groups", 6, seed).valuations
        for f in vs.functions:
            mask = 0
            chain = [0]
            while mask != (1 << vs.n) - 1:
                free = [e for e in range(vs.n) if not mask & (1 << e)]
                for e in rng.sample(free, rng.randint(1, len(free))):
                    mask |= 1 << e
                chain.append(mask)
            total = check_log_claim(f, chain)
            assert float(total) <= 1 + math.log(1 / vs.epsilon) + 1e-9


def test_recurrence_on_random_instances():
    for seed in range(60):
        vs = random_instance("random-groups", 6, seed).valuations
        order, trace = alg_ag(vs)
        opt = brute_force_ranking(vs)
        ok, rows = check_recurrence(trace, opt, vs.alpha)
        assert ok, (seed, rows)
        # j = 0 row is structurally true: |R_0| <= |R*_0|
        j0 = rows[0]
        assert j0[1] <= j0[3]


def test_recurrence_trivial_when_covered_at_one():
    vs = ValuationSet.singlegroup(3, [[0, 1, 2]], [1])
    order, trace = alg_ag(vs)
    opt = brute_force_ranking(vs)
    ok, _ = check_recurrence(trace, opt, vs.alpha)
    assert ok


def test_lifted_residual_monotone_submodular():
    for seed in range(12):
        vs = random_instance("random-groups", 5, seed).valuations
        for s_mask in (0, 0b00001, 0b01010):
            lifted = ResidualFunction(vs, s_mask)
            assert check_submodular(lifted, vs.n)
            assert pairwise_submodular(lifted, vs.n)


def test_mssc_special_case_ratio_four():
    # all requirements 1: min-sum set cover; greedy is 4-approximate
    for seed in range(40):
        import random
        rng = random.Random(seed)
        n = 6
        groups = [sorted(rng.sample(range(n), rng.randint(1, 3)))
                  for _ in range(rng.randint(2, 5))]
        vs = ValuationSet.singlegroup(n, groups, [1] * len(groups))
        order, _ = alg_ag(vs)
        opt = brute_force_ranking(vs)
        assert order.objective <= 4 * opt.objective


def test_residual_memos_are_per_scheduled_set():
    # residuals over the same functions but different S share the function
    # memos; each must still return its own value for every shared T
    for seed in range(6):
        vs = random_valuations("singlegroup", 6, seed)
        fresh = [CoverFunction(f.n, f.terms) for f in vs.functions]
        full = (1 << vs.n) - 1
        for s1, s2 in ((0, 0b000011), (0b000101, 0b101000)):
            pairs = []
            for s in (s1, s2):
                pairs += [(s, ResidualFunction(vs, s)),
                          (s, ResidualValuation(vs.functions, s))]
            for t in list(range(full + 1)) * 2:
                for s, res in pairs:
                    want = sum(((f.value(s | t) - f.value(s))
                                / (1 - f.value(s))
                                for f in fresh if f.value(s) < 1),
                               Fraction(0))
                    assert res.value(t) == want, (seed, s, t)
