import random
from fractions import Fraction

import pytest

from latcov.instances import (CoverFunction, ExplicitFunction, ValuationSet,
                              check_submodular, random_instance)
from latcov.instances.generators import STYLES, random_valuations
from latcov.mlsc import ResidualValuation
from latcov.ranking import (ResidualFunction, alg_ag, brute_force_ranking,
                            check_decay, check_log_claim, check_recurrence,
                            checkpoint_base, uncovered_at)
from util import pairwise_submodular, perm_optimum


def half_cover(n):
    """Single valuation min(|S|/2, 1) over n elements."""
    return ValuationSet.singlegroup(n, [list(range(n))], [2])


def test_residual_score_fresh_element():
    vs = half_cover(4)
    assert ResidualFunction(vs, 0).value(1 << 2) == Fraction(1, 2)


def test_residual_score_completing_scores_one():
    vs = half_cover(4)
    assert ResidualFunction(vs, 0b0001).value(1 << 1) == 1


def test_residual_score_skips_covered():
    # f1 covered after one element, f2 needs all of {2,3}
    vs = ValuationSet.singlegroup(4, [[0, 1], [2, 3]], [1, 2])
    s = 0b0001  # f1 done
    assert ResidualFunction(vs, s).value(1 << 1) == 0
    assert ResidualFunction(vs, s).value(1 << 2) == Fraction(1, 2)


def test_alg_ag_prefers_double_coverage():
    # element 0 covers both groups; classic set-cover greedy takes it first
    vs = ValuationSet.coverage(4, [[0, 1], [0, 2], [3]])
    order = alg_ag(vs)
    assert order.permutation[0] == 0


def test_alg_ag_tiebreak_smallest_index():
    vs = ValuationSet.coverage(4, [[0, 1], [2, 3]])
    order = alg_ag(vs)
    assert order.permutation[0] == 0


def test_cover_times_and_objective_consistent():
    for seed in range(25):
        vs = random_instance("random-groups", 6, seed).valuations
        order = alg_ag(vs)
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
        sizes = [uncovered_at(order.cover_times, t)
                 for t in range(1, vs.n + 1)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_prefix_recompute_argmax():
    for seed in range(10):
        vs = random_instance("random-groups", 5, seed).valuations
        order = alg_ag(vs)
        mask = 0
        for e in order.permutation:
            residual = ResidualFunction(vs, mask)
            best = max(residual.value(1 << x)
                       for x in range(vs.n) if not mask & (1 << x))
            assert residual.value(1 << e) == best
            # ties: no smaller index attains the max
            for x in range(e):
                if not mask & (1 << x):
                    assert residual.value(1 << x) < best
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
        order = alg_ag(vs)
        assert order.objective >= brute_force_ranking(vs).objective


def test_ratio_within_theorem_bound():
    for seed in range(60):
        vs = random_instance("random-groups", 6, seed).valuations
        order = alg_ag(vs)
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


def fraction_log_claim(fn, chain):
    """Test-only copy of check_log_claim as a sum of Fractions."""
    total = Fraction(0)
    for a, b in zip(chain, chain[1:]):
        fa = fn.value(a)
        gap = 1 - fa
        if gap == 0:
            continue
        total += (fn.value(b) - fa) / gap
    return total


def test_int_log_claim_matches_fraction_sum():
    rng = random.Random("log-claim")
    for seed in range(60):
        n = 1 + seed % 6
        fns = [f for style in STYLES
               for f in random_valuations(style, n, seed).functions]
        table = [Fraction(rng.randint(0, 12), rng.choice((1, 5, 12, 13)))
                 for _ in range(1 << n)]
        fns.append(ExplicitFunction(n, [min(v, 1) for v in table[:-1]] + [1]))
        for f in fns:
            for _ in range(5):
                chain, mask = [0], 0
                while mask != (1 << n) - 1:
                    mask |= rng.getrandbits(n)
                    chain.append(mask)
                got = check_log_claim(f, chain)
                assert type(got) is Fraction
                assert got == fraction_log_claim(f, chain), (seed, chain)
    assert check_log_claim(fns[0], [0]) == 0


def rerun_recurrence(vs, order, opt, alpha):
    """Reference check_recurrence: its own level loop, as it stood before
    the deterministic checks ran on check_decay. It counts |R_j| (|R*_j|)
    as the valuations still below 1 on the first base * 2^j - 1 (2^j - 1)
    elements of the greedy (optimal) permutation, not from cover times."""
    base = checkpoint_base(alpha)
    n = vs.n

    def r_size(perm, t: int) -> int:
        mask = sum(1 << e for e in perm[:t - 1])
        return sum(1 for f in vs.functions if f.value(mask) < 1)

    horizon = max(n, max(opt.cover_times))
    rows: list[tuple[int, int, int, int]] = []
    ok = True
    j = 0
    prev = 0  # |R_{-1}|
    while True:
        r_j = r_size(order.permutation, base * (1 << j))
        rstar_j = r_size(opt.permutation, 1 << j)
        rows.append((j, r_j, prev, rstar_j))
        if 4 * r_j > prev + 4 * rstar_j:
            ok = False
        if base * (1 << j) > horizon and (1 << j) > horizon:
            break
        prev = r_j
        j += 1
    return ok, rows


def test_recurrence_on_random_instances():
    for seed in range(60):
        vs = random_instance("random-groups", 6, seed).valuations
        order = alg_ag(vs)
        opt = brute_force_ranking(vs)
        ok, rows = check_recurrence(order, opt, vs.alpha)
        assert ok, (seed, rows)
        assert (ok, rows) == rerun_recurrence(vs, order, opt, vs.alpha), seed
        # j = 0 row is structurally true: |R_0| <= |R*_0|
        j0 = rows[0]
        assert j0[1] <= j0[3]


def test_recurrence_trivial_when_covered_at_one():
    vs = ValuationSet.singlegroup(3, [[0, 1, 2]], [1])
    order = alg_ag(vs)
    opt = brute_force_ranking(vs)
    ok, rows = check_recurrence(order, opt, vs.alpha)
    assert ok
    # every cover index is 1, yet the scan runs past n = 3, to j = 2
    assert [row[0] for row in rows] == [0, 1, 2]
    assert (ok, rows) == rerun_recurrence(vs, order, opt, vs.alpha)


def test_decay_check_refuses_a_base_below_one():
    # base 0 would never pass the horizon, so the scan could not stop
    for base in (0, -2):
        with pytest.raises(ValueError, match="base"):
            check_decay(lambda t, t_star: [(0, 0)], base)


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
        order = alg_ag(vs)
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
                          (s, ResidualValuation(vs, s))]
            for t in list(range(full + 1)) * 2:
                for s, res in pairs:
                    want = sum(((f.value(s | t) - f.value(s))
                                / (1 - f.value(s))
                                for f in fresh if f.value(s) < 1),
                               Fraction(0))
                    assert res.value(t) == want, (seed, s, t)


def scoring_alg_ag(vs):
    """Reference copy of the greedy loop that scores every step, also after
    everything is covered, and compares Fraction values; returns the
    permutation."""
    n = vs.n
    perm, mask = [], 0
    for _ in range(n):
        residual = ResidualFunction(vs, mask)
        e = max((e for e in range(n) if not mask & (1 << e)),
                key=lambda e: residual.value(1 << e))
        perm.append(e)
        mask |= 1 << e
    return tuple(perm)


def test_alg_ag_matches_scoring_every_step():
    early = 0
    for style in STYLES:
        for n in range(3, 9):
            for seed in range(4):
                vs = random_valuations(style, n, seed)
                order = alg_ag(vs)
                assert order.permutation == scoring_alg_ag(vs), \
                    (style, n, seed)
                early += max(order.cover_times) < n
    assert early > 0   # the covered tail is exercised


def test_residual_value_is_num_over_den():
    # every style, against the Fraction sum; the last residual has every
    # function covered at S, so its den is 1 and every num is 0
    for style in STYLES:
        for seed in range(3):
            vs = random_valuations(style, 5, seed)
            full = (1 << vs.n) - 1
            for s in (0, 0b00101, 0b11010, full):
                res = ResidualFunction(vs, s)
                for t in range(full + 1):
                    want = sum(((f.value(s | t) - f.value(s))
                                / (1 - f.value(s))
                                for f in vs.functions if f.value(s) < 1),
                               Fraction(0))
                    num = res.num(t)
                    assert type(num) is int
                    assert res.value(t) == Fraction(num, res.den) == want
            covered = ResidualFunction(vs, full)
            assert covered.uncovered == 0 and covered.den == 1
            assert all(covered.num(t) == 0 for t in range(full + 1))
