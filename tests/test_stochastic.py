"""Stochastic adaptive ranking: greedy scores, the exact policy oracle,
policy evaluation, reductions, and the Monte-Carlo checkpoint lemma."""

import csv
import functools
import gc
import io
import math
import random
import tracemalloc
import weakref
from argparse import Namespace
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest

from latcov import cli, stochastic
from latcov.errors import CapExceeded
from latcov.instances.generators import (STYLES, random_instance,
                                         random_valuations)
from latcov.instances.stoch import StochasticInstance
from latcov.instances.valuations import ValuationSet
from latcov.ranking import (ResidualFunction, alg_ag, check_decay,
                            checkpoint_base, uncovered_at)
from latcov.stochastic import (RealizedSchedule, alg_ag_sto,
                               check_sto_recurrence, evaluate_policy,
                               greedy_policy, optimal_adaptive,
                               outcome_tally, policy_cover_times,
                               reduce_filter, reduce_sgmssc, reduce_ssc,
                               sample_outcome, sto_residual_score)
from util import reference_run

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def coin_instance():
    # element 0 covers the one target w.p. 1/2 (point 0), else junk point 1;
    # element 1 always realizes junk
    return StochasticInstance(
        2, (((0, HALF), (1, HALF)), ((1, Fraction(1)),)),
        (2, 3), ValuationSet.coverage(2, [[0]]))


def identity_instance(vs):
    """Point masses: element j always realizes point j, unit lengths."""
    sup = tuple(((j, Fraction(1)),) for j in range(vs.n))
    return StochasticInstance(vs.n, sup, (1,) * vs.n, vs)


def lemma_instance():
    # requirements make coverage genuinely uncertain (point 4 is junk) and
    # the cheap first element lets the optimum cover something at time 1
    sets = [[0, 1], [1, 2], [2, 3]]
    supports = [((0, HALF), (4, HALF)),
                ((1, THIRD), (2, THIRD), (4, THIRD)),
                ((2, HALF), (4, HALF)),
                ((3, HALF), (4, HALF))]
    return reduce_sgmssc(5, sets, [1, 2, 1], supports, (1, 9, 9, 10))


def c13_fixtures():
    """The acceptance battery's recurrence fixtures (C13)."""
    return [lemma_instance()] + [
        random_instance("random-stochastic", 3 + i % 2, 900 + i).stochastic
        for i in range(19)]


def stepwise_greedy(inst, outcome):
    """Test-only reference for alg_ag_sto: the adaptive greedy as a plain
    step loop, recomputing the argmax of sto_residual_score (strict >, so
    the smallest index wins ties) at every step, with no policy and no
    cache. first_cover stops pulling steps once everything is covered."""
    order = []

    def steps():
        scheduled = realized = clock = 0
        while True:
            best_e, best = None, None
            for e in range(inst.n):
                if scheduled & (1 << e):
                    continue
                score = sto_residual_score(inst, scheduled, realized, e)
                if best is None or score > best:
                    best_e, best = e, score
            if best_e is None:
                return
            scheduled |= 1 << best_e
            b = outcome[best_e]
            clock += inst.lengths[best_e]
            realized |= 1 << b
            order.append(best_e)
            yield b, clock

    horizon = inst.total_length
    times = tuple(horizon if c is None else c
                  for c in inst.valuations.first_cover(steps()))
    return RealizedSchedule(tuple(order), times, sum(times))


def rerun_sto_recurrence(inst, policy, samples, seed, base=None):
    """Reference check_sto_recurrence: re-runs stepwise_greedy on every
    sample instead of replaying greedy_policy, and decides each level in
    floats (mean / 4 > 3 se); the float and integer tests agree whenever
    the two sides are not within round-off of each other. `base` defaults
    to the library's checkpoint unit ceil(8 alpha)."""
    if base is None:
        base = checkpoint_base(inst.valuations.alpha)
    horizon = inst.total_length
    rng = random.Random(f"wssr-mc:{seed}")
    levels = []
    j = 0
    while True:
        levels.append(j)
        if base * (1 << j) > horizon and (1 << j) > horizon:
            break
        j += 1
    sums = [[0, 0, 0] for _ in levels]
    dsum = [0] * len(levels)
    dsq = [0] * len(levels)
    for _ in range(samples):
        w = sample_outcome(inst, rng)
        ct = stepwise_greedy(inst, w).cover_times
        ct_star = policy_cover_times(inst, policy, w)
        prev = 0
        for idx, j in enumerate(levels):
            r_j = uncovered_at(ct, base * (1 << j))
            r_star = uncovered_at(ct_star, 1 << j)
            d = 4 * r_j - prev - 4 * r_star
            sums[idx][0] += r_j
            sums[idx][1] += prev
            sums[idx][2] += r_star
            dsum[idx] += d
            dsq[idx] += d * d
            prev = r_j
    ok = True
    rows = []
    for idx in range(len(levels)):
        mean_d = dsum[idx] / samples
        var = (dsq[idx] / samples - mean_d ** 2) * samples / max(1, samples - 1)
        se = math.sqrt(max(0.0, var) / samples) / 4
        if mean_d / 4 > 3 * se + 1e-12:
            ok = False
        rows.append((levels[idx], sums[idx][0] / samples,
                     sums[idx][1] / samples, sums[idx][2] / samples, se))
    return ok, rows


def test_score_point_mass_matches_deterministic():
    vs = random_instance("random-groups", 5, 3).valuations
    inst = identity_instance(vs)
    rng = random.Random("detscore")
    for _ in range(20):
        mask = rng.randrange(1 << vs.n)
        free = [e for e in range(vs.n) if not mask & (1 << e)]
        if not free:
            continue
        e = rng.choice(free)
        assert sto_residual_score(inst, mask, mask, e) == \
            ResidualFunction(vs, mask).value(1 << e)


def test_score_two_outcome_example():
    inst = StochasticInstance(
        2, (((0, HALF), (1, HALF)),), (2,), ValuationSet.coverage(2, [[0]]))
    # gains 1 and 0 with probability 1/2 each, length 2: (1/2) / 2
    assert sto_residual_score(inst, 0, 0, 0) == Fraction(1, 4)


def test_score_covered_state_and_validation():
    inst = coin_instance()
    assert sto_residual_score(inst, 1, 1, 1) == 0  # point 0 realized: done
    with pytest.raises(ValueError):
        sto_residual_score(inst, 1, 1, 0)


def test_deterministic_elements_reduce_to_ranking():
    for seed in range(8):
        vs = random_instance("random-groups", 5, seed).valuations
        inst = identity_instance(vs)
        order = alg_ag(vs)
        run = alg_ag_sto(inst, tuple(range(vs.n)))
        # the stochastic loop stops once covered; the prefix must agree
        assert run.order == order.permutation[:len(run.order)]
        assert run.cover_times == order.cover_times
        assert run.objective == order.objective


def test_replay_invariance():
    inst = random_instance("random-stochastic", 4, 5).stochastic
    rng = random.Random("replay")
    for _ in range(10):
        w = sample_outcome(inst, rng)
        assert alg_ag_sto(inst, w) == alg_ag_sto(inst, w)


def test_outcome_vector_validation():
    inst = coin_instance()
    for greedy in (None, greedy_policy(inst)):
        with pytest.raises(ValueError):
            alg_ag_sto(inst, (0,), greedy)     # too short
        with pytest.raises(ValueError):
            alg_ag_sto(inst, (0, 0), greedy)   # element 1 never realizes 0
    # replay checks each point the policy reaches: element 0 draws junk,
    # then element 1 is scheduled and its point 0 is off its support
    for policy in (greedy_policy(inst), optimal_adaptive(inst)[0]):
        with pytest.raises(ValueError, match="support"):
            policy_cover_times(inst, policy, (1, 0))


def test_hand_case_optimal():
    inst = coin_instance()
    policy, cost = optimal_adaptive(inst)
    assert cost == Fraction(7, 2)     # l_A + (1/2) l_B, forced order
    assert policy(0b00, 0b00) == 0
    assert policy(0b01, 0b01) is None   # element 0 drew the target
    assert policy(0b01, 0b10) == 1      # element 0 drew junk
    assert policy(0b11, 0b10) is None   # everything scheduled
    assert policy_cover_times(inst, policy, (1, 1)) == (5,)  # horizon charge
    assert policy_cover_times(inst, policy, (0, 1)) == (2,)


def test_policy_tree_invariants():
    # on every reachable state a policy stops exactly when everything is
    # covered or scheduled, and never repeats an element
    for inst in (coin_instance(),
                 random_instance("random-stochastic", 4, 2).stochastic,
                 lemma_instance()):
        functions = inst.valuations.functions
        full = (1 << inst.n) - 1
        for policy in (optimal_adaptive(inst)[0], greedy_policy(inst)):

            def walk(scheduled, realized):
                e = policy(scheduled, realized)
                covered = all(f.value(realized) == 1 for f in functions)
                assert (e is None) == (covered or scheduled == full)
                if e is None:
                    return
                assert not scheduled & (1 << e)
                for b, _ in inst.supports[e]:
                    walk(scheduled | (1 << e), realized | (1 << b))

            walk(0, 0)


def test_optimal_adaptive_tie_goes_to_smallest_index():
    # two identical coins: both root choices cost the same
    coin = ((0, HALF), (1, HALF))
    inst = StochasticInstance(2, (coin, coin), (1, 1),
                              ValuationSet.coverage(2, [[0]]))
    policy, _ = optimal_adaptive(inst)
    assert policy(0, 0) == 0


def test_optimal_at_most_greedy():
    for seed in range(12):
        inst = random_instance("random-stochastic", 3 + seed % 2,
                               seed).stochastic
        _, opt = optimal_adaptive(inst)
        alg = evaluate_policy(inst, greedy_policy(inst))
        assert opt <= alg


def test_cap_rejection():
    vs = ValuationSet.coverage(5, [[0, 1, 2, 3, 4]])
    sup = tuple(((j, Fraction(1)),) for j in range(5))
    big = StochasticInstance(5, sup, (1,) * 5, vs)
    with pytest.raises(CapExceeded, match="knowledge states"):
        optimal_adaptive(big)
    wide = StochasticInstance(
        4, (((0, HALF), (1, Fraction(1, 4)), (2, Fraction(1, 8)),
             (3, Fraction(1, 8))),) + sup[1:4],
        (1, 1, 1, 1), ValuationSet.coverage(4, [[0, 1, 2, 3]]))
    with pytest.raises(CapExceeded):
        optimal_adaptive(wide)
    # the greedy rule is lazy and uncapped; exact evaluation stays capped
    assert alg_ag_sto(big, tuple(range(5))).objective == 1
    with pytest.raises(CapExceeded, match="knowledge states"):
        evaluate_policy(big, greedy_policy(big))


def test_greedy_policy_replays_runs():
    # n=6..8 is past the exact caps, so only the lazy rule can replay it
    fixtures = [random_instance("random-stochastic", 4, seed).stochastic
                for seed in (1, 6)] + c13_fixtures() + [
        random_instance("random-stochastic", n, seed).stochastic
        for n in (6, 7, 8) for seed in range(4)]
    for k, inst in enumerate(fixtures):
        gp = greedy_policy(inst)
        rng = random.Random(f"gp:{k}")
        for _ in range(50):
            w = sample_outcome(inst, rng)
            ref = stepwise_greedy(inst, w)
            assert alg_ag_sto(inst, w) == ref
            assert policy_cover_times(inst, gp, w) == ref.cover_times


def _cli_objective(capsys, *argv):
    assert cli.main(list(argv)) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert "mode=mc" in row["detail"]
    return Fraction(row["objective"])


def test_monte_carlo_wssr_scores_each_state_once(capsys, monkeypatch):
    scored = []

    def counting(inst, scheduled, realized, e, **shared):
        scored.append((scheduled, realized, e))
        return sto_residual_score(inst, scheduled, realized, e, **shared)

    monkeypatch.setattr(stochastic, "sto_residual_score", counting)
    _cli_objective(capsys, "wssr", "--gen", "stochastic:n=7:seed=1",
                   "--samples", "250")
    assert scored and len(scored) == len(set(scored))


def test_oracle_wssr_scores_each_state_once(capsys, monkeypatch):
    # the exact evaluation and the recurrence check replay one greedy rule
    scored = []

    def counting(inst, scheduled, realized, e, **shared):
        scored.append((scheduled, realized, e))
        return sto_residual_score(inst, scheduled, realized, e, **shared)

    monkeypatch.setattr(stochastic, "sto_residual_score", counting)
    assert cli.main(["wssr", "--gen", "stochastic:n=4:seed=1", "--oracle",
                     "--samples", "250"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert "mode=exact" in row["detail"] and row["ok"] == "pass"
    assert scored and len(scored) == len(set(scored))


def test_shared_greedy_rule_matches_fresh_rule_per_sample(capsys):
    # past the exact cap, so the CLI samples with the wssr-cli stream
    for n in range(5, 10):
        for seed in range(4):
            st = random_instance("random-stochastic", n, seed).stochastic
            greedy = greedy_policy(st)
            rng = random.Random(f"wssr-cli:{seed}")
            total = 0
            for _ in range(60):
                w = sample_outcome(st, rng)
                fresh = alg_ag_sto(st, w)
                assert alg_ag_sto(st, w, greedy) == fresh
                total += fresh.objective
            assert _cli_objective(
                capsys, "wssr", "--gen", f"stochastic:n={n}:seed={seed}",
                "--samples", "60", "--seed", str(seed)) == Fraction(total, 60)


def test_recurrence_matches_per_sample_greedy_reruns():
    for inst in c13_fixtures():
        policy, _ = optimal_adaptive(inst)
        assert check_sto_recurrence(inst, policy, 500, 0) == \
            rerun_sto_recurrence(inst, policy, 500, 0)


def test_recurrence_verdict_matches_float_rule_across_threshold(
        monkeypatch):
    # the greedy takes element 8 (length 8, covers all eight valuations)
    # while the reference runs the cheap elements in index order and covers
    # about 2.7 valuations by time 4. At the lemma's unit ceil(8 alpha) = 9
    # the greedy is done before the first checkpoint, so every level holds;
    # at the unit ceil(alpha) = 2, level 2 has a positive mean difference
    # and, as the sample count grows, its t-statistic crosses 3
    p = Fraction(9, 10)
    inst = reduce_sgmssc(
        10, [[i, 9] for i in range(8)], [1] * 8,
        [((i, p), (8, 1 - p)) for i in range(8)] + [((9, Fraction(1)),)],
        (1,) * 8 + (8,))
    assert greedy_policy(inst)(0, 0) == 8

    def in_order(scheduled, realized):
        return next((e for e in range(inst.n) if not scheduled >> e & 1),
                    None)

    assert checkpoint_base(inst.valuations.alpha) == 9
    assert check_sto_recurrence(inst, in_order, 40, 0)[0]
    monkeypatch.setattr(stochastic, "checkpoint_base", lambda alpha: 2)
    verdicts = set()
    for samples in range(1, 41):
        got = check_sto_recurrence(inst, in_order, samples, 0)
        assert got == rerun_sto_recurrence(inst, in_order, samples, 0, 2)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def walk_evaluate(inst, policy):
    """Test-only reference for exact evaluate_policy: walks every outcome
    leaf of the policy tree and sums the leaf's cover times, weighted by
    its probability. A valuation the leaf never covers pays total_length.
    """
    functions, horizon = inst.valuations.functions, inst.total_length

    def cover_time(f, steps):
        mask = 0
        for b, clock in steps:
            mask |= 1 << b
            if f.value(mask) == 1:
                return clock
        return horizon

    def walk(scheduled, realized, clock, prob, steps):
        e = policy(scheduled, realized)
        if e is None:
            return prob * sum(cover_time(f, steps) for f in functions)
        clock += inst.lengths[e]
        return sum(walk(scheduled | (1 << e), realized | (1 << b), clock,
                        prob * p, steps + [(b, clock)])
                   for b, p in inst.supports[e])

    return walk(0, 0, 0, Fraction(1), [])


def pinned_policies(inst, optimal):
    """The greedy, the optimum, index order, and index order cut off after
    two elements, which leaves valuations to the horizon charge."""

    def in_order(scheduled, realized):
        return next((e for e in range(inst.n) if not scheduled >> e & 1),
                    None)

    def stop_after_two(scheduled, realized):
        if bin(scheduled).count("1") >= 2:
            return None
        return in_order(scheduled, realized)

    return {"greedy": greedy_policy(inst),
            "optimal": optimal,
            "in_order": in_order, "stop_after_two": stop_after_two}


def test_evaluate_policy_matches_per_leaf_walk(monkeypatch):
    monkeypatch.setenv("LATCOV_CAP", "6")
    horizon_charged = 0
    for n in range(2, 7):
        for seed in range(6):
            inst = random_instance("random-stochastic", n, seed).stochastic
            optimal, total = optimal_adaptive(inst)
            walked = {}
            for name, policy in pinned_policies(inst, optimal).items():
                walked[name] = walk_evaluate(inst, policy)
                assert evaluate_policy(inst, policy) == walked[name], \
                    (n, seed, name)
            horizon_charged += walked["stop_after_two"] > walked["in_order"]
            # the optimum's total is the cheapest first element followed
            # optimally, and its root choice the smallest index attaining it
            firsts = [walk_evaluate(inst, lambda s, r, e=e:
                                    e if s == 0 else optimal(s, r))
                      for e in range(n)]
            assert total == min(firsts) == walked["optimal"]
            assert optimal(0, 0) == firsts.index(total)
    assert horizon_charged


def test_evaluate_exact_matches_optimal_cost():
    inst = random_instance("random-stochastic", 3, 42).stochastic
    policy, cost = optimal_adaptive(inst)
    assert evaluate_policy(inst, policy) == cost


def sampled_greedy_objective(inst, samples, seed):
    """The wssr command's estimate past the exact cap: the mean alg_ag_sto
    objective over outcomes from stream wssr-cli, and its standard error."""
    rng = random.Random(f"wssr-cli:{seed}")
    greedy = greedy_policy(inst)
    objs = [alg_ag_sto(inst, sample_outcome(inst, rng), greedy).objective
            for _ in range(samples)]
    mean = Fraction(sum(objs), samples)
    var = sum((o - mean) ** 2 for o in objs) / max(1, samples - 1)
    return mean, math.sqrt(var / samples)


def fixed_reductions():
    """The ssc, filters --latency and sgmssc instances of the benchmark's
    stochastic workload."""
    return [
        reduce_ssc(4, [[0, 1], [2, 3]],
                   [((0, HALF), (2, HALF)), ((1, Fraction(1)),),
                    ((3, HALF), (0, HALF))], (1, 2, 1)),
        reduce_filter([(0, 1), (1,)], [HALF, THIRD], (1, 2), latency=True),
        reduce_sgmssc(3, [[0, 1], [2]], [1, 1],
                      [((0, HALF), (1, HALF)), ((2, Fraction(1)),)], (2, 1)),
    ]


def test_sampled_greedy_agrees_with_exact_evaluation():
    fixtures = [random_instance("random-stochastic", n, seed).stochastic
                for n in (3, 4) for seed in range(4)] + fixed_reductions()
    for seed, inst in enumerate(fixtures):
        mean, se = sampled_greedy_objective(inst, 2000, seed)
        exact = evaluate_policy(inst, greedy_policy(inst))
        assert abs(float(mean - exact)) <= 3 * se, (seed, mean, exact, se)
    # point masses: every sample is the one outcome
    inst = identity_instance(random_instance("random-groups", 4, 9).valuations)
    mean, se = sampled_greedy_objective(inst, 50, 0)
    assert se == 0 and mean == evaluate_policy(inst, greedy_policy(inst))


def test_reduce_ssc_soundness():
    sets = [[0, 1], [2], [1, 3]]
    sup = [((0, HALF), (2, HALF)), ((1, THIRD), (3, Fraction(2, 3))),
           ((2, Fraction(1)),)]
    inst = reduce_ssc(4, sets, sup, (1, 2, 1))
    assert inst.valuations.epsilon == THIRD
    f = inst.valuations.functions[0]
    for mask in range(1 << 4):
        hit_all = all(any(mask & (1 << x) for x in s) for s in sets)
        assert (f.value(mask) == 1) == hit_all


def test_reduce_filter_soundness():
    queries = [(0, 1), (1, 2), (2,)]
    sel = [HALF, THIRD, Fraction(3, 4)]
    lengths = (1, 2, 1)

    def determined(q, mask):
        false_hit = any(mask & (1 << (2 * j + 1)) for j in q)
        all_true = all(mask & (1 << (2 * j)) for j in q)
        return false_hit or all_true

    single = reduce_filter(queries, sel, lengths)
    assert single.valuations.epsilon == Fraction(1, 6)  # 1/(3 queries * 2)
    f = single.valuations.functions[0]
    for mask in range(1 << 6):
        assert (f.value(mask) == 1) == all(determined(q, mask)
                                           for q in queries)

    latency = reduce_filter(queries, sel, lengths, latency=True)
    assert latency.valuations.epsilon == HALF
    assert latency.valuations.m == 3
    for i, q in enumerate(queries):
        fi = latency.valuations.functions[i]
        for mask in range(1 << 6):
            assert (fi.value(mask) == 1) == determined(q, mask)
    # filter j realizes its True point with exactly its selectivity
    for j, p in enumerate(sel):
        assert dict(single.supports[j])[2 * j] == p


def test_reduce_filter_degenerate_selectivity():
    inst = reduce_filter([(0, 1)], [Fraction(1), Fraction(0)], (1, 1))
    assert inst.supports[0] == ((0, Fraction(1)),)
    assert inst.supports[1] == ((3, Fraction(1)),)


def test_reduce_sgmssc_soundness():
    sets = [[0, 1, 2], [2, 3]]
    reqs = [2, 2]
    sup = [((p, Fraction(1)),) for p in range(4)]
    inst = reduce_sgmssc(4, sets, reqs, sup, (1, 1, 1, 1))
    assert inst.valuations.epsilon == HALF
    for i, (s, k) in enumerate(zip(sets, reqs)):
        fi = inst.valuations.functions[i]
        for mask in range(1 << 4):
            got = sum(1 for x in s if mask & (1 << x))
            assert (fi.value(mask) == 1) == (got >= k)


def test_ratio_suite_within_guarantee():
    # exact expected greedy cost against the exact optimum, 300 instances;
    # measured worst ratio 1.15, far under the 56 alpha guarantee
    for seed in range(300):
        inst = random_instance("random-stochastic", 3 + seed % 2,
                               seed).stochastic
        alg = evaluate_policy(inst, greedy_policy(inst))
        _, opt = optimal_adaptive(inst)
        assert alg <= 56 * inst.valuations.alpha * opt


def test_checkpoint_lemma_monte_carlo():
    inst = lemma_instance()
    policy, opt = optimal_adaptive(inst)
    assert opt == Fraction(1379, 24)
    assert evaluate_policy(inst, greedy_policy(inst)) == Fraction(231, 4)
    ok, rows = check_sto_recurrence(inst, policy, 4000, 0)
    assert ok
    # measured mean |R_1| ~ 1.50: the decay step is not vacuous here
    assert 1.3 <= rows[1][1] <= 1.7
    assert rows[1][4] > 0  # and genuinely stochastic


def reference_outcome(inst, rng):
    """Test-only copy of the per-sample draw loop outcome_tally replaced:
    per element, the first point whose running float sum exceeds
    rng.random(), the last one past the final sum."""

    def draw(supp):
        r = rng.random()
        acc = 0.0
        for b, p in supp:
            acc += float(p)
            if r < acc:
                return b
        return supp[-1][0]

    return tuple(draw(supp) for supp in inst.supports)


def reference_steps(inst, policy, outcome):
    """Test-only copy of the replay the run tree replaced: asks the policy
    state by state, checks each drawn point, and yields (element, point,
    clock) until the policy stops."""
    scheduled = realized = clock = 0
    while (e := policy(scheduled, realized)) is not None:
        b = outcome[e]
        if b not in dict(inst.supports[e]):
            raise ValueError(f"outcome {b} not in element {e}'s support")
        scheduled |= 1 << e
        realized |= 1 << b
        clock += inst.lengths[e]
        yield e, b, clock


def reference_cover_times(inst, steps):
    """Cover times along reference_steps, pulled lazily by first_cover,
    which stops at full cover."""
    horizon = inst.total_length
    return tuple(horizon if c is None else c for c in
                 inst.valuations.first_cover((b, t) for _, b, t in steps))


def reference_greedy_run(inst, outcome):
    """alg_ag_sto as it was: the whole greedy replay, then cover times."""
    steps = list(reference_steps(inst, greedy_policy(inst), outcome))
    times = reference_cover_times(inst, steps)
    return RealizedSchedule(tuple(e for e, _, _ in steps), times, sum(times))


def swapped_paths_instance():
    """Outcomes (0, 1, 2) and (1, 0, 2) of the in-order policy reach one
    knowledge state, everything scheduled and points {0, 1, 2} realized,
    with cover times (1, 2, 3) and (2, 1, 3)."""
    coin = ((0, HALF), (1, HALF))
    return reduce_sgmssc(3, [[0], [1], [2]], [1, 1, 1],
                         [coin, coin, ((2, Fraction(1)),)], (1, 1, 1))


def in_order_policy(inst):
    return lambda scheduled, realized: next(
        (e for e in range(inst.n) if not scheduled >> e & 1), None)


def draw_fixtures():
    return c13_fixtures() + [
        random_instance("random-stochastic", n, seed).stochastic
        for n in range(3, 9) for seed in range(2)] + fixed_reductions()


def blocked_reference(inst, rng, samples, block):
    """outcome_tally's pairs rebuilt from reference_outcome, one Counter
    per block of samples."""
    pairs = []
    for start in range(0, samples, block):
        pairs += Counter(reference_outcome(inst, rng) for _ in
                         range(min(block, samples - start))).items()
    return pairs


def test_tally_draws_match_reference_loop():
    fixtures = draw_fixtures()
    for k, inst in enumerate(fixtures):
        ref_rng, rng, wrap_rng = (random.Random(f"draw:{k}") for _ in range(3))
        # 10,500 outcomes over the 35 fixtures, in one block
        assert list(outcome_tally(inst, rng, 300)) == \
            blocked_reference(inst, ref_rng, 300, 300)
        ref_rng.seed(f"draw:{k}")
        for _ in range(300):
            assert sample_outcome(inst, wrap_rng) == \
                reference_outcome(inst, ref_rng)
        assert rng.getstate() == ref_rng.getstate() == wrap_rng.getstate()


def tally_counts():
    """The sample counts that meet the block edges, B the block size."""
    b = stochastic.OUTCOME_BLOCK
    return 1, 2, 250, b - 1, b, b + 1, 2 * b + 3


def test_tally_blocks_match_reference_loop():
    b = stochastic.OUTCOME_BLOCK
    for k, inst in enumerate(draw_fixtures()):
        for samples in tally_counts():
            ref_rng, rng = (random.Random(f"block:{k}") for _ in range(2))
            got = list(outcome_tally(inst, rng, samples))
            assert got == blocked_reference(inst, ref_rng, samples, b)
            assert sum(c for _, c in got) == samples
            assert rng.getstate() == ref_rng.getstate(), (k, samples)


def test_tally_draw_boundaries():
    # a draw equal to a running sum takes the next point; ten floats 0.1
    # sum to the largest float below 1, so a draw there lands past the sum
    class Fixed:
        def __init__(self, r):
            self.r = r

        def random(self):
            return self.r

    tenth = tuple((b, Fraction(1, 10)) for b in range(10))
    inst = StochasticInstance(10, (((0, HALF), (1, HALF)), tenth), (1, 1),
                              ValuationSet.coverage(10, [[0]]))
    top = sum([0.1] * 10)
    assert top < 1
    for r in (0.0, 0.25, 0.5, 0.7, 0.9, math.nextafter(top, 0), top):
        want = reference_outcome(inst, Fixed(r))
        assert list(outcome_tally(inst, Fixed(r), 3)) == [(want, 3)]
        assert sample_outcome(inst, Fixed(r)) == want
    assert sample_outcome(inst, Fixed(0.5)) == (1, 5)
    assert sample_outcome(inst, Fixed(top)) == (1, 9)


def mc_objective(inst, samples, seed):
    """The wssr command's Monte-Carlo objective on an instance."""
    (row,) = cli._stochastic_rows(
        inst, Namespace(samples=samples, seed=seed, oracle=False))
    assert "mode=mc" in row["detail"]
    return Fraction(row["objective"])


def reference_policy(inst):
    try:
        return optimal_adaptive(inst)[0]
    except CapExceeded:
        return in_order_policy(inst)


@pytest.mark.parametrize("block", [7, None], ids=["block7", "block4096"])
def test_tally_consumers_match_per_sample_loops(monkeypatch, block):
    # a block of 7 meets every block edge on every fixture; the real block
    # size runs its counts from 250 up on three fixtures
    if block is None:
        fixtures = c13_fixtures()[:2] + [
            random_instance("random-stochastic", 8, 1).stochastic]
    else:
        fixtures = draw_fixtures()
        monkeypatch.setattr(stochastic, "OUTCOME_BLOCK", block)
    policies = [reference_policy(inst) for inst in fixtures]
    monkeypatch.delenv("LATCOV_CAP", raising=False)
    monkeypatch.setattr(stochastic, "ADAPTIVE_ELEMENT_CAP", 0)  # all sample
    for k, (inst, policy) in enumerate(zip(fixtures, policies)):
        for samples in tally_counts():
            if block is None and samples < 250:
                continue
            assert mc_objective(inst, samples, k) == \
                sampled_greedy_objective(inst, samples, k)[0], (k, samples)
            if block is None and samples > 250 and inst.n > 4:
                continue   # stepwise_greedy is slow past the C13 sizes
            assert check_sto_recurrence(inst, policy, samples, k) == \
                rerun_sto_recurrence(inst, policy, samples, k), (k, samples)


def test_run_tree_matches_reference_replay():
    fixtures = [swapped_paths_instance()] + draw_fixtures()
    for k, inst in enumerate(fixtures):
        policies = {"greedy": greedy_policy(inst),
                    "in_order": in_order_policy(inst)}
        try:
            policies["optimal"] = optimal_adaptive(inst)[0]
        except CapExceeded:
            pass
        trees = {name: {} for name in policies}
        greedy_tree = {}
        rng = random.Random(f"tree:{k}")
        outcomes = [sample_outcome(inst, rng) for _ in range(60)]
        if k == 0:
            outcomes = [(0, 1, 2), (1, 0, 2)] * 2 + outcomes
        for w in outcomes:
            ref = reference_greedy_run(inst, w)
            assert alg_ag_sto(inst, w) == ref
            assert alg_ag_sto(inst, w, policies["greedy"], greedy_tree) == ref
            for name, policy in policies.items():
                want = reference_cover_times(
                    inst, reference_steps(inst, policy, w))
                assert policy_cover_times(inst, policy, w) == want
                assert policy_cover_times(inst, policy, w,
                                          trees[name]) == want, (k, name, w)
    inst = fixtures[0]
    policy = in_order_policy(inst)
    assert [policy_cover_times(inst, policy, w)
            for w in ((0, 1, 2), (1, 0, 2))] == [(1, 2, 3), (2, 1, 3)]


def test_replay_stops_at_full_cover():
    # element 0 covers the one target; past that the policy is not asked
    # again, and element 1's point 7, off its support, is never checked
    inst = reduce_ssc(2, [[0]], [((0, Fraction(1)),),
                                 ((0, HALF), (1, HALF))], (1, 1))
    asked = []

    def every_element(scheduled, realized):
        asked.append((scheduled, realized))
        return next((e for e in range(inst.n) if not scheduled >> e & 1),
                    None)

    runs = {}   # the second walk on a shared tree asks nothing
    for tree, want in ((None, [(0, 0)]), (runs, [(0, 0)]), (runs, [])):
        asked.clear()
        assert policy_cover_times(inst, every_element, (0, 7), tree) == (1,)
        assert asked == want
    asked.clear()
    assert reference_cover_times(
        inst, reference_steps(inst, every_element, (0, 7))) == (1,)
    assert asked == [(0, 0)]
    # alg_ag_sto still checks the whole vector up front
    with pytest.raises(ValueError, match="support"):
        alg_ag_sto(inst, (0, 7))


def tree_shape(node):
    """A run tree's topology, readable from the resumed nodes and from
    reference_run's: (element, scheduled, realized, children) per inner
    node, the RealizedSchedule at a leaf."""
    if type(node) is not tuple:
        return node
    e, kids, scheduled, realized = node[:4]
    return e, scheduled, realized, {b: tree_shape(c) for b, c in kids.items()}


def test_resumed_run_tree_matches_parent_run():
    fixtures = draw_fixtures() + [
        random_instance("random-stochastic", n, seed).stochastic
        for n in range(5, 10) for seed in range(4)]
    for k, inst in enumerate(fixtures):
        policies = {"greedy": greedy_policy(inst),
                    "in_order": in_order_policy(inst)}
        try:
            policies["optimal"] = optimal_adaptive(inst)[0]
        except CapExceeded:
            pass
        rng = random.Random(f"resume:{k}")
        outcomes = [sample_outcome(inst, rng) for _ in range(40)]
        greedy, ours, theirs = policies["greedy"], {}, {}
        for w in outcomes:
            want = reference_run(inst, greedy, w, None)
            assert alg_ag_sto(inst, w) == want, (k, w)
            assert alg_ag_sto(inst, w, greedy, ours) == want == \
                reference_run(inst, greedy, w, theirs), (k, w)
        assert tree_shape(ours[None]) == tree_shape(theirs[None]), k
        for name, policy in policies.items():
            ours, theirs = {}, {}
            for w in outcomes:
                want = reference_run(inst, policy, w, theirs).cover_times
                assert policy_cover_times(inst, policy, w) == want
                assert policy_cover_times(inst, policy, w, ours) == want, \
                    (k, name, w)
            assert tree_shape(ours[None]) == tree_shape(theirs[None]), \
                (k, name)


def test_resumed_first_cover_matches_from_scratch():
    rng = random.Random("first-cover")
    for trial in range(300):
        n = rng.randint(1, 6)
        vs = random_valuations(rng.choice(STYLES), n, trial)
        steps = [(rng.randrange(n), t) for t in range(1, rng.randint(0, 9))]
        whole = vs.first_cover(steps)
        cut = rng.randint(0, len(steps))
        head = vs.first_cover(steps[:cut])
        start = list(head)
        mask = 0
        for point, _ in steps[:cut]:
            mask |= 1 << point
        assert vs.first_cover(steps[cut:], head, mask) == whole, (trial, cut)
        assert head == start   # the start is copied, not changed
    # everything covered at the start: no step is pulled
    vs = ValuationSet.coverage(3, [[0], [1, 2]])

    def untouched():
        raise AssertionError("a step was pulled")
        yield

    assert vs.first_cover(untouched(), [4], 0b11) == [4]
    # nothing ever covered: every step is pulled and every time stays None
    vs = ValuationSet.singlegroup(4, [[0, 1], [2, 3]], [2, 2])
    pulled = []

    def steps():
        for t, point in enumerate((0, 2, 0, 2), start=1):
            pulled.append(t)
            yield point, t

    assert vs.first_cover(steps(), [None, None], 0) == [None, None] == \
        vs.first_cover([(0, 1), (2, 2), (0, 3), (2, 4)])
    assert pulled == [1, 2, 3, 4]
    assert vs.first_cover([(3, 9)], [None, 2], 0b101) == [None, 2]
    assert vs.first_cover([(1, 9)], [None, None], 0b101) == [9, None]


def test_new_node_pulls_one_cover_step(monkeypatch):
    # one sgmssc set needing all 40 coins' even points: nearly every run
    # schedules all 40 coins, so the tree grows paths of depth 40
    coins = 40
    inst = reduce_sgmssc(2 * coins, [list(range(0, 2 * coins, 2))], [coins],
                         [((2 * j, HALF), (2 * j + 1, HALF))
                          for j in range(coins)], (1,) * coins)
    calls, pulls = [], []
    first_cover = ValuationSet.first_cover

    def counted(self, steps, *start):
        calls.append(1)

        def pulled():
            for step in steps:
                pulls.append(1)
                yield step

        return first_cover(self, pulled(), *start)

    monkeypatch.setattr(ValuationSet, "first_cover", counted)
    rng, runs = random.Random("deep"), {}
    policy = in_order_policy(inst)
    for _ in range(20):   # covered at the last coin, or never: time 40
        assert policy_cover_times(inst, policy, sample_outcome(inst, rng),
                                  runs) == (coins,)
    assert len(calls) > 20 * coins // 2
    assert len(pulls) <= len(calls)


def test_invalid_outcome_leaves_no_node():
    inst = coin_instance()
    for policy in (greedy_policy(inst), optimal_adaptive(inst)[0],
                   in_order_policy(inst)):
        runs = {}
        for _ in range(2):   # a stored node would let the second walk pass
            with pytest.raises(ValueError, match="support"):
                policy_cover_times(inst, policy, (1, 0), runs)
        for w in ((1, 1), (0, 1), (1, 1)):
            assert policy_cover_times(inst, policy, w, runs) == \
                reference_cover_times(inst, reference_steps(inst, policy, w))
        with pytest.raises(ValueError, match="support"):
            policy_cover_times(inst, policy, (1, 0), runs)


def test_monte_carlo_wssr_keeps_no_instance_alive(capsys, monkeypatch):
    seen = []

    def watched(inst, rng, samples):
        seen.append(weakref.ref(inst))
        return outcome_tally(inst, rng, samples)

    monkeypatch.setattr(stochastic, "outcome_tally", watched)
    for seed in range(3):
        _cli_objective(capsys, "wssr", "--gen", f"stochastic:n=6:seed={seed}",
                       "--samples", "40")
    gc.collect()
    assert len(seen) == 3 and all(ref() is None for ref in seen)


def drawn_outcomes(gen, stream, samples):
    """The distinct outcome vectors a CLI run on --gen draws from stream."""
    inst, rng = cli.parse_genspec(gen).stochastic, random.Random(stream)
    return {sample_outcome(inst, rng) for _ in range(samples)}


def test_monte_carlo_wssr_replays_each_distinct_outcome_once(capsys,
                                                             monkeypatch):
    replayed = []

    def counted(inst, outcome, *shared):
        replayed.append(outcome)
        return alg_ag_sto(inst, outcome, *shared)

    monkeypatch.setattr(stochastic, "alg_ag_sto", counted)
    gen = "stochastic:n=7:seed=0"
    _cli_objective(capsys, "wssr", "--gen", gen, "--samples", "2000")
    distinct = drawn_outcomes(gen, "wssr-cli:0", 2000)
    assert len(replayed) == len(distinct) < 2000
    assert set(replayed) == distinct


def test_oracle_wssr_walks_each_distinct_outcome_once_per_policy(
        capsys, monkeypatch):
    walked = []

    def counted(inst, policy, outcome, *runs):
        walked.append(outcome)
        return policy_cover_times(inst, policy, outcome, *runs)

    monkeypatch.setattr(stochastic, "policy_cover_times", counted)
    gen = "stochastic:n=4:seed=1"
    assert cli.main(["wssr", "--gen", gen, "--oracle", "--samples", "2000",
                     "--seed", "3"]) == 0
    capsys.readouterr()
    distinct = drawn_outcomes(gen, "wssr-mc:3", 2000)
    assert len(walked) == 2 * len(distinct) < 2000
    assert Counter(walked) == Counter(dict.fromkeys(distinct, 2))


def test_monte_carlo_wssr_peak_memory(capsys):
    """A Monte-Carlo wssr run of 200,000 samples on stochastic:n=8:seed=1
    allocates at most 2 MB at its peak under tracemalloc. On Python 3.11
    the per-sample loop read 0.37 MB and the blocked tally reads 0.71 MB;
    one Counter over every draw, with no blocks, reads 22.7 MB.
    Deterministic, unlike a timing bound."""
    tracemalloc.start()
    try:
        _cli_objective(capsys, "wssr", "--gen", "stochastic:n=8:seed=1",
                       "--samples", "200000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10**6, peak


def test_support_points_prepared_once():
    inst = coin_instance()
    assert inst.support_points is inst.support_points
    assert inst.support_points == tuple(
        frozenset(b for b, _ in supp) for supp in inst.supports)
    greedy = greedy_policy(inst)
    runs = {}
    assert alg_ag_sto(inst, (1, 1), greedy, runs) == reference_greedy_run(
        inst, (1, 1))
    # element 0 drawing the target ends the run before element 1, whose
    # point is checked all the same
    with pytest.raises(ValueError, match="not in element 1's support"):
        alg_ag_sto(inst, (0, 0), greedy, runs)


# ---- integer kernels against their Fraction forms ----------------------------

def reference_score(inst, scheduled, realized, e):
    """Test-only copy of sto_residual_score's Fraction body: one Fraction
    product and sum per support point."""
    if scheduled & (1 << e):
        raise ValueError("element already scheduled")
    residual = ResidualFunction(inst.valuations, realized)
    gain = sum((p * residual.num(1 << b) for b, p in inst.supports[e]),
               Fraction(0))
    return gain / (residual.den * inst.lengths[e])


def reference_expected(inst, policy=None):
    """Test-only copy of _expected's Fraction recursion: (scheduled,
    realized) -> (expected remaining cost, element taken or None)."""
    stochastic._check_adaptive_cap(inst)
    functions, lengths = inst.valuations.functions, inst.lengths

    @functools.cache
    def solve(scheduled, realized):
        uncovered = sum(1 for f in functions if f.num(realized) < f.den)

        def step(e):
            return lengths[e] * uncovered + sum(
                p * solve(scheduled | (1 << e), realized | (1 << b))[0]
                for b, p in inst.supports[e])

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
        return Fraction(uncovered * left), None

    return solve


def reference_sto_recurrence(inst, policy, samples, seed):
    """Test-only copy of check_sto_recurrence keeping one (greedy,
    reference) cover-time pair per sample and counting each sample."""
    rng = random.Random(f"wssr-mc:{seed}")
    greedy = greedy_policy(inst)
    greedy_runs, policy_runs = {}, {}
    times = [(policy_cover_times(inst, greedy, w, greedy_runs),
              policy_cover_times(inst, policy, w, policy_runs))
             for w in (sample_outcome(inst, rng) for _ in range(samples))]

    def counts(t, t_star):
        return [(uncovered_at(ct, t), uncovered_at(ct_star, t_star))
                for ct, ct_star in times]

    ok, sums = check_decay(counts, checkpoint_base(inst.valuations.alpha),
                           inst.total_length)
    rows = []
    dof = max(1, samples - 1)
    for j, r_j, prev, r_star, ds, dq in sums:
        mean_d = ds / samples
        var = (dq / samples - mean_d ** 2) * samples / dof
        se = math.sqrt(max(0.0, var) / samples) / 4
        rows.append((j, r_j / samples, prev / samples, r_star / samples, se))
    return ok, rows


def tied_instances():
    """Derandomized small instances, each with a copy of one element (same
    support, same length) appended, so every state scores a tie while both
    are unscheduled. Probabilities have denominators up to 12 and lengths
    run 1..3, so the kernels' d_e, T and D differ between elements."""
    rng = random.Random("int-kernels")
    out = []
    for _ in range(24):
        domain = rng.randint(2, 5)
        supports, lengths = [], []
        for _ in range(rng.randint(2, 3)):
            pts = sorted(rng.sample(range(domain), rng.randint(1, 3)
                                    if domain >= 3 else 1))
            weights = [rng.randint(1, 4) for _ in pts]
            supports.append(tuple((b, Fraction(w, sum(weights)))
                                  for b, w in zip(pts, weights)))
            lengths.append(rng.randint(1, 3))
        twin = rng.randrange(len(supports))
        supports.append(supports[twin])
        lengths.append(lengths[twin])
        groups = [sorted(rng.sample(range(domain), rng.randint(1, domain)))
                  for _ in range(rng.randint(1, 3))]
        reqs = [rng.randint(1, len(g)) for g in groups]
        out.append(StochasticInstance(
            domain, tuple(supports), tuple(lengths),
            ValuationSet.singlegroup(domain, groups, reqs)))
    return out


def knowledge_states(inst):
    """Every (scheduled, realized) pair some outcome reaches, in order."""
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        scheduled, realized = frontier.pop()
        for e in range(inst.n):
            if not scheduled >> e & 1:
                for b, _ in inst.supports[e]:
                    state = (scheduled | 1 << e, realized | 1 << b)
                    if state not in seen:
                        seen.add(state)
                        frontier.append(state)
    return sorted(seen)


def test_integer_scores_match_fraction_form():
    ties = 0
    for inst in c13_fixtures() + tied_instances():
        total, weights = inst.int_weights
        for (d, w, pairs), supp, length in zip(weights, inst.supports,
                                               inst.lengths):
            assert d * length * w == total
            for (bit, c), (b, p) in zip(pairs, supp, strict=True):
                assert (bit, Fraction(w * c, total)) == (1 << b, p / length)
        rule = greedy_policy(inst)
        for scheduled, realized in knowledge_states(inst):
            residual = ResidualFunction(inst.valuations, realized)
            free = [e for e in range(inst.n) if not scheduled >> e & 1]
            want = [reference_score(inst, scheduled, realized, e)
                    for e in free]
            for shared in ({}, {"residual": residual}):
                got = [sto_residual_score(inst, scheduled, realized, e,
                                          **shared) for e in free]
                assert got == want
                assert all(type(g) is Fraction for g in got)
            best = None
            if free and residual.uncovered:
                best = free[want.index(max(want))]
                ties += want.count(max(want)) > 1
            assert rule(scheduled, realized) == best
    assert ties > 100


def test_integer_expected_costs_match_fraction_form():
    for inst in c13_fixtures() + tied_instances():
        optimal, total = optimal_adaptive(inst)
        assert type(total) is Fraction
        assert total == reference_expected(inst)(0, 0)[0]
        for name, policy in [("none", None),
                             *pinned_policies(inst, optimal).items()]:
            solve, scale = stochastic._expected(inst, policy)
            ref = reference_expected(inst, policy)
            for state in knowledge_states(inst):
                value, e = solve(*state)
                want, want_e = ref(*state)
                assert type(value) is int, (name, state)
                assert (Fraction(value, scale), e) == (want, want_e), \
                    (name, state)
                if policy is None:
                    assert optimal(*state) == want_e, state
            if policy is not None:
                assert evaluate_policy(inst, policy) == ref(0, 0)[0]


def test_recurrence_counts_match_per_sample_pairs():
    for inst in c13_fixtures() + tied_instances():
        optimal, _ = optimal_adaptive(inst)
        for policy in pinned_policies(inst, optimal).values():
            for samples, seed in ((1, 0), (2, 1), (80, 5)):
                assert check_sto_recurrence(inst, policy, samples, seed) == \
                    reference_sto_recurrence(inst, policy, samples, seed)
