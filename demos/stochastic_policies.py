#!/usr/bin/env python3
"""Adaptive policies on stochastic cover instances.

Shows the non-adaptive greedy schedule on sampled outcomes, the exact
expected cost of the greedy policy versus the optimal adaptive policy,
and the set-cover reduction that turns plain sets into the weighted
stochastic form.
"""

import math
import random
from fractions import Fraction

from latcov.instances.generators import random_instance
from latcov.stochastic import (alg_ag_sto, evaluate_policy, greedy_policy,
                               optimal_adaptive, outcome_tally, reduce_ssc,
                               sample_outcome)


def main():
    inst = random_instance("random-stochastic", n=4, seed=33).stochastic
    n = inst.n
    print(f"stochastic instance: {n} items, lengths {inst.lengths}")
    for i in range(n):
        pts = ", ".join(f"{v} w.p. {p}" for v, p in inst.supports[i])
        print(f"  item {i}: {pts}")
    print()

    rng = random.Random(7)
    for trial in range(3):
        outcome = sample_outcome(inst, rng)
        run = alg_ag_sto(inst, outcome)
        print(f"sampled outcome {trial}: order {run.order}, "
              f"cover times {run.cover_times}, objective {run.objective}")
    print()

    gp = greedy_policy(inst)
    opt, opt_cost = optimal_adaptive(inst)
    ge = evaluate_policy(inst, gp)
    oe = evaluate_policy(inst, opt)
    assert oe == opt_cost
    print(f"greedy policy expected cost   {ge} (~{float(ge):.4f})")
    print(f"optimal adaptive expected cost {oe} (~{float(oe):.4f})")
    print(f"ratio {float(ge / oe):.4f}")
    assert ge >= oe

    # sampling is what wssr falls back on past the exact cap: the draws are
    # tallied, and each distinct outcome is replayed once, on one run tree
    # shared by every replay of the greedy rule
    samples, runs = 20000, {}
    tally = [(alg_ag_sto(inst, w, gp, runs).objective, k)
             for w, k in outcome_tally(inst, random.Random(5), samples)]
    mean = sum(k * o for o, k in tally) / samples
    var = sum(k * (o - mean) ** 2 for o, k in tally) / (samples - 1)
    stderr = math.sqrt(var / samples)
    err = abs(mean - float(ge))
    print(f"monte-carlo replay of the greedy policy: {mean:.4f} "
          f"+- {stderr:.4f} (true {float(ge):.4f}, off by {err:.4f})")
    assert err <= 4 * stderr + 1e-9
    print()

    # classic set cover as the degenerate special case: one 0/1 item per set
    sets = [{0, 1}, {1, 2}, {2, 3}]
    supports = [((0, Fraction(1, 2)), (1, Fraction(1, 2)))] * 3
    red = reduce_ssc(domain=4, sets=sets, supports=supports, lengths=[1, 1, 1])
    print(f"reduce_ssc: domain 4, sets {sets} -> {red.n} items, "
          f"{red.valuations.m} coverage functions")
    pol, _ = optimal_adaptive(red)
    print(f"optimal adaptive cost on the reduction: "
          f"{evaluate_policy(red, pol)}")


if __name__ == "__main__":
    main()
