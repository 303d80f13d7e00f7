#!/usr/bin/env python3
"""Phase-by-phase view of the min-latency cover tour.

Runs the doubling-budget algorithm with the exact orienteering solver
plugged in (it declares rho = sigma = 1), prints what each phase collected, and
compares the final tour against the brute-force latency optimum.
"""

from fractions import Fraction

from latcov.instances.generators import random_instance
from latcov.mlsc import (alg_mlsc, brute_force_latency, check_mlsc_recurrence,
                         mlsc_checkpoint_base)
from latcov.orienteering import sop_exact


def main():
    inst = random_instance("uniform-metric", n=5, seed=21)
    metric, vs = inst.metric, inst.valuations
    print(f"metric on {metric.n} points, {vs.m} valuations, "
          f"root {metric.root}")

    tour, log = alg_mlsc(metric, vs, sop_exact)
    print(f"alpha {log.alpha} (~{float(log.alpha):.4f}), "
          f"{log.augmentations} augmentations per phase")
    print()
    for k, ph in enumerate(log.phases):
        print(f"phase {k}: budget {ph.budget:>4}  "
              f"collected {ph.added or '()'}  walk length {ph.end_length}")
    print()
    print(f"final walk    {tour.walk}")
    print(f"prefix        {tour.prefix}")
    print(f"cover times   {tour.cover_times}   objective {tour.objective}")

    opt = brute_force_latency(metric, vs)
    ratio = Fraction(tour.objective, opt.objective)
    cap = 56 * log.alpha
    print(f"optimum walk  {opt.walk}   objective {opt.objective}")
    print(f"ratio {ratio} (~{float(ratio):.3f}) vs cap 56*alpha ~ {float(cap):.1f}")
    assert ratio <= cap

    ok, rows = check_mlsc_recurrence(tour, log, opt)
    base = mlsc_checkpoint_base(log.alpha, log.rho, log.sigma)
    print()
    print(f"checkpoint recurrence [{'ok' if ok else 'VIOLATED'}]:")
    for j, rj, prev, rstar in rows:
        print(f"  j={j}: {rj} uncovered after t_j={base << j}, "
              f"bound {prev}/4 + {rstar}")
    assert ok


if __name__ == "__main__":
    main()
