#!/usr/bin/env python3
"""Walk the adaptive-greedy ranking on a small random valuation set.

Generates one instance per style, runs the greedy, compares against the
exact minimizer, and prints the doubling-checkpoint recurrence table that
the approximation proof rides on.
"""

from fractions import Fraction

from latcov.instances.generators import random_valuations
from latcov.ranking import (alg_ag, brute_force_ranking, check_recurrence,
                            checkpoint_base)

LINE = "-" * 72


def show(style: str, n: int, seed: int) -> None:
    vs = random_valuations(style, n, seed)
    order = alg_ag(vs)
    opt = brute_force_ranking(vs)
    alpha = vs.alpha
    print(LINE)
    print(f"{style} valuations  n={n}  m={vs.m}  seed={seed}")
    print(f"  epsilon        {vs.epsilon}")
    print(f"  alpha          {alpha}  (~{float(alpha):.6f})")
    print(f"  greedy order   {order.permutation}")
    print(f"  cover times    {order.cover_times}  objective {order.objective}")
    print(f"  exact optimum  {opt.permutation}  objective {opt.objective}")
    ratio = Fraction(order.objective, opt.objective)
    cap = 56 * alpha
    print(f"  ratio          {ratio} <= 56*alpha = {float(cap):.3f}"
          f"  ({float(ratio / cap):.4f} of the cap)")

    ok, rows = check_recurrence(order, opt, alpha)
    base = checkpoint_base(alpha)
    print(f"  checkpoints at {base}*2^j: "
          + ", ".join(str(base * 2 ** j) for j, *_ in rows))
    print(f"  recurrence R_j <= R_(j-1)/4 + R*_j   [{'ok' if ok else 'VIOLATED'}]")
    for j, rj, prev, rstar in rows:
        print(f"    j={j}  R_j={rj}  bound={prev}/4 + {rstar}"
              f" = {float(Fraction(prev, 4) + rstar):.2f}")
    assert ok


def main() -> None:
    for style, seed in (("coverage", 3), ("multicoverage", 5),
                        ("singlegroup", 2), ("explicit", 8)):
        show(style, n=6, seed=seed)
    print(LINE)
    print("all four styles stayed within 56*alpha and satisfied the recurrence")


if __name__ == "__main__":
    main()
