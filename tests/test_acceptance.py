"""Acceptance battery: fourteen end-to-end criteria, one verdict line each.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to see the checklist;
every criterion prints `ACCEPT Cnn <name>: PASS/FAIL (<headline numbers>)`
before asserting. All sampling is seeded, so each verdict is deterministic.
"""

import math
import random
from fractions import Fraction

from latcov.instances.generators import (random_instance, random_valuations)
from latcov.instances.metrics import uniform_metric
from latcov.instances.stoch import StochasticInstance
from latcov.instances.trees import GroupedTree
from latcov.lcst.lp import solve_lp_lcst
from latcov.lcst.mincut import CutQuery, min_cut_with_exceptions
from latcov.lcst.rounding import krs_round, level_tour, path_within
from latcov.lcst.separation import separate_kc
from latcov.mlsc import alg_mlsc, brute_force_latency, check_mlsc_recurrence
from latcov.orienteering import SopQuery, sop_exact, sop_recursive_greedy
from latcov.ranking import (alg_ag, brute_force_ranking, check_log_claim,
                            check_recurrence)
from latcov.stochastic import (alg_ag_sto, check_sto_recurrence,
                               evaluate_policy, greedy_policy,
                               optimal_adaptive, reduce_filter)

from test_lcst_cuts import (brute_kc_deficit, brute_min_cut, monotone_x,
                            random_cut_tree)
from test_lcst_lp import integral_point
from test_orienteering import median_distance, random_cover, random_grid_metric
from test_stochastic import c13_fixtures, identity_instance
from util import random_grouped_tree, single_leaf_tree, tree_tour_optimum, \
    two_level_tree


def report(cid, name, ok, info=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({info})" if info else ""
    print(f"\nACCEPT {cid} {name}: {verdict}{tail}")
    assert ok, f"{cid} {name} failed: {info}"


# 1. greedy ranking within the proof constant on explicit/GMSSC instances
def test_c01_ranking_ratio():
    worst = Fraction(0)
    for seed in range(300):
        style = "explicit" if seed % 2 == 0 else "singlegroup"
        vs = random_valuations(style, 4 + seed % 4, seed)
        order = alg_ag(vs)
        opt = brute_force_ranking(vs)
        norm = Fraction(order.objective, opt.objective) / (56 * vs.alpha)
        worst = max(worst, norm)
    report("C01", "ranking ratio <= 56*alpha on 300 instances", worst <= 1,
           f"max ratio/(56 alpha) = {float(worst):.4f}")


# 2. quarter-decay recurrence is unconditional
def test_c02_ranking_recurrence():
    failures = 0
    for seed in range(200):
        vs = random_instance("random-groups", 4 + seed % 4, seed).valuations
        order = alg_ag(vs)
        opt = brute_force_ranking(vs)
        ok, _ = check_recurrence(order, opt, vs.alpha)
        failures += not ok
    report("C02", "recurrence holds on 200/200 seeds", failures == 0,
           f"failures = {failures}")


# 3. chain sums bounded by 1 + ln(1/eps) for every valuation kind
def _wtc_valuations(seed):
    rng = random.Random(f"c3-wtc:{seed}")
    nf = rng.randint(2, 4)
    queries = sorted({tuple(sorted(rng.sample(range(nf),
                                              rng.randint(1, nf))))
                      for _ in range(2)})
    sel = [Fraction(rng.randint(1, 3), 4) for _ in range(nf)]
    return reduce_filter(queries, sel, [1] * nf).valuations


def test_c03_chain_claim():
    kinds = {
        "coverage": lambda s: random_valuations("coverage", 4 + s % 3, s),
        "multicoverage": lambda s: random_valuations("multicoverage",
                                                     4 + s % 3, s),
        "singlegroup": lambda s: random_valuations("singlegroup",
                                                   4 + s % 3, s),
        "explicit": lambda s: random_valuations("explicit", 4 + s % 3, s),
        "wtc": _wtc_valuations,
    }
    checked, failures = 0, 0
    for kind, make in sorted(kinds.items()):
        for s in range(25):
            vs = make(s)
            bound = 1 + math.log(1 / vs.epsilon) + 1e-9
            rng = random.Random(f"c3-chain:{kind}:{s}")
            full = (1 << vs.n) - 1
            for _ in range(20):
                chain, mask = [0], 0
                while mask != full:
                    mask |= rng.getrandbits(vs.n) & full
                    chain.append(mask)
                checked += 1
                for fn in vs.functions:
                    failures += float(check_log_claim(fn, chain)) > bound
    report("C03", "chain sums <= 1 + ln(1/eps), 500 chains per kind",
           failures == 0, f"chains per kind = {checked // 5}, "
           f"failures = {failures}")


# 4. recursive greedy keeps the logarithmic guarantee against the exact DFS
def test_c04_sop_contract():
    failures, worst = 0, 0.0
    for seed in range(300):
        rng = random.Random(f"c4:{seed}")
        n = 4 + seed % 6
        metric = uniform_metric(n) if rng.random() < 0.5 \
            else random_grid_metric(rng, n)
        goal = random_cover(rng, n)
        med = median_distance(metric)
        budget = rng.choice([max(1, med // 2), med, med + 1])
        q = SopQuery(metric, 0, goal, budget)
        exact = sop_exact(q)
        res = sop_recursive_greedy(q)
        rho = max(1, (n - 1).bit_length()) + 1
        ok = res.length <= budget and res.value * rho >= exact.value
        failures += not ok
        if exact.value > 0:
            worst = max(worst, float(exact.value / max(res.value,
                                                       Fraction(1, 10**9))))
    report("C04", "recursive greedy >= exact/(ceil(log2 n)+1), length <= B",
           failures == 0, f"300 queries, worst exact/greedy = {worst:.3f}")


# 5. latency cover with the exact path solver stays within 56*alpha
def test_c05_mlsc_ratio_and_recurrence():
    worst, rec_failures = Fraction(0), 0
    for seed in range(150):
        kind = "uniform-metric" if seed % 2 == 0 else "euclidean-grid-metric"
        inst = random_instance(kind, 4 + seed % 3, seed)
        tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact, 1, 1)
        opt = brute_force_latency(inst.metric, inst.valuations)
        ok, _ = check_mlsc_recurrence(tour, log, opt)
        rec_failures += not ok
        if opt.objective > 0:
            norm = Fraction(tour.objective, opt.objective) \
                / (56 * inst.valuations.alpha)
            worst = max(worst, norm)
        else:
            rec_failures += tour.objective != 0
    report("C05", "mlsc ratio <= 56*alpha and recurrence on 150 instances",
           worst <= 1 and rec_failures == 0,
           f"max ratio/(56 alpha) = {float(worst):.4f}, "
           f"recurrence failures = {rec_failures}")


# 6. cut DP equals exhaustive enumeration
def test_c06_mincut_exhaustive():
    checked, failures = 0, 0
    for seed in range(500):
        rng = random.Random(f"c6:{seed}")
        n = rng.randint(4, 11)
        edges = random_cut_tree(rng, n)
        costs = tuple(rng.randint(0, 9) for _ in edges)
        leaves = len({c for c, _ in edges} - {p for _, p in edges})
        for bound in range(leaves + 2):
            value, _ = min_cut_with_exceptions(CutQuery(edges, costs, 0,
                                                        bound))
            failures += value != brute_min_cut(edges, costs, 0, bound)
            checked += 1
    report("C06", "cut DP == exhaustive on 500 trees", failures == 0,
           f"{checked} (tree, bound) pairs, failures = {failures}")


# 7. KC separation equals brute (A, B) enumeration
def _c7_point(seed):
    rng = random.Random(f"c7:{seed}")
    n = 5 + seed % 7
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    weight = [0] + [rng.randint(1, 6) for _ in range(1, n)]
    kids = {p for p in parent if p is not None}
    leaves = [v for v in range(1, n) if v not in kids]
    rng.shuffle(leaves)
    cut = max(1, len(leaves) // 2) if len(leaves) > 1 else 1
    groups = [tuple(sorted(leaves[:cut]))]
    if leaves[cut:]:
        groups.append(tuple(sorted(leaves[cut:])))
    reqs = [rng.randint(1, len(g)) for g in groups]
    tree = GroupedTree(parent, weight, 0, groups, reqs)
    return tree, monotone_x(tree, rng), Fraction(rng.randint(1, 4), 4)


def test_c07_separation_exhaustive():
    tol = Fraction(1, 10**9)
    checked, failures = 0, 0
    for seed in range(200):
        tree, x, y = _c7_point(seed)
        for g, k in zip(tree.groups, tree.reqs):
            got = separate_kc(tree, g, k, x, y, tol=tol)
            deficit, eta = brute_kc_deficit(tree, g, k, x, y)
            if deficit <= tol:
                failures += got is not None
            else:
                failures += got is None or (got.deficit, got.eta) != (deficit,
                                                                      eta)
            checked += 1
    report("C07", "separate_kc == brute (A,B) enumeration, 200 points",
           failures == 0, f"{checked} group checks, failures = {failures}")


# 8. integral solutions are separation-feasible; the LP lower-bounds them
def test_c08_lp_validity_and_bound():
    sep_failures, bound_failures = 0, 0
    for seed in range(50):
        tree = random_grouped_tree(300 + seed, 6 + seed % 3)
        sol = solve_lp_lcst(tree)
        assert sol.exact
        opt, _ = tree_tour_optimum(tree)
        bound_failures += not sol.objective <= opt
        rng = random.Random(f"c8:{seed}")
        bought, lv0 = integral_point(tree, rng)
        for lv in range(sol.levels + 1):
            on = Fraction(1 if lv >= lv0 else 0)
            x = {e: (on if e in bought else Fraction(0)) for e in tree.edges}
            for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
                sep_failures += separate_kc(tree, g, k, x, on) is not None
    report("C08", "integral passes separation; LP <= integral optimum",
           sep_failures == 0 and bound_failures == 0,
           f"50 instances, separation failures = {sep_failures}, "
           f"bound failures = {bound_failures}")


# 9. dependent rounding preserves per-edge marginals
def _c9_fixtures():
    trees = [single_leaf_tree(3), two_level_tree(),
             GroupedTree((None, 0, 1), (0, 1, 2), 0, ((2,),), (1,)),
             GroupedTree((None, 0, 0, 0, 0), (0, 1, 1, 2, 1), 0,
                         ((1, 2, 3, 4),), (2,))]
    trees += [random_grouped_tree(400 + i, 4 + i % 3) for i in range(16)]
    return trees


def test_c09_krs_marginals():
    samples = 10**5
    worst, failures = 0.0, 0
    for i, tree in enumerate(_c9_fixtures()):
        zrng = random.Random(f"c9z:{i}")
        z = {}
        for v in tree.topo_order():
            if v == tree.root:
                continue
            roof = z.get(tree.parent[v], Fraction(1))
            z[v] = roof * Fraction(zrng.randint(2, 4), 4)
        srng = random.Random(f"c9s:{i}")
        counts = dict.fromkeys(tree.edges, 0)
        for _ in range(samples):
            for e in krs_round(tree, z, srng.getrandbits(32)):
                counts[e] += 1
        for e in tree.edges:
            freq = counts[e] / samples
            se = math.sqrt(float(z[e] * (1 - z[e])) / samples)
            dev = abs(freq - float(z[e]))
            failures += dev > 3 * se + 1e-12
            if se > 0:
                worst = max(worst, dev / se)
    report("C09", "krs marginals within 3 SE at 1e5 on 20 trees",
           failures == 0, f"worst |dev|/se = {worst:.2f}")


# 10. half-covered groups are covered by an accepted phase most of the time
def test_c10_cover_probability():
    trees = [two_level_tree(), random_grouped_tree(101, 7),
             random_grouped_tree(102, 7), random_grouped_tree(103, 6),
             random_grouped_tree(104, 8)]
    seeds, need = 500, 350
    checked, low = 0, 1.0
    failures = 0
    for tree in trees:
        sol = solve_lp_lcst(tree)
        for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
            lv = sol.level_of[gi]   # smallest level with y >= 1/2
            hits = 0
            for s in range(seeds):
                ph = level_tour(tree, sol, lv, s)
                covered = sum(1 for j in g
                              if path_within(tree, j, ph.selected)) >= k
                hits += ph.accepted and covered
            checked += 1
            low = min(low, hits / seeds)
            failures += hits < need
    report("C10", "accepted-phase cover probability >= 0.70 over 500 seeds",
           failures == 0, f"{checked} groups, min probability = {low:.3f}")


# 11. point-mass unit-length instances reproduce the deterministic greedy
def test_c11_wssr_degenerate():
    failures = 0
    for seed in range(100):
        vs = random_instance("random-groups", 3 + seed % 4, seed).valuations
        inst = identity_instance(vs)
        order = alg_ag(vs)
        run = alg_ag_sto(inst, tuple(range(vs.n)))
        ok = (run.order == order.permutation[:len(run.order)]
              and run.cover_times == order.cover_times
              and run.objective == order.objective)
        failures += not ok
    report("C11", "degenerate stochastic ordering == alg_ag on 100 instances",
           failures == 0, f"failures = {failures}")


# 12. exact expected greedy cost within 56*alpha of the optimal policy
def test_c12_wssr_ratio():
    worst = Fraction(0)
    for seed in range(300):
        inst = random_instance("random-stochastic", 3 + seed % 2,
                               seed).stochastic
        alg = evaluate_policy(inst, greedy_policy(inst))
        _, opt = optimal_adaptive(inst)
        worst = max(worst, alg / (56 * inst.valuations.alpha * opt))
    report("C12", "wssr exact ratio <= 56*alpha on 300 instances", worst <= 1,
           f"max ratio/(56 alpha) = {float(worst):.4f}")


# 13. stochastic quarter-decay recurrence in Monte Carlo
def test_c13_stochastic_recurrence():
    failures = 0
    for inst in c13_fixtures():
        policy, _ = optimal_adaptive(inst)
        ok, _ = check_sto_recurrence(inst, policy, samples=10**4, seed=0)
        failures += not ok
    report("C13", "stochastic recurrence within 3 SE at 1e4 on 20 fixtures",
           failures == 0, f"failures = {failures}")


# 14. identical configurations emit identical bytes
def test_c14_cli_determinism(capsys):
    import os
    from latcov import cli

    star = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "star.lcov")
    cases = [
        ["rank", "--gen", "explicit:n=6:seed=1", "--oracle"],
        ["lcst", "--tree", star, "--round-seed", "9"],
        ["wssr", "--gen", "stochastic:n=3:seed=4", "--oracle",
         "--samples", "300", "--format", "json"],
        ["suite", "wssr-lemmas", "--seeds", "2", "--samples", "100"],
    ]
    mismatches = 0
    for argv in cases:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        mismatches += not (code1 == code2 == 0 and out1 == out2 and out1)
    report("C14", "CLI byte-identical across repeated invocations",
           mismatches == 0, f"{len(cases)} configs, mismatches = {mismatches}")
