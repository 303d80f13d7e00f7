"""Latency cover walks: phase construction, exact oracle, decay recurrence."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from latcov.errors import CapExceeded, Uncoverable
from latcov.instances.generators import random_instance
from latcov.instances.metrics import GridPoints, metric_from_matrix, uniform_metric
from latcov.instances.valuations import ValuationSet, check_submodular
from latcov.mlsc import (LatencyTour, ResidualValuation, alg_mlsc,
                         PhaseLog, augmentation_count, brute_force_latency,
                         check_mlsc_recurrence, mlsc_checkpoint_base)
from latcov.orienteering import (EXACT_CAP, SopResult, greedy_rho,
                                  sop_exact, sop_recursive_greedy)
from latcov.ranking import alg_ag, brute_force_ranking

from util import pairwise_submodular, reference_alg_mlsc

PATH_METRIC = metric_from_matrix([[0, 2, 5], [2, 0, 3], [5, 3, 0]])


def mlsc_instance(seed, n=6):
    kind = "uniform-metric" if seed % 2 == 0 else "euclidean-grid-metric"
    return random_instance(kind, n, seed)


def test_from_walk_prefix_and_cover_times():
    vs = ValuationSet.singlegroup(3, [[1], [2]], [1, 1])
    tour = LatencyTour.from_walk(PATH_METRIC, vs, [0, 1, 2])
    assert tour.prefix == (0, 2, 5)
    assert tour.cover_times == (2, 5)
    assert tour.objective == 7


def test_from_walk_rejects_bad_walks():
    vs = ValuationSet.singlegroup(3, [[1], [2]], [1, 1])
    with pytest.raises(ValueError):
        LatencyTour.from_walk(PATH_METRIC, vs, [1, 0, 2])
    with pytest.raises(Uncoverable):
        LatencyTour.from_walk(PATH_METRIC, vs, [0, 1])


def test_residual_valuation_is_monotone_submodular():
    for seed in range(6):
        inst = mlsc_instance(seed, n=5)
        for s_mask in (1, 3, 9):
            res = ResidualValuation(inst.valuations, s_mask)
            assert pairwise_submodular(res, 5)
            assert check_submodular(res, 5)


def test_brute_force_single_vertex():
    vs = ValuationSet.singlegroup(3, [[2]], [1])
    opt = brute_force_latency(PATH_METRIC, vs)
    assert opt.objective == PATH_METRIC.d(0, 2)


def test_brute_force_two_functions_near_first():
    vs = ValuationSet.singlegroup(3, [[1], [2]], [1, 1])
    opt = brute_force_latency(PATH_METRIC, vs)
    both = [LatencyTour.from_walk(PATH_METRIC, vs, [0, 1, 2]),
            LatencyTour.from_walk(PATH_METRIC, vs, [0, 2, 1])]
    assert opt.objective == min(t.objective for t in both) == 7
    assert opt.walk == (0, 1, 2)


def test_brute_force_uniform_matches_ranking_objective():
    # on a uniform metric every hop costs 1 and the root covers nothing,
    # so the best walk's latency equals the best ranking objective
    for seed in range(8):
        inst = random_instance("uniform-metric", 5, seed)
        latency = brute_force_latency(inst.metric, inst.valuations)
        ranking = brute_force_ranking(inst.valuations)
        assert latency.objective == ranking.objective


def permutation_latency(metric, vs):
    """Test-only copy of the permutation scan brute_force_latency replaced:
    every order of the non-root vertices, ties to the smallest walk.
    Returns the best tour and how many walks attain its objective."""
    r = metric.root
    others = [v for v in range(metric.n) if v != r]
    best, ties = None, 0
    for perm in itertools.permutations(others):
        tour = LatencyTour.from_walk(metric, vs, (r,) + perm)
        if best is None or tour.objective < best.objective:
            best, ties = tour, 1
        elif tour.objective == best.objective:
            ties += 1
            best = min(best, tour, key=lambda t: t.walk)
    return best, ties


def test_subset_dp_matches_permutation_scan():
    one = (metric_from_matrix([[0]]), ValuationSet.singlegroup(1, [[0]], [1]))
    assert brute_force_latency(*one) == permutation_latency(*one)[0]
    tied = 0
    for kind in ("uniform-metric", "euclidean-grid-metric"):
        for n in range(2, 8):
            for seed in range(40):
                inst = random_instance(kind, n, seed)
                want, ties = permutation_latency(inst.metric, inst.valuations)
                got = brute_force_latency(inst.metric, inst.valuations)
                assert got == want, (kind, n, seed)
                tied += ties > 1
    assert tied > 100


def test_brute_force_cap():
    vs = ValuationSet.singlegroup(8, [[1]], [1])
    with pytest.raises(CapExceeded):
        brute_force_latency(uniform_metric(8), vs)


def test_single_target_objective_is_distance():
    for seed in range(6):
        inst = mlsc_instance(seed, n=6)
        metric = inst.metric
        target = 3
        vs = ValuationSet.singlegroup(6, [[target]], [1])
        tour, log = alg_mlsc(metric, vs, sop_exact)
        assert tour.cover_times == (metric.d(0, target),)
        assert tour.objective == metric.d(0, target)
        # ... and within the phase checkpoint that first affords the target
        base = mlsc_checkpoint_base(vs.alpha, 1, 1)
        k = 0
        while (1 << k) < metric.d(0, target):
            k += 1
        assert tour.objective <= base * (1 << k)
        assert log.phases[-1].budget == 1 << k


def test_uniform_metric_matches_greedy_ranking():
    # with unit distances and budget-1 phases, each augmentation buys the
    # same argmax vertex the ranking greedy would pick, so arrivals land at
    # odd prefixes 2t-1
    for seed in range(10):
        inst = random_instance("uniform-metric", 6, seed)
        tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact)
        order = alg_ag(inst.valuations)
        horizon = max(order.cover_times)
        assert len(log.phases) == 1
        assert log.phases[0].added == order.permutation[:horizon]
        for i in range(inst.valuations.m):
            assert tour.cover_times[i] == 2 * order.cover_times[i] - 1


def test_walk_structure_and_phase_bookkeeping():
    for seed in range(10):
        inst = mlsc_instance(seed, n=6)
        tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact)
        assert tour.walk[0] == 0
        recomputed = LatencyTour.from_walk(inst.metric, inst.valuations,
                                           tour.walk)
        assert recomputed == tour
        base = mlsc_checkpoint_base(inst.valuations.alpha, 1, 1)
        arrival = {}
        for pos, v in enumerate(tour.walk):
            arrival.setdefault(v, tour.prefix[pos])
        for j, rec in enumerate(log.phases):
            assert rec.end_length <= base * (1 << j)
            for res in rec.results:
                assert res.length <= rec.budget
            for v in rec.added:
                assert arrival[v] <= rec.end_length


def test_ratio_versus_exact_optimum():
    for seed in range(20):
        inst = mlsc_instance(seed, n=6)
        tour, _ = alg_mlsc(inst.metric, inst.valuations, sop_exact)
        opt = brute_force_latency(inst.metric, inst.valuations)
        assert tour.objective <= 56 * inst.valuations.alpha * opt.objective


def test_zero_diameter_is_free():
    metric = GridPoints(((0, 0), (0, 0), (0, 0))).to_metric()
    vs = ValuationSet.coverage(3, [[1], [2]])
    tour, _ = alg_mlsc(metric, vs, sop_exact)
    assert tour.objective == 0


def test_stalling_solver_raises():
    vs = ValuationSet.singlegroup(3, [[2]], [1])

    def lazy(q):
        return SopResult((q.root,), 0, q.valuation.value(1 << q.root), (1, 1))

    with pytest.raises(Uncoverable):
        alg_mlsc(PATH_METRIC, vs, lazy)


def test_overlong_solver_path_rejected():
    vs = ValuationSet.singlegroup(3, [[2]], [1])

    def liar(q):
        return SopResult((q.root, 2), 5, q.valuation.value(0b101), (1, 1))

    with pytest.raises(ValueError):
        alg_mlsc(PATH_METRIC, vs, liar)


def test_solver_changing_its_guarantee_is_refused():
    # the target sits past the first budgets, so the run asks more than once
    vs = ValuationSet.singlegroup(3, [[2]], [1])
    answers = []

    def fickle(q):
        answers.append(q)
        return dataclasses.replace(sop_exact(q), guarantee=(len(answers), 1))

    with pytest.raises(ValueError, match=r"declared \(2, 1\) after \(1, 1\)"):
        alg_mlsc(PATH_METRIC, vs, fickle)
    assert len(answers) == 2


def test_root_alone_covering_asks_no_query():
    vs = ValuationSet.singlegroup(3, [[0], [0]], [1, 1])

    def never(q):
        raise AssertionError("asked a query")

    tour, log = alg_mlsc(PATH_METRIC, vs, never)
    assert tour.cover_times == (0, 0) and log.phases == ()
    assert (log.rho, log.sigma) == (1, 1)
    assert log.augmentations == augmentation_count(vs.alpha, 1)
    opt = brute_force_latency(PATH_METRIC, vs)
    assert check_mlsc_recurrence(tour, log, opt) == (True, [(0, 0, 0, 0)])


def test_recursive_greedy_solver_covers():
    for seed in range(4):
        inst = mlsc_instance(seed, n=6)
        rho = greedy_rho(6)
        assert rho == 4   # ceil(log2 6) + 1
        tour, log = alg_mlsc(inst.metric, inst.valuations,
                             sop_recursive_greedy)
        assert max(tour.cover_times) <= tour.prefix[-1]
        # the log carries the pair the solver declared, not a caller's
        assert (log.rho, log.sigma) == (rho, 1)
        assert log.augmentations == augmentation_count(
            inst.valuations.alpha, rho)


def test_greedy_rho_is_ceil_log2_plus_one():
    for n in range(1, 200):
        assert greedy_rho(n) == math.ceil(math.log2(n)) + 1, n


def recording(solver, calls, once):
    """`solver`, appending each query's (collected mask, budget) to
    `calls`; with `once`, failing if a run asks the same query twice."""
    def ask(q):
        key = (q.valuation.s_mask, q.budget)
        assert not (once and key in calls), key
        calls.append(key)
        return solver(q)
    return ask


def run_both(metric, vs, solver, rho):
    """alg_mlsc, asking each query once, and the every-augmentation
    reference on one solver: both outcomes (result or exception) and both
    solver call counts."""
    outcomes, calls = [], ([], [])
    for fn, guarantee, seen, once in (
            (alg_mlsc, (), calls[0], True),
            (reference_alg_mlsc, (rho, 1), calls[1], False)):
        try:
            outcomes.append(fn(metric, vs, recording(solver, seen, once),
                               *guarantee))
        except (ValueError, Uncoverable) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes, len(calls[0]), len(calls[1])


def test_alg_mlsc_matches_every_augmentation_reference():
    asked = repeated = 0
    for kind in ("uniform-metric", "euclidean-grid-metric"):
        for n in range(3, 13):
            solvers = [(sop_recursive_greedy, greedy_rho(n))]
            if n <= EXACT_CAP:
                solvers.append((sop_exact, 1))
            for seed in range(8):
                inst = random_instance(kind, n, seed)
                for solver, rho in solvers:
                    (got, want), ours, theirs = run_both(
                        inst.metric, inst.valuations, solver, rho)
                    assert got == want, (kind, n, seed, solver.__name__)
                    asked += ours
                    repeated += theirs - ours
    assert repeated > asked   # most of the reference's calls were repeats


def test_path_without_new_vertices_grows_the_walk_only():
    # where the exact solver finds no gain, walk out to the nearest
    # collected vertex and back: the walk grows, the residual does not
    def revisit(q):
        res = sop_exact(q)
        d, r, s_mask = q.metric.d, q.root, q.valuation.s_mask
        near = [(d(r, v), v) for v in range(q.metric.n)
                if v != r and s_mask >> v & 1 and d(r, v) <= q.budget]
        if len(res.path) > 1 or not near:
            return res
        length, v = min(near)
        return SopResult((r, v), length, q.valuation.value(1 << r | 1 << v),
                         res.guarantee)

    revisits = 0
    for seed in range(12):
        inst = mlsc_instance(seed, n=6)
        (got, want), _, _ = run_both(inst.metric, inst.valuations, revisit, 1)
        assert got == want, seed
        tour, log = got
        plain, _ = alg_mlsc(inst.metric, inst.valuations, sop_exact)
        idle = sum(len(res.path) > 1 and res.value == 0
                   for rec in log.phases for res in rec.results)
        assert (len(tour.walk) > len(plain.walk)) == (idle > 0), seed
        revisits += idle
    assert revisits > 0


def test_recurrence_phase_zero_coverage_is_trivial():
    inst = random_instance("uniform-metric", 5, 0)
    tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact)
    assert len(log.phases) == 1
    opt = brute_force_latency(inst.metric, inst.valuations)
    ok, rows = check_mlsc_recurrence(tour, log, opt)
    assert ok
    assert rows[0][1] == 0   # everything covered by the first checkpoint


def rerun_mlsc_recurrence(tour, log, opt):
    """Reference check_mlsc_recurrence: its own level loop, as it stood
    before the deterministic checks ran on check_decay, on checkpoint
    counts built as alg_mlsc once logged them (uncovered strictly after
    t_j, up to the first t_j past the walk's length)."""
    base = mlsc_checkpoint_base(log.alpha, log.rho, log.sigma)
    counts = {}
    j = 0
    while True:
        t_j = base * (1 << j)
        counts[j] = sum(1 for c in tour.cover_times if c > t_j)
        if t_j >= tour.prefix[-1]:
            break
        j += 1
    rows: list[tuple[int, int, int, int]] = []
    ok = True
    prev = 0  # |R_{-1}|
    j = 0
    while True:
        r_j = counts.get(j, 0)
        rstar_j = sum(1 for c in opt.cover_times if c > 1 << j)
        rows.append((j, r_j, prev, rstar_j))
        if 4 * r_j > prev + 4 * rstar_j:
            ok = False
        if r_j == 0 and rstar_j == 0:
            break
        prev = r_j
        j += 1
    return ok, rows


def test_recurrence_holds_on_random_instances():
    for seed in range(100):
        inst = mlsc_instance(seed, n=4 + seed % 3)
        tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact)
        opt = brute_force_latency(inst.metric, inst.valuations)
        ok, rows = check_mlsc_recurrence(tour, log, opt)
        assert ok, (seed, rows)
        assert (ok, rows) == rerun_mlsc_recurrence(tour, log, opt), seed
        j0 = rows[0]
        assert j0[1] <= j0[3]  # quarter-decay at j=0 degenerates to this


def test_recurrence_counts_strictly_after_each_checkpoint():
    # a valuation covered exactly at a checkpoint is not in R_j (R*_j): the
    # tour covers at t_0 = 16 and t_1 = 32, the optimum at 1 and 2
    log = PhaseLog(Fraction(1), 1, 1, 4, ())
    base = mlsc_checkpoint_base(log.alpha, log.rho, log.sigma)
    assert base == 16
    tour = LatencyTour((0, 1, 0), (0, 16, 32), (16, 32), 48)
    opt = LatencyTour((0, 1, 0), (0, 1, 2), (1, 2), 3)
    ok, rows = check_mlsc_recurrence(tour, log, opt)
    assert ok
    assert rows == [(0, 1, 0, 1), (1, 0, 1, 0)]
    assert (ok, rows) == rerun_mlsc_recurrence(tour, log, opt)
