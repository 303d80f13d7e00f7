import random
from fractions import Fraction

import pytest

from latcov.errors import CapExceeded
from latcov.instances import (CoverFunction, CoverTerm, ExplicitFunction,
                              GridPoints, GroupedTree,
                              Metric, ValuationSet, check_submodular,
                              compute_epsilon, cover_times, dumps, loads,
                              metric_closure, min_nonzero_marginal,
                              normalize, random_instance, uniform_metric)
from util import pairwise_submodular


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric(((0, 1), (2, 0)))          # asymmetric
    with pytest.raises(ValueError):
        Metric(((0, 5, 1), (5, 0, 1), (1, 1, 0)))  # triangle broken
    m = uniform_metric(4)
    assert m.diameter == 1 and m.d(1, 2) == 1


def test_metric_closure_repairs_triangle():
    m = metric_closure([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert m.d(0, 1) == 2


def test_grid_metric_is_metric():
    pts = GridPoints(((0, 0), (2, 1), (1, 3), (4, 4)))
    m = pts.to_metric()  # constructor validates the triangle inequality
    assert m.d(0, 1) == 3


def test_valuations_reach_one_and_start_uncovered():
    with pytest.raises(ValueError):
        # never reaches 1: weights sum to 1/2
        from latcov.instances import CoverFunction, uniform_term
        f = CoverFunction(3, [uniform_term(Fraction(1, 2), [0, 1, 2], 1)])
        ValuationSet(3, [f], "wtc", Fraction(1, 2))


def test_explicit_tables():
    table = [Fraction(0), Fraction(3, 5), Fraction(3, 5), Fraction(1)]
    vs = ValuationSet.explicit(2, [table])
    assert vs.functions[0].value(0b01) == Fraction(3, 5)
    assert vs.epsilon == Fraction(2, 5)


def test_check_submodular_accepts_and_rejects():
    good = ExplicitFunction(2, [Fraction(0), Fraction(3, 5), Fraction(3, 5),
                                Fraction(1)])
    assert check_submodular(good, 2)
    assert pairwise_submodular(good, 2)
    # 0.2 + 0.2 jumping to 1.0 violates diminishing returns
    bad = ExplicitFunction(2, [Fraction(0), Fraction(1, 5), Fraction(1, 5),
                               Fraction(1)])
    assert not check_submodular(bad, 2)
    assert not pairwise_submodular(bad, 2)


def test_check_submodular_cap():
    f = ExplicitFunction(2, [Fraction(0), Fraction(1, 2), Fraction(1, 2),
                             Fraction(1)])
    with pytest.raises(CapExceeded):
        check_submodular(f, 13)


def test_first_cover_times_and_never_covered():
    vs = ValuationSet.singlegroup(4, [[0, 1], [2], [3]], [2, 1, 1])
    assert vs.first_cover([(0, 5), (2, 7), (1, 9)]) == [9, 7, None]
    assert vs.first_cover([]) == [None, None, None]


def test_first_cover_stops_pulling_at_full_cover():
    vs = ValuationSet.singlegroup(4, [[0, 1], [2]], [1, 1])

    def steps():
        yield 3, 1
        yield 1, 2
        yield 2, 4
        raise AssertionError("pulled past full cover")

    assert vs.first_cover(steps()) == [2, 4]


def test_epsilon_closed_forms():
    vs = ValuationSet.coverage(5, [[0, 1], [2], [3, 4]])
    assert vs.epsilon == Fraction(1, 3) == compute_epsilon(vs)
    vs = ValuationSet.multicoverage(6, [[0, 1, 2], [3, 4, 5]], [2, 3])
    assert compute_epsilon(vs) == Fraction(1, 6)
    vs = ValuationSet.singlegroup(6, [[0, 1], [2, 3, 4]], [1, 3])
    assert compute_epsilon(vs) == Fraction(1, 3)


def test_epsilon_closed_form_lower_bounds_exhaustive():
    for seed in range(30):
        vs = random_instance("random-groups", 6, seed).valuations
        exhaustive = min(min_nonzero_marginal(f, vs.n) for f in vs.functions)
        assert vs.epsilon <= exhaustive


def test_alpha_upper_bounds_log():
    import math
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(3, 11)):
        vs_alpha = ValuationSet.singlegroup(3, [[0, 1, 2]], [1]).alpha
        from latcov.instances import alpha_from_epsilon
        a = alpha_from_epsilon(eps)
        assert float(a) >= 1 + math.log(1 / eps)
        assert float(a) <= 1 + math.log(1 / eps) + 3e-9


def test_tree_validation():
    with pytest.raises(ValueError):  # group member internal
        GroupedTree([None, 0, 1], [0, 1, 1], 0, [[1]], [1])
    with pytest.raises(ValueError):  # leaf outside any group
        GroupedTree([None, 0, 0], [0, 1, 1], 0, [[1]], [1])
    t = GroupedTree([None, 0, 0], [0, 2, 3], 0, [[1], [2]], [1, 1])
    assert t.leaves == (1, 2)
    assert t.total_weight == 5


def test_normalize_shared_and_internal_members():
    t = normalize([None, 0, 0, 1, 1], [0, 2, 3, 1, 1], 0,
                  [[1, 3], [3, 4]], [1, 2])
    # every member is now a leaf and groups are disjoint
    flat = [v for g in t.groups for v in g]
    assert len(flat) == len(set(flat))
    for v in flat:
        assert not t.children[v]
    # zero-weight pendants preserve distances: tree metric still valid
    t.tree_metric()


def test_euler_tour_weight_and_closure():
    t = random_instance("random-tree", 9, 4).tree
    walk = t.euler_tour()
    assert walk[0] == walk[-1] == t.root
    assert t.walk_weight(walk) == 2 * t.total_weight
    times, obj = cover_times(t, walk)
    assert all(x is not None for x in times)
    assert obj == sum(times)


def test_euler_tour_subtree_validation():
    t = GroupedTree([None, 0, 1], [0, 2, 3], 0, [[2]], [1])
    with pytest.raises(ValueError):
        t.euler_tour({2})  # parent edge 1 missing
    walk = t.euler_tour({1, 2})
    assert walk == [0, 1, 2, 1, 0]


def test_roundtrip_all_kinds():
    for kind in ("random-groups", "uniform-metric", "euclidean-grid-metric",
                 "random-tree", "random-stochastic"):
        for seed in range(5):
            inst = random_instance(kind, 6, seed)
            text = dumps(inst)
            assert dumps(loads(text)) == text


def test_loads_rejects_decimals_and_junk():
    vs = ValuationSet.coverage(3, [[0, 1], [2]])
    from latcov.instances import Instance
    text = dumps(Instance("ranking", valuations=vs))
    assert "1/2" in text
    with pytest.raises(ValueError):
        loads(text.replace("1/2", "0.5"))
    with pytest.raises(ValueError):
        loads("LATCOV v2 ranking\nEND\n")
    with pytest.raises(ValueError):
        loads(text.replace("LATCOV", "LATCOW"))


def test_generators_deterministic():
    for kind in ("random-groups", "random-tree", "random-stochastic"):
        a = dumps(random_instance(kind, 7, 123))
        b = dumps(random_instance(kind, 7, 123))
        assert a == b
        c = dumps(random_instance(kind, 7, 124))
        assert a != c


def test_stochastic_instance_validation():
    inst = random_instance("random-stochastic", 5, 0).stochastic
    assert inst.n == 5
    assert inst.total_length == sum(inst.lengths)
    for supp in inst.supports:
        assert sum(p for _, p in supp) == 1


def cover_closed_form(terms, mask):
    """sum_t w_t * min(1, credits of t's members present in mask)."""
    total = Fraction(0)
    for t in terms:
        credit = sum((u for e, u in zip(t.members, t.units) if mask >> e & 1),
                     Fraction(0))
        total += t.weight * min(Fraction(1), credit)
    return total


def test_cover_function_memo_is_transparent():
    # values read twice, in a shuffled order, equal a fresh object's and the
    # closed form
    for seed in range(30):
        rng = random.Random(f"memo:{seed}")
        n = rng.randint(1, 8)
        terms = []
        for _ in range(rng.randint(1, 4)):
            members = sorted(rng.sample(range(n), rng.randint(1, n)))
            units = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 6))
                          for _ in members)
            terms.append(CoverTerm(Fraction(rng.randint(0, 3), 4),
                                   tuple(members), units))
        f = CoverFunction(n, terms)
        masks = list(range(1 << n)) * 2
        rng.shuffle(masks)
        for mask in masks:
            want = cover_closed_form(terms, mask)
            assert f.value(mask) == want, (seed, mask)
            assert CoverFunction(n, terms).value(mask) == want, (seed, mask)
