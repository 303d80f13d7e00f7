import collections
import math
import pathlib
import random
from fractions import Fraction

import pytest

from latcov.errors import CapExceeded
from latcov.instances import (CoverFunction, CoverTerm, ExplicitFunction,
                              GridPoints, GroupedTree,
                              Metric, ValuationSet, check_submodular,
                              compute_epsilon, dumps, loads,
                              metric_closure, metric_from_matrix,
                              min_nonzero_marginal, normalize,
                              random_instance, uniform_metric)
from latcov.cli import parse_genspec
from latcov.instances import serial
from latcov.instances.serial import parse_rat
import util
from util import (cover_times, pairwise_submodular, reference_distances,
                  reference_walk_weight)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


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


WTC_HEAD = "LATCOV v1 ranking\nVALUATIONS 1 2 wtc 1/2\n"
WSSR_HEAD = ("LATCOV v1 wssr\nVALUATIONS 1 2 wtc 1/1\n"
             "wtc 1 ; 1/1 : 0:1/1 1:1/1\nSTOCHASTIC 1 2\n")
MLSC_TAIL = "VALUATIONS 1 2 wtc 1/1\nwtc 1 ; 1/1 : 0:1/1 1:1/1\nEND\n"


@pytest.mark.parametrize("text,where,bad", [
    (WTC_HEAD + "wtc 1 ; 1/1 0:1/1\nEND\n", "VALUATIONS line 3",
     "wtc 1 ; 1/1 0:1/1"),
    (WTC_HEAD + "wtc 1 ; 1/1 : 0 1:1/1\nEND\n", "VALUATIONS line 3",
     "wtc 1 ; 1/1 : 0 1:1/1"),
    (WTC_HEAD + "wtc 1 ; 1/2/3 : 0:1/1\nEND\n", "VALUATIONS line 3",
     "wtc 1 ; 1/2/3 : 0:1/1"),
    (WSSR_HEAD + "1 : 1:2 1/1\nEND\n", "STOCHASTIC line 5", "1 : 1:2 1/1"),
    (WSSR_HEAD + "1 0 1/1\nEND\n", "STOCHASTIC line 5", "1 0 1/1"),
    ("LATCOV v1 lcst\nTREE 2 0\n1 0\nGROUPS 1\n1 : 1\nEND\n",
     "TREE line 3", "1 0"),
    ("LATCOV v1 lcst\nTREE 2 0\n1 0 1\nGROUPS 1\n1 1\nEND\n",
     "GROUPS line 5", "1 1"),
    ("LATCOV v1 mlsc\nMETRIC 2 0\n0 1\n1 x\n" + MLSC_TAIL, "METRIC line 4",
     "1 x"),
    # rows read and then refused, and explicit-table tokens
    ("LATCOV v1 lcst\nTREE 2 0\n5 0 1\nGROUPS 1\n1 : 1\nEND\n",
     "TREE line 3", "5 0 1"),
    (WSSR_HEAD + "1 : 0 1/2 1\nEND\n", "STOCHASTIC line 5", "1 : 0 1/2 1"),
    (WTC_HEAD + "wtc 2 ; 1/1 : 0:1/1 1:1/1\nEND\n", "VALUATIONS line 3",
     "wtc 2 ; 1/1 : 0:1/1 1:1/1"),
    (WTC_HEAD + "wtc ; 1/1 : 0:1/1 1:1/1\nEND\n", "VALUATIONS line 3",
     "wtc ; 1/1 : 0:1/1 1:1/1"),
    (WTC_HEAD + "table 0/1 1/1\nEND\n", "VALUATIONS line 3",
     "table 0/1 1/1"),
    ("LATCOV v1 ranking\nVALUATIONS 1 3 wtc 1/2\n"
     "wtc 1 ; 1/1 : -1:1/1 2:1/1\nEND\n", "VALUATIONS line 3",
     "wtc 1 ; 1/1 : -1:1/1 2:1/1"),
    (WTC_HEAD + "explicit 0/1 1/2/3\nEND\n", "VALUATIONS line 3",
     "explicit 0/1 1/2/3"),
    (WTC_HEAD + "explicit 0/1 /\nEND\n", "VALUATIONS line 3",
     "explicit 0/1 /"),
    (WTC_HEAD + "explicit 1/ 1/1\nEND\n", "VALUATIONS line 3",
     "explicit 1/ 1/1"),
])
def test_malformed_rows_name_section_line_and_text(text, where, bad):
    with pytest.raises(ValueError) as exc:
        loads(text)
    assert str(exc.value).startswith(f"{where} {bad!r}: ")


def test_negative_term_members_are_refused_by_name():
    for build in (lambda: ValuationSet.coverage(4, [[-1]]),
                  lambda: ValuationSet.singlegroup(3, [[-2, 1]], [1]),
                  lambda: serial.loads(
                      "LATCOV v1 ranking\nVALUATIONS 1 3 wtc 1/2\n"
                      "wtc 1 ; 1/1 : -1:1/1 2:1/1\nEND\n")):
        with pytest.raises(ValueError, match=r"term member -\d out of range "
                                             r"0\.\.[23]$"):
            build()
    with pytest.raises(ValueError, match=r"term member 4 out of range 0\.\.3"):
        ValuationSet.coverage(4, [[1, 4]])


def test_tree_validation():
    with pytest.raises(ValueError):  # group member internal
        GroupedTree([None, 0, 1], [0, 1, 1], 0, [[1]], [1])
    with pytest.raises(ValueError):  # leaf outside any group
        GroupedTree([None, 0, 0], [0, 1, 1], 0, [[1]], [1])
    with pytest.raises(ValueError):  # group member out of range
        GroupedTree([None, 0, 0], [0, 1, 1], 0, [[1], [2, 5]], [1, 1])
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
    metric_from_matrix(reference_distances(t), t.root)


def test_euler_tour_weight_and_closure():
    t = random_instance("random-tree", 9, 4).tree
    walk = t.euler_tour()
    assert walk[0] == walk[-1] == t.root
    assert reference_walk_weight(t, walk) == 2 * t.total_weight
    times, obj = cover_times(t, walk)
    assert all(x is not None for x in times)
    assert obj == sum(times)


def _check_tree_distances(t):
    ref = reference_distances(t)
    for a in range(t.n):
        assert t.d(a, a) == 0
        for b in range(t.n):
            assert t.d(a, b) == ref[a][b] == t.d(b, a), (a, b)


def test_tree_distances_match_reference_on_generated_trees():
    for n in range(3, 15):
        for seed in range(4):
            tree = parse_genspec(f"tree:n={n}:seed={seed}").tree
            _check_tree_distances(tree)


def test_tree_distances_match_reference_across_zero_weight_pendants():
    # raw groups name the root, internal vertices and shared members, so
    # normalize hangs zero-weight pendants; every raw edge weighs 1..4
    rng = random.Random("pendants")
    pendants = 0
    for _ in range(40):
        n = rng.randint(3, 10)
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        weight = [0] + [rng.randint(1, 4) for _ in range(1, n)]
        groups = [rng.sample(range(n), rng.randint(1, min(3, n)))
                  for _ in range(rng.randint(1, 3))]
        reqs = [rng.randint(1, len(g)) for g in groups]
        t = normalize(parent, weight, 0, groups, reqs)
        pendants += sum(1 for v in t.edges if t.weight[v] == 0)
        _check_tree_distances(t)
    assert pendants >= 20


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
    for path in sorted(FIXTURES.glob("*.lcov")):
        text = path.read_text()
        assert dumps(loads(text)) == text, path.name
    # explicit tables at the benchmark's sizes: the ranking oracle's n=8
    # and the n=12 grid whose one valuation is explicit
    for spec in ("explicit:n=8:seed=0", "explicit:n=8:seed=1",
                 "grid:n=12:seed=0"):
        inst = parse_genspec(spec)
        assert inst.valuations.kind == "explicit", spec
        text = dumps(inst)
        assert dumps(loads(text)) == text, spec


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
    # headers, GROUPS, function and support lines with fields missing
    star = "TREE 4 0\n1 0 1\n2 0 2\n3 0 1\nGROUPS 1\n2 : 1 2 3\n"
    wtc = "VALUATIONS 1 2 wtc 1/1\nwtc 1 ; 1/1 : 0:1/1 1:1/1\n"
    sto = "STOCHASTIC 1 2\n1 : 0 1/2 1 1/2\n"
    for body in ("TREE\n", "TREE 4\n", star.replace("GROUPS 1", "GROUPS"),
                 star.replace("GROUPS 1\n", "\n"),
                 star.replace("3 0 1", "7 0 1"),
                 "VALUATIONS 1 2 wtc\n", wtc.replace("wtc 1 ;", "wtc ;"),
                 wtc.replace("wtc 1 ; 1/1 : 0:1/1 1:1/1", " "),
                 "METRIC 2\n", wtc + "STOCHASTIC 1\n",
                 wtc + sto.replace(" 1/2\n", "\n")):
        with pytest.raises(ValueError):
            loads(f"LATCOV v1 lcst\n{body}END\n")
    assert loads(f"LATCOV v1 lcst\n{star}END\n").tree.n == 4
    assert loads(f"LATCOV v1 wssr\n{wtc}{sto}END\n").stochastic.n == 1


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


def test_cover_function_ints_over_coprime_denominators():
    # weights and units with pairwise coprime denominators, a term whose
    # credits never reach 1, and zero-weight terms (one of them alone)
    terms = [
        CoverTerm(Fraction(1, 7), (0, 1, 2), (Fraction(2, 5),) * 3),
        CoverTerm(Fraction(2, 11), (1, 3), (Fraction(1, 13), Fraction(1, 3))),
        CoverTerm(Fraction(0), (0, 4), (Fraction(1, 2), Fraction(1, 2))),
        CoverTerm(Fraction(1, 3), (2, 4), (Fraction(2, 5), Fraction(1, 13))),
        CoverTerm(Fraction(2, 5), (0, 3, 4),
                  (Fraction(1, 7), Fraction(2, 11), Fraction(1, 1))),
    ]
    for chosen in (terms, terms[2:3], terms[1:2]):
        f = CoverFunction(5, chosen)
        for mask in range(1 << 5):
            got = f.value(mask)
            assert type(got) is Fraction
            assert got == cover_closed_form(chosen, mask), mask
            assert math.gcd(got.numerator, got.denominator) == 1
    # credits of term 2 top out at 1/13 + 1/3: never saturated
    f = CoverFunction(5, terms[1:2])
    assert f.value(0b11111) == Fraction(2, 11) * Fraction(16, 39)
    # the shared denominator cancels: 1/7 * 6/5 caps at 1/7
    assert CoverFunction(5, terms[:1]).value(0b111) == Fraction(1, 7)


def test_explicit_function_num_den_round_trip():
    for seed in range(20):
        rng = random.Random(f"explicit-num:{seed}")
        n = rng.randint(0, 5)
        table = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7, 12)))
                 for _ in range(1 << n)]
        f = ExplicitFunction(n, table)
        assert f.den == math.lcm(*(v.denominator for v in table))
        for mask, v in enumerate(table):
            assert type(f.num(mask)) is int
            assert Fraction(f.num(mask), f.den) == f.value(mask) == v


def test_from_nums_matches_fraction_table():
    for seed in range(30):
        rng = random.Random(f"from-nums:{seed}")
        n = rng.randint(0, 5)
        den = rng.choice((1, 4, 6, 12, 35))
        nums = [rng.randint(0, den) * rng.choice((1, 2, 3))
                for _ in range(1 << n)]
        scale = rng.choice((1, 2, 3))   # an unreduced den reduces back
        f = ExplicitFunction.from_nums(n, [x * scale for x in nums],
                                       den * scale)
        g = ExplicitFunction(n, [Fraction(x, den) for x in nums])
        assert (f.n, f.den) == (g.n, g.den)
        for mask in range(1 << n):
            assert type(f.num(mask)) is int
            assert f.num(mask) == g.num(mask)
            assert f.value(mask) == g.value(mask) == Fraction(nums[mask], den)


def test_loader_reads_noncanonical_explicit_entries_as_parse_rat():
    toks = ["2/4", "3/-6", "-0/5", "1_0/4", "-3/-6", "0/-5", "1_0/40",
            "+6/8", "9/12", "5/5"]
    want = [parse_rat(t) for t in toks]
    assert want[:4] == [Fraction(1, 2), Fraction(-1, 2), 0, Fraction(5, 2)]
    # values outside [0, 1] are refused in files, so feed them one at a time
    # next to canonical entries; the table's den is the reduced lcm
    for i, tok in enumerate(toks):
        table = ["0/1", tok, "1/3", "1/1"]
        text = ("LATCOV v1 ranking\nVALUATIONS 1 2 explicit 1/3\n"
                f"explicit {' '.join(table)}\nEND\n")
        if not 0 <= want[i] <= 1:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                loads(text)
            continue
        f = loads(text).valuations.functions[0]
        ref = ExplicitFunction(2, [parse_rat(t) for t in table])
        assert f.den == ref.den
        assert [f.num(m) for m in range(4)] == [ref.num(m) for m in range(4)]
        assert f.value(1) == want[i]


def fraction_min_nonzero_marginal(fn, n):
    gains = [fn.value(mask | 1 << e) - fn.value(mask)
             for mask in range(1 << n) for e in range(n) if not mask >> e & 1]
    return min(g for g in gains if g > 0)


def random_cover_function(rng, n):
    terms = []
    for _ in range(rng.randint(1, 3)):
        members = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        units = tuple(Fraction(rng.randint(1, 3), rng.choice((2, 3, 5, 7, 11)))
                      for _ in members)
        terms.append(CoverTerm(Fraction(rng.randint(0, 2),
                                        rng.choice((1, 3, 7, 13))),
                               members, units))
    return CoverFunction(n, terms)


def test_min_nonzero_marginal_matches_fraction_reference():
    for seed in range(40):
        rng = random.Random(f"marginal:{seed}")
        n = rng.randint(1, 6)
        table = ExplicitFunction(n, [Fraction(rng.randint(0, 9),
                                              rng.choice((1, 2, 3, 7, 11)))
                                     for _ in range(1 << n)])
        cover = random_cover_function(rng, n)
        for fn in (table, cover):
            try:
                want = fraction_min_nonzero_marginal(fn, n)
            except ValueError:      # min() of no positive gain
                with pytest.raises(ValueError, match="constant"):
                    min_nonzero_marginal(fn, n)
                continue
            got = min_nonzero_marginal(fn, n)
            assert type(got) is Fraction and got == want, seed


def loop_min_nonzero_marginal(fn, n):
    """Test-only copy of min_nonzero_marginal's per-mask, per-element loop,
    from before it scanned slice pairs."""
    ints = [fn.num(mask) for mask in range(1 << n)]
    best = None
    for mask, base in enumerate(ints):
        for e in range(n):
            if mask & (1 << e):
                continue
            gain = ints[mask | (1 << e)] - base
            if gain > 0 and (best is None or gain < best):
                best = gain
    if best is None:
        raise ValueError("function is constant")
    return Fraction(best, fn.den)


def test_min_nonzero_marginal_matches_per_mask_loop():
    rng, tables = random.Random("marginal-slices"), []
    for n in range(1, 11):
        for trial in range(6):
            den = rng.choice((1, 2, 3, 7, 12))
            nums = [rng.randint(0, 9) for _ in range(1 << n)]
            if trial % 2:   # monotone: at least each subset's max
                for mask in range(1 << n):
                    nums[mask] = max([nums[mask & ~(1 << e)] for e in range(n)
                                      if mask >> e & 1] + [nums[mask]])
            if trial == 4:   # one step, into the full set only
                nums = [0] * (1 << n)
                nums[-1] = 1
            tables.append((n, nums, den))
        tables += [(n, [value] * (1 << n), 7) for value in (0, 5)]
    refused = 0
    for n, nums, den in tables:
        fn = ExplicitFunction.from_nums(n, nums, den)
        try:
            want = loop_min_nonzero_marginal(fn, n)
        except ValueError as exc:   # no positive gain anywhere
            with pytest.raises(ValueError, match=f"^{exc}$"):
                min_nonzero_marginal(fn, n)
            refused += 1
            continue
        got = min_nonzero_marginal(fn, n)
        assert type(got) is Fraction and got == want, (n, nums, den)
    assert 20 <= refused < len(tables) - 30


# ---- one root-first pass, against the reference copies in util.py ---------

# faults for GroupedTree inputs; the first five are parent-array faults, the
# only ones normalize inputs get
TREE_FAULTS = ("none", "cycle", "self", "short", "root_parent", "negative",
               "internal_member", "shared_member", "bad_req", "uncovered_leaf")


def _raw_tree(rng, n):
    """A tree on n vertices with shuffled ids, so the root is anywhere."""
    ids = list(range(n))
    rng.shuffle(ids)
    parent = [None] * n
    for i in range(1, n):
        parent[ids[i]] = ids[rng.randrange(i)]
    weight = [0 if v == ids[0] else rng.randint(0, 3) for v in range(n)]
    return parent, weight, ids[0]


def _below(parent, v):
    """v and the vertices whose first n parent hops pass it."""
    def up(u):
        for _ in parent:
            if u is None or not 0 <= u < len(parent):
                return
            yield u
            u = parent[u]
    return sorted(u for u in range(len(parent)) if v in up(u))


def _break(rng, fault, parent, weight, root, groups, reqs):
    v = rng.choice([u for u in range(len(parent)) if u != root] or [root])
    leaves = sorted(x for g in groups for x in g)
    if fault == "none":
        parent[v] = None
    elif fault == "cycle":   # onto a descendant, v itself if it has none
        parent[v] = rng.choice(_below(parent, v)[1:] or [v])
    elif fault == "self":
        parent[v] = v
    elif fault == "short":
        weight.pop()
    elif fault == "root_parent":
        parent[root] = rng.randrange(len(parent))
    elif fault == "negative":
        weight[min(v, len(weight) - 1)] = -1   # after "short" too
    elif fault == "internal_member":
        rng.choice(groups).append(rng.choice(sorted(set(parent) - {None})))
    elif fault == "shared_member":
        groups.append([rng.choice(leaves or [root])])
        reqs.append(1)
    elif fault == "bad_req":
        i = rng.randrange(len(reqs))
        reqs[i] = rng.choice((0, len(groups[i]) + 1))
    else:   # uncovered_leaf, or an empty group after an earlier one
        g = rng.choice(groups)
        g[:1] = []


def _built(build, *args):
    """Fields, lists, order and full tour of the tree, or how it refused;
    IndexError and KeyError are the reference's faults."""
    try:
        t = build(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    except (IndexError, KeyError) as exc:
        return type(exc).__name__, None
    return "ok", (t.parent, t.weight, t.root, t.groups, t.reqs, t.children,
                  t.leaves, t.topo_order(), t.euler_tour()), t


def _check_against_reference(ref, new, faults, stats):
    assert new[0] in ("ok", "ValueError")
    if not faults:
        assert ref[0] == new[0] == "ok" and ref[1] == new[1]
        return
    assert new[0] == "ValueError", faults   # a fault is always refused
    if ref[0] != "ValueError" or len(faults) > 1:
        return   # the reference crashed or accepted, or faults compete
    stats["one fault"] += 1
    if ref[1] != new[1]:
        # the reference's hop walk met a None parent from a lower-numbered
        # descendant first and named the cycle check
        assert faults == ["none"], (faults, ref, new)
        assert ref[1] == "parent pointers do not form a rooted tree"
        assert new[1] == "non-root vertex needs an in-range parent"
        stats["none met first by the walk"] += 1


def _check_tours(rng, ref_tree, new_tree, stats):
    n = new_tree.n
    for _ in range(4):
        picked = {v for v in range(n) if rng.random() < 0.4}
        if rng.random() < 0.5:   # close under parents, below the root
            picked = {u for v in picked - {new_tree.root}
                      for u in _path(new_tree, v)}
        tours = []
        for tree in (ref_tree, new_tree):
            try:
                tours.append(tree.euler_tour(set(picked)))
            except ValueError as exc:
                tours.append(str(exc))
        assert tours[0] == tours[1], picked
        stats["tours"] += 1


def _path(tree, v):
    while v != tree.root:
        yield v
        v = tree.parent[v]


def test_tree_construction_matches_reference():
    rng = random.Random("tree-construction")
    stats = collections.Counter()
    for _ in range(3000):
        parent, weight, root = _raw_tree(rng, rng.randint(2, 9))
        inner = set(parent)
        leaves = [v for v in range(len(parent))
                  if v != root and v not in inner]
        rng.shuffle(leaves)
        cut = sorted(rng.sample(range(1, len(leaves)),
                                min(2, len(leaves) - 1)))
        groups = [leaves[a:b] for a, b in zip([0] + cut, cut + [None])]
        reqs = [rng.randint(1, len(g)) for g in groups]
        faults = rng.sample(TREE_FAULTS, rng.choice((0, 0, 1, 1, 1, 2)))
        for fault in faults:
            _break(rng, fault, parent, weight, root, groups, reqs)
        ref = _built(util.ReferenceTree, parent, weight, root, groups, reqs)
        new = _built(GroupedTree, parent, weight, root, groups, reqs)
        _check_against_reference(ref, new, faults, stats)
        if new[0] == "ok":
            _check_tours(rng, ref[2], new[2], stats)
            stats["trees"] += 1
    assert stats["trees"] > 800 and stats["one fault"] > 1000, stats
    assert stats["none met first by the walk"] > 10, stats


def test_normalize_matches_reference():
    rng = random.Random("normalize")
    stats = collections.Counter()
    for _ in range(3000):
        n = rng.randint(1, 9)
        parent, weight, root = _raw_tree(rng, n)
        # members anywhere: internal, the root, and shared between groups
        groups = [[rng.randrange(n) for _ in range(rng.randint(1, 3))]
                  for _ in range(rng.randint(1, 3))]
        reqs = [rng.randint(1, len(g)) for g in groups]
        faults = rng.sample(TREE_FAULTS[:5], rng.choice((0, 0, 1, 1, 2)))
        if n == 1:
            faults = [f for f in faults if f in ("short", "root_parent")]
        for fault in faults:
            _break(rng, fault, parent, weight, root, groups, reqs)
        ref = _built(util.reference_normalize, parent, weight, root, groups,
                     reqs)
        new = _built(normalize, parent, weight, root, groups, reqs)
        _check_against_reference(ref, new, faults, stats)
        if new[0] == "ok":
            _check_tours(rng, ref[2], new[2], stats)
            stats["trees"] += 1
        stats["forests accepted by the reference"] += faults != [] and \
            ref[0] == "ok"
    assert stats["trees"] > 1000 and stats["one fault"] > 500, stats
    assert stats["forests accepted by the reference"] > 10, stats


def test_tree_with_short_weight_is_refused_by_name():
    # an IndexError before the field lengths were checked first
    with pytest.raises(ValueError, match="field length mismatch"):
        GroupedTree([0, None], [0], 1, [[0]], [1])


def test_normalize_refuses_vertices_the_root_cannot_reach():
    with pytest.raises(ValueError, match="in-range parent"):   # a KeyError
        normalize([None, None, 0], [0, 0, 0], 1, [[2]], [1])
    with pytest.raises(ValueError, match="in-range parent"):   # dropped 1
        normalize([None, None, 0], [0, 0, 1], 0, [[2]], [1])


def test_monotone_check_matches_per_mask_loop():
    rng = random.Random("monotone")
    refused = 0
    for _ in range(1500):
        n = rng.randint(0, 7)
        nums = [0] * (1 << n)
        for mask in range(1 << n):   # monotone: at least each subset's max
            nums[mask] = max([nums[mask & ~(1 << e)] for e in range(n)
                              if mask >> e & 1] + [rng.randint(0, 2)])
        if n and rng.random() < 0.5:   # one dip, anywhere in the table
            mask = rng.randrange(1 << n)
            nums[mask] -= rng.randint(0, nums[mask])
        want = all(nums[m] <= nums[m | 1 << e]
                   for m in range(1 << n) for e in range(n))
        assert serial._monotone(nums, n) == want, (n, nums)
        refused += not want
    assert refused > 300
