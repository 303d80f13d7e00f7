"""Property tests of the exit-code contract: 0 ok, 2 invariant or bad
input, 3 infeasible, and never a traceback, whatever the arguments or the
instance file.  Library entry points under the CLI either answer or raise
ValueError, which the CLI turns into exit 2.

Derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import math
import os
import random
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcov import cli  # noqa: E402
from latcov.instances import (Instance, dumps, loads,  # noqa: E402
                              random_instance)
from latcov.instances.generators import random_valuations  # noqa: E402
from latcov.instances.metrics import uniform_metric  # noqa: E402
from latcov.instances.serial import (_monotone, _parse_function,  # noqa: E402
                                     _parse_pq)
from latcov.instances.valuations import (ExplicitFunction,  # noqa: E402
                                         ValuationSet)
from latcov.lcst.mincut import CutQuery, min_cut_with_exceptions  # noqa: E402
from test_cli import MISLABELLED_SINGLEGROUP  # noqa: E402
from test_lcst_cuts import brute_min_cut, check_cut  # noqa: E402


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(-1, 9), seed=st.integers(0, 1000),
       samples=st.integers(-2, 40), oracle=st.booleans())
def test_wssr_generated_instances_keep_exit_contract(n, seed, samples,
                                                     oracle):
    argv = ["wssr", "--gen", f"stochastic:n={n}:seed={seed}",
            "--samples", str(samples)] + (["--oracle"] if oracle else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def _instance_texts():
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures",
                           "star.lcov")) as fh:
        texts = [fh.read()]
    for kind in ("random-groups", "uniform-metric", "random-tree",
                 "random-stochastic"):
        texts.append(dumps(random_instance(kind, 4, 1)))
    explicit = random_valuations("explicit", 3, 1)
    texts.append(dumps(Instance("ranking", valuations=explicit)))
    return texts


TEXTS = _instance_texts()
# (op, line, token, delta): truncate the text at that line, drop a token,
# blank a line, or add a small delta to an integer token
EDITS = st.tuples(st.sampled_from(("truncate", "drop", "blank", "bump")),
                  st.integers(0, 40), st.integers(0, 40), st.integers(-2, 2))


def _mutate(text, edits):
    lines = text.split("\n")
    for op, li, ti, delta in edits:
        li %= len(lines)
        toks = lines[li].split(" ")
        ti %= len(toks)
        if op == "truncate":
            lines = lines[:li]
        elif op == "blank":
            lines[li] = ""
        elif op == "drop":
            del toks[ti]
            lines[li] = " ".join(toks)
        elif toks[ti].lstrip("-").isdigit():
            toks[ti] = str(int(toks[ti]) + delta)
            lines[li] = " ".join(toks)
        if not lines:
            break
    return "\n".join(lines)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(which=st.integers(0, len(TEXTS) - 1),
       edits=st.lists(EDITS, min_size=1, max_size=3))
def test_loads_accepts_or_raises_value_error(which, edits):
    text = _mutate(TEXTS[which], edits)
    try:
        loads(text)
    except ValueError:
        pass


def per_token_explicit(line, n, index):
    """The explicit-table parse as it stood when every token of the line
    went through _parse_pq, repeats included, in file order."""
    pairs = [_parse_pq(t) for t in line.split()[1:]]
    den = math.lcm(*(q for _, q in pairs))
    nums = [p * (den // q) for p, q in pairs]
    if nums and (min(nums) < 0 or max(nums) > den):
        raise ValueError("explicit table values must lie in [0, 1]")
    fn = ExplicitFunction.from_nums(n, nums, den)
    if not _monotone(nums, n):
        raise ValueError(f"explicit table of function {index} is not "
                         f"monotone: some f(S) > f(S + e)")
    return fn


def _table_outcome(parse, line, n):
    """The parsed table as (den, nums), or the message it was refused with."""
    try:
        fn = parse(line, n, 0)
    except ValueError as exc:
        return str(exc)
    return fn.den, [fn.num(m) for m in range(1 << n)]


# valid p/q tokens, repeated often as in real tables, among malformed ones
TABLE_TOKENS = st.one_of(
    st.builds("{}/{}".format, st.integers(-1, 4), st.integers(1, 4)),
    st.sampled_from(("0/1", "1/1", "1/2", "2/4", "1/2/3", "/", "1/", "a/b",
                     "1/0", "3/-6", "1_0/4", "-1/-2")))


@settings(derandomize=True, max_examples=400, deadline=2_000)
@given(n=st.integers(0, 3), size=st.integers(0, 9), data=st.data())
def test_explicit_tables_fail_as_the_per_token_parse(n, size, data):
    if data.draw(st.booleans()):
        size = 1 << n
    line = "explicit " + " ".join(data.draw(st.lists(
        TABLE_TOKENS, min_size=size, max_size=size)))
    want = _table_outcome(per_token_explicit, line, n)
    assert _table_outcome(_parse_function, line, n) == want, line
    text = f"LATCOV v1 ranking\nVALUATIONS 1 {n} explicit 1/2\n{line}\nEND\n"
    try:
        loads(text)
    except ValueError as exc:   # CapExceeded included
        assert type(want) is not str or \
            str(exc) == f"VALUATIONS line 3 {line!r}: {want}", line


# mlsc texts whose METRIC and VALUATIONS sizes disagree, one each way: no
# edit reaches them from TEXTS, since a bumped VALUATIONS n no longer
# matches its explicit table or its term members
MISMATCHED = [
    dumps(Instance("mlsc", metric=uniform_metric(4),
                   valuations=random_valuations("explicit", 3, 1))),
    dumps(Instance("mlsc", metric=uniform_metric(3),
                   valuations=ValuationSet.singlegroup(4, [[3], [0, 1]],
                                                       [1, 2]))),
]
# a ranking table with values outside [0, 1], which the loader refuses
OUT_OF_RANGE = ["LATCOV v1 ranking\nVALUATIONS 1 2 explicit 1/2\n"
                "explicit 0/1 3/2 -1/2 1/1\nEND\n"]
SEEDS = TEXTS + MISMATCHED + OUT_OF_RANGE + [
    # a table with f(empty) > f({0}), which the loader refuses, and two mlsc
    # files labelled singlegroup whose terms lcst's embedding refuses
    "LATCOV v1 ranking\nVALUATIONS 1 2 explicit 1/2\n"
    "explicit 1/2 0/1 0/1 1/1\nEND\n"] + MISLABELLED_SINGLEGROUP
# the commands that accept each instance kind, sampling kept small
KIND_COMMANDS = {
    "ranking": (["rank"], ["rank", "--oracle"]),
    "mlsc": (["sop"], ["sop", "--solver", "exact"], ["sop", "--oracle"],
             ["mlsc"], ["mlsc", "--oracle"], ["lcst"]),
    "lcst": (["lcst"],),
    "wssr": (["wssr", "--samples", "20"],
             ["wssr", "--samples", "20", "--oracle"]),
}


# mostly bumps, which keep more texts loadable than the loader's edits
COMMAND_EDITS = st.tuples(st.sampled_from(("bump",) * 3 + ("drop",)),
                          st.integers(0, 40), st.integers(0, 40),
                          st.integers(-2, 2))


@settings(derandomize=True, max_examples=400, deadline=10_000)
@given(which=st.integers(0, len(SEEDS) - 1),
       edits=st.lists(COMMAND_EDITS, min_size=1, max_size=2))
def test_loaded_texts_keep_exit_contract_in_every_command(which, edits):
    text = _mutate(SEEDS[which], edits)
    try:
        kind = loads(text).kind
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.lcov")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        for cmd, *extra in KIND_COMMANDS[kind]:
            argv = [cmd, "--in", path, *extra]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 3), (argv, text)
            assert "Traceback" not in err.getvalue(), (argv, text)


# every genspec kind, with the commands that accept its instance kind
GEN_COMMANDS = {
    **{style: ("rank",) for style in ("explicit", "gmssc", "coverage",
                                      "multicoverage", "groups")},
    "uniform": ("sop", "mlsc", "lcst"), "grid": ("sop", "mlsc", "lcst"),
    "tree": ("lcst",), "stochastic": ("wssr",),
}
# negative, small, past the generators' cap, and non-integer tokens
TOKENS = ("-7", "-1", "0", "1", "2", "3", "4", "6", "257", str(10**9),
          str(10**30), "", "x", "3.5", "1e3", "0x10")
# a key's option: absent, one value, or the key given twice
OPTION = st.one_of(st.none(), st.sampled_from(TOKENS).map(lambda t: [t]),
                   st.lists(st.sampled_from(TOKENS), min_size=2, max_size=2))


@settings(derandomize=True, max_examples=150, deadline=30_000)
@given(kind=st.sampled_from(sorted(GEN_COMMANDS)), n=OPTION, seed=OPTION)
def test_every_generator_kind_keeps_exit_contract(kind, n, seed):
    parts = [kind] + [f"{key}={tok}" for key, toks in (("n", n), ("seed", seed))
                      for tok in toks or ()]
    spec = ":".join(parts)
    for argv in [["gen", spec, "-"]] + [[cmd, "--gen", spec]
                                        for cmd in GEN_COMMANDS[kind]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv


@st.composite
def cut_queries(draw):
    """Up to 8 (child, parent) pairs, int costs and a bound: a tree rooted
    at 0 with some pairs redrawn, so duplicate children, the root as a
    child, dangling parents and cycles occur next to well-formed trees."""
    n = draw(st.integers(0, 8))
    redrawn = draw(st.sets(st.integers(1, n), max_size=n)) if n else set()
    pair = st.tuples(st.integers(0, 8), st.integers(0, 8))
    edges = tuple(draw(st.permutations(
        [draw(pair) if v in redrawn else (v, draw(st.integers(0, v - 1)))
         for v in range(1, n + 1)])))
    costs = tuple(draw(st.integers(0, 3)) for _ in edges)
    return edges, costs, draw(st.integers(0, n + 1))


def _rooted_tree(edges, root):
    """Distinct children, the root not among them, and every parent chain
    reaching the root."""
    parent = dict(edges)
    if len(parent) != len(edges) or root in parent:
        return False
    for v in parent:
        for _ in edges:
            if v == root:
                break
            v = parent.get(v, v)
        if v != root:
            return False
    return True


@settings(derandomize=True, max_examples=400, deadline=None)
@given(query=cut_queries())
def test_cut_oracle_answers_or_raises_value_error(query):
    edges, costs, bound = query
    try:
        value, witness = min_cut_with_exceptions(
            CutQuery(edges, costs, 0, bound))
    except ValueError:
        assert not _rooted_tree(edges, 0), query
        return
    assert _rooted_tree(edges, 0), query
    assert value == brute_min_cut(edges, costs, 0, bound)
    check_cut(edges, costs, 0, bound, value, witness)


# wtc term lines and STOCHASTIC element lines as token streams: a valid
# line with some tokens swapped for malformed ones, namely negative and
# out-of-domain members, bad member:unit items and rationals, a missing
# " : ", an odd point/probability count and zero or negative lengths
BAD_RATS = ("0/1", "-1/2", "3/2", "1/0", "x", "", "1/2/3")
BAD_ITEMS = ("x:1/2", "1:", ":1/2", "1", "1:1/1:2")


def _spoil(rng, tokens, bad, rate):
    return [rng.choice(bad) if rng.random() < rate else t for t in tokens]


def wtc_line(rng, n, rate):
    terms = []
    for weight in rng.choice((["1/1"], ["1/2", "1/2"])):
        members = sorted(rng.sample(range(n), rng.randint(1, n)))
        items = [f"{e}:1/1" for e in members]
        if rng.random() < rate:
            bad = rng.choice((-2, -1, n, n + 1))
            items.insert(0 if bad < 0 else len(items), f"{bad}:1/1")
        items = _spoil(rng, items, BAD_ITEMS, rate)
        sep = " : " if rng.random() >= rate else rng.choice((" ", " :", ""))
        terms.append(_spoil(rng, [weight], BAD_RATS, rate)[0] + sep
                     + " ".join(items))
    count = len(terms) + (rng.choice((-1, 1)) if rng.random() < rate else 0)
    return " ; ".join([f"wtc {count}"] + terms)


def element_line(rng, n, rate):
    probs = rng.choice((["1/1"], ["1/2", "1/2"], ["1/3", "2/3"]))
    points = sorted(rng.sample(range(n), min(n, len(probs))))
    points += [rng.choice((-1, n))] * (len(probs) - len(points))
    points = [str(rng.choice((-1, n))) if rng.random() < rate else str(b)
              for b in points]
    tokens = [t for pair in zip(points, _spoil(rng, probs, BAD_RATS, rate))
              for t in pair]
    if rng.random() < rate:
        tokens.pop()   # an odd point/probability count
    length = str(rng.randint(1, 3))
    if rng.random() < rate:
        length = rng.choice(("0", "-1", "x"))
    sep = " : " if rng.random() >= rate else rng.choice((" ", " :", ""))
    return length + sep + " ".join(tokens)


@settings(derandomize=True, max_examples=400, deadline=5_000)
@given(n=st.integers(1, 4), m=st.integers(1, 2), k=st.integers(1, 3),
       rate=st.sampled_from((0.0, 0.05, 0.1, 0.3)),
       seed=st.integers(0, 2**32))
def test_term_and_element_token_streams_keep_exit_contract(
        n, m, k, rate, seed):
    rng = random.Random(seed)
    valuations = f"VALUATIONS {m} {n} wtc 1/2\n" + "\n".join(
        wtc_line(rng, n, rate) for _ in range(m))
    elements = [element_line(rng, n, rate) for _ in range(k)]
    texts = {
        "rank": f"LATCOV v1 ranking\n{valuations}\nEND\n",
        "wssr": (f"LATCOV v1 wssr\n{valuations}\nSTOCHASTIC {k} {n}\n"
                 + "\n".join(elements) + "\nEND\n"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, text in texts.items():
            try:
                loads(text)
            except ValueError:   # CapExceeded included
                pass
            path = os.path.join(tmp, f"{cmd}.lcov")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            argv = [cmd, "--in", path] + (
                ["--samples", "20"] if cmd == "wssr" else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 3), (argv, text)
            assert "Traceback" not in err.getvalue(), (argv, text)


# METRIC rows and TREE/GROUPS rows as token streams: valid rows with some
# tokens swapped for malformed ones (non-integers, negatives, out-of-range
# vertices, a missing " : "), and some rows short or long by a token
BAD_INTS = ("x", "", "1.5", "1/2", "2:1", "-1", "-3")


def _reshape(rng, tokens, rate):
    if rng.random() < rate:
        return tokens[:-1]
    if rng.random() < rate:
        return tokens + [rng.choice(("1", "x"))]
    return tokens


def metric_rows(rng, n, rate):
    dist = [[0 if i == j else rng.randint(1, 2) for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i):
            dist[i][j] = dist[j][i]
    return [" ".join(_reshape(rng, _spoil(rng, [str(x) for x in row],
                                          BAD_INTS, rate), rate))
            for row in dist]


def tree_rows(rng, nv, rate):
    parent = {v: rng.randrange(v) for v in range(1, nv)}
    rows = []
    for v, p in parent.items():
        toks = [str(v), str(p), str(rng.randint(0, 3))]
        if rng.random() < rate:
            toks[rng.randrange(2)] = str(rng.choice((-1, nv, nv + 1)))
        rows.append(" ".join(_reshape(rng, _spoil(rng, toks, BAD_INTS, rate),
                                      rate)))
    # the groups split the non-root leaves; a lone root has none
    leaves = sorted(set(parent) - set(parent.values())) or [0]
    rng.shuffle(leaves)
    cut = rng.randint(1, len(leaves))
    groups = []
    for part in (leaves[:cut], leaves[cut:]):
        if not part:
            continue
        members = sorted(part)
        k = rng.randint(1, len(members))
        if rng.random() < rate:
            k = rng.choice((0, -1, len(members) + 1))
        sep = " : " if rng.random() >= rate else rng.choice((" ", " :", ""))
        groups.append(" ".join(_spoil(rng, [str(k)], BAD_INTS, rate))
                      + sep + " ".join(_spoil(rng, map(str, members),
                                              BAD_INTS, rate)))
    return rows, groups


def _row_texts(rng, n, rate):
    """One text per row kind, keyed by the instance kind it loads as."""
    wtc = f"VALUATIONS 1 {n} wtc 1/2\n" + wtc_line(rng, n, rate)
    tree, groups = tree_rows(rng, n, rate)
    return {
        "mlsc": (f"LATCOV v1 mlsc\nMETRIC {n} 0\n"
                 + "\n".join(metric_rows(rng, n, rate))
                 + f"\nVALUATIONS 1 {n} wtc 1/1\nwtc 1 ; 1/1 : "
                 + " ".join(f"{e}:1/1" for e in range(n)) + "\nEND\n"),
        "lcst": "\n".join(["LATCOV v1 lcst", f"TREE {n} 0", *tree,
                            f"GROUPS {len(groups)}", *groups, "END\n"]),
        "ranking": f"LATCOV v1 ranking\n{wtc}\nEND\n",
        "wssr": (f"LATCOV v1 wssr\n{wtc}\nSTOCHASTIC 2 {n}\n"
                 + "\n".join(element_line(rng, n, rate) for _ in range(2))
                 + "\nEND\n"),
    }


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=5_000)
@given(n=st.integers(1, 4), rate=st.sampled_from((0.05, 0.1, 0.3)),
       seed=st.integers(0, 2**32))
def test_malformed_rows_are_refused_by_section_and_line(n, rate, seed):
    # every refused row says where it is and what it holds, never Python's
    # own unpacking or int() message
    for text in _row_texts(random.Random(seed), n, rate).values():
        try:
            loads(text)
        except ValueError as exc:
            message = str(exc)
            assert "unpack" not in message, (message, text)
            assert "invalid literal" not in message, (message, text)


@settings(derandomize=True, max_examples=200, deadline=10_000)
@given(n=st.integers(1, 4), rate=st.sampled_from((0.0, 0.05, 0.1, 0.3)),
       seed=st.integers(0, 2**32))
def test_metric_and_tree_token_streams_keep_exit_contract(n, rate, seed):
    texts = _row_texts(random.Random(seed), n, rate)
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("mlsc", "lcst"):
            text = texts[kind]
            try:
                loads(text)
            except ValueError:   # CapExceeded included
                pass
            path = os.path.join(tmp, f"{kind}.lcov")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            for cmd, *extra in KIND_COMMANDS[kind]:
                argv = [cmd, "--in", path, *extra]
                code, _, err = _run_quiet(argv)
                assert code in (0, 2, 3), (argv, text)
                assert "Traceback" not in err, (argv, text)


# each subcommand's own flags with their valid values; None marks a
# switch, which takes no value.  A drawn flag is mostly given a valid
# value, else zero, a negative, a huge integer, a non-number, an empty
# value or none at all.  --gen values are generator heads, given n <= 6
# and a seed.
BAD_VALUES = ("0", "-1", "x", "", "1000000000000")
STO_FLAGS = {"--oracle": None, "--samples": ("20", "1")}
# each command's valid values agree with one another: the same filter,
# element and set counts, points inside the domain
SSC_FLAGS = {"--domain": ("4",), "--sets": ("0,1;2,3", "0;1,2,3"),
             "--elements": ("0:1/2,2:1/2|1:1|3:1/2,0:1/2",
                            "0:1|1:1/2,3:1/2|2:1"),
             "--lengths": ("1,2,1", "1,1,1"), **STO_FLAGS}
ARGV_FLAGS = {
    "gen": {},
    "rank": {"--gen": ("explicit", "coverage", "multicoverage", "gmssc",
                       "groups"), "--oracle": None},
    "sop": {"--gen": ("uniform", "grid"), "--budget": ("3", "1"),
            "--solver": ("exact", "greedy"), "--oracle": None},
    "mlsc": {"--gen": ("uniform", "grid"), "--solver": ("exact", "greedy"),
             "--oracle": None},
    "lcst": {"--gen": ("tree", "uniform", "grid"), "--embed-seed": ("3",),
             "--round-seed": ("5",), "--no-embed": None,
             "--repeat-mult": ("1", "6"), "--weight-mult": ("192", "1")},
    "wssr": {"--gen": ("stochastic",), **STO_FLAGS},
    "ssc": SSC_FLAGS,
    "filters": {"--queries": ("0,1;1", "0;1"),
                "--selectivities": ("1/2,1/3", "1/3,2/3"),
                "--lengths": ("1,2", "2,1"), "--latency": None, **STO_FLAGS},
    "sgmssc": {"--domain": ("3",), "--sets": ("0,1;2", "0;1,2"),
               "--reqs": ("1,1", "2,1"),
               "--elements": ("0:1/2,1:1/2|2:1", "0:1|1:1/2,2:1/2"),
               "--lengths": ("2,1", "1,1"), **STO_FLAGS},
    "suite": {"--seeds": ("1", "4"), "--samples": ("20",),
              "--jobs": ("1", "2")},
}
# what a run cannot do without: its instance source, its problem data
REQUIRED = ("--gen", "--domain", "--sets", "--elements", "--lengths",
            "--queries", "--selectivities", "--reqs")
POSITIONAL = {"gen": ("explicit", "tree", "uniform", "stochastic", "x"),
              "suite": cli.SUITE_NAMES + ("lemmas", "x")}
UNKNOWN = (["--bogus"], ["--bogus", "1"], ["--jobs", "1"], ["--in"])


# sizes: mostly 1..6, sometimes zero or negative
SIZES = st.sampled_from((1, 2, 3, 4, 5, 6) * 3 + (0, -1))


@st.composite
def genspecs(draw, heads):
    return (f"{draw(st.sampled_from(heads))}:n={draw(SIZES)}"
            f":seed={draw(st.integers(0, 9))}")


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    argv = [cmd]
    if cmd == "gen":
        argv.append(draw(genspecs(POSITIONAL[cmd])))
    elif cmd in POSITIONAL:
        argv.append(draw(st.sampled_from(POSITIONAL[cmd])))
    flags = {**ARGV_FLAGS[cmd], "--seed": ("0", "7")}
    for flag, values in flags.items():
        if draw(st.integers(0, 9)) >= (9 if flag in REQUIRED else 5):
            continue
        argv.append(flag)
        if values is None:
            continue
        pick = draw(st.integers(0, 19))
        if pick == 0:
            continue    # the value is missing
        if pick <= 2:
            argv.append(draw(st.sampled_from(BAD_VALUES)))
        elif flag == "--gen":
            argv.append(draw(genspecs(values)))
        else:
            argv.append(draw(st.sampled_from(values)))
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from(UNKNOWN))
    return argv + ["--format", "json"]


@settings(derandomize=True, max_examples=300, deadline=20_000)
@given(argv=argvs())
def test_argv_fuzz_keeps_exit_contract(argv):
    code, out, err = _run_quiet(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if argv[0] == "gen" or not out:
        return   # gen prints the instance itself
    records = json.loads(out)
    assert (code == 2) == any(r["ok"] == "fail" for r in records), argv
