"""Self-tests for the benchmark's tracer.

    python3 -m pytest perfbench/tests -q

The first test runs tiny CLI invocations with the tracer installed and
requires a recorded call for every probed function, which catches a probe
that misses a `from x import y` binding.  The others check self time on a
synthetic span tree and that installing and removing the probes leaves
latcov as it was.
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
from latcov import cli  # noqa: E402
from latcov.instances import serial  # noqa: E402


def _run(tr, argv):
    tr.begin_invocation(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()


@pytest.fixture
def traced():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_probe_records_a_call(traced, tmp_path):
    inst = tmp_path / "tiny.lcov"
    inst.write_text(serial.dumps(cli.parse_genspec("explicit:n=4:seed=0")))
    grid = tmp_path / "grid.lcov"
    grid.write_text(serial.dumps(cli.parse_genspec("grid:n=5:seed=3")))
    invocations = [
        ["rank", "--in", str(inst), "--oracle"],
        ["sop", "--in", str(grid), "--solver", "greedy"],
        ["sop", "--gen", "grid:n=5:seed=3", "--solver", "exact"],
        ["mlsc", "--gen", "uniform:n=4:seed=1", "--oracle"],
        ["lcst", "--tree", os.path.join(ROOT, "fixtures", "star.lcov")],
        ["lcst", "--gen", "grid:n=3:seed=7"],
        ["wssr", "--gen", "stochastic:n=3:seed=0", "--oracle",
         "--samples", "20"],
        ["wssr", "--gen", "stochastic:n=6:seed=1", "--samples", "5"],
        ["suite", "ranking-lemmas", "--seeds", "2", "--jobs", "2"],
    ]
    for argv in invocations:
        _run(traced, argv)
    metrics = traced.metrics()
    missing = [name for name in tracing.SPAN_NAMES
               if metrics[f"{name}.calls"] == 0]
    assert missing == []
    # names bound through `from x import y` are the ones a module patch misses
    from latcov.lcst import lp, separation
    from latcov import stochastic
    assert lp.solve_canonical_max.__wrapped__ is not None
    assert separation.min_cut_with_exceptions.__wrapped__ is not None
    assert cli.solve_lp_lcst.__wrapped__ is not None
    assert stochastic.sto_residual_score.__wrapped__ is not None
    for name in tracing.DERIVED:
        assert name in metrics
    assert metrics["lcst.simplex.cells"] > 0
    assert metrics["lcst.lp.cut_rounds"] >= metrics[
        "lcst.lp.solve_lp_lcst.calls"]
    assert 0 < metrics["instances.CoverFunction.distinct_ratio"] <= 1
    assert metrics["orienteering.value_calls_per_sop"] > 0
    assert 0 < metrics["cli.suite.parallel_eff"] <= 1.05


def test_uninstall_restores_every_binding():
    from latcov.lcst import lp
    from latcov.instances.valuations import CoverFunction
    before = (lp.solve_canonical_max, cli.solve_lp_lcst,
              CoverFunction.__dict__["value"], dict(cli.SUITE_FNS))
    tr = tracing.Tracer()
    tr.install()
    assert lp.solve_canonical_max is not before[0]
    tr.uninstall()
    after = (lp.solve_canonical_max, cli.solve_lp_lcst,
             CoverFunction.__dict__["value"], dict(cli.SUITE_FNS))
    assert after == before


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] overlapping (two
    # threads), c [8, 9]; a has grandchild d [2, 3]
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),
        (3, "c", 8.0, 9.0, 0, 0),
        (4, "d", 2.0, 3.0, 1, 0),
        (5, "late", 9.5, 11.0, 0, 0),   # runs past its parent's end
    ]
    got = tracing.self_times(spans)
    # root's children cover [1, 6] + [8, 9] + [9.5, 10] = 6.5
    assert got[0] == pytest.approx(3.5)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(1.5)


def test_nested_wraps_record_parent_links():
    tr = tracing.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tr.wrap("leaf", leaf)

    def outer(x):
        return wrapped_leaf(x) * 2

    wrapped_outer = tr.wrap("outer", outer)
    tr.begin_invocation(["x"])
    assert wrapped_outer(1) == 4
    (leaf_span, outer_span) = tr.spans
    assert leaf_span[1] == "leaf" and outer_span[1] == "outer"
    assert leaf_span[4] == outer_span[0]
    assert outer_span[4] is None
    assert leaf_span[5] == outer_span[5] == 0
