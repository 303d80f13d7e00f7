"""BENCHMARK.json, the golden table and the runner agree with each other."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from latcov import cli  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_runner_prints():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    want = tracer.metric_names() + list(run.TRACE_METRICS)
    got = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert got == want


def test_golden_covers_every_invocation_of_every_rotation():
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    for workload in workloads.WORKLOADS:
        for base in range(workloads.POOL):
            plan = workloads.plan_for(workload, base, cli.parse_genspec)
            for inv in plan.invocations:
                assert inv.key in golden, inv.key


def test_workload_seed_rotates_the_pool():
    a = workloads.plan_for("sop-grid", 0, cli.parse_genspec)
    b = workloads.plan_for("sop-grid", 7, cli.parse_genspec)
    assert sorted(a.files) == sorted(b.files)
    assert a.files != b.files


def test_reference_units_cancel_host_speed():
    # the same solve, once on a host twice as slow, far enough apart that
    # each is scaled only by the reference runs next to it
    fast = (0, 0.0, 1.0, 1.1, [0.01] * 10)
    slow = (0, 100.0, 2.0, 102.2, [0.02] * 10)
    killed = (1, 102.3, 4.0, 106.3, [])
    in_ref, in_s = run.medians([fast, slow, killed])
    assert in_ref == pytest.approx([100.0, 200.0])
    assert in_s == [1.5, 4.0]
