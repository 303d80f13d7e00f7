"""Replay the benchmark's golden table: every invocation of every workload
rotation must produce the recorded exit code and records digest.

Runs through perfbench's own worker (set-up and in-process invocation), so
a change to what the CLI writes fails here as it would fail the benchmark.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(BENCH, "golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("base", range(workloads.POOL))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_records_match_golden(workload, base, monkeypatch):
    monkeypatch.chdir(ROOT)   # plans name files relative to the checkout
    cli, plan = worker.set_up(workload, base)
    for inv in plan.invocations:
        code, sha, _ = worker.invoke(cli, inv.argv)
        assert [code, sha] == GOLDEN[inv.key], inv.key
