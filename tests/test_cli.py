"""End-to-end checks of the command-line front end.

Determinism is the load-bearing contract here: identical argument vectors
must produce identical bytes. Everything but the import guard runs through
cli.main in-process so exit codes and stdout are observable without
subprocesses.
"""

import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from latcov import cli, mlsc, orienteering, ranking, stochastic
from latcov.errors import CapExceeded, Infeasible, size_cap
from latcov.instances import serial
from latcov.instances.generators import GEN_CAP, random_valuations
from latcov.instances.stoch import StochasticInstance
from latcov.instances.trees import GroupedTree
from latcov.instances.valuations import (ValuationSet, check_submodular,
                                         min_nonzero_marginal)
from latcov.lcst import lp
from latcov.lcst.lp import solve_lp_lcst
from latcov.mlsc import brute_force_latency
from latcov.orienteering import sop_exact, sop_recursive_greedy
from latcov.ranking import alg_ag, brute_force_ranking

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
# [exit code, stdout sha256] of exact LCST runs: the larger ones recorded
# before the sparse simplex replaced the dense tableau, the three under
# n=15 before one root-first pass built each grouped tree
with open(os.path.join(os.path.dirname(__file__), "data",
                       "lcst_records.json")) as _fh:
    LCST_RECORDS = json.load(_fh)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def run_python(code):
    """Run `code` in a fresh interpreter that imports latcov from SRC."""
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)


def rows_of(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no CSV rows in {text!r}"
    return rows


def test_rank_oracle_record(capsys):
    code, out = run_cli(capsys, "rank", "--gen", "explicit:n=6:seed=1",
                        "--oracle")
    assert code == 0
    (row,) = rows_of(out)
    assert row["command"] == "rank"
    assert row["ok"] == "pass"
    # ratio carries numerator and denominator alongside the quotient
    assert row["ratio_num"] == row["objective"]
    assert row["ratio_den"] == row["oracle"] != ""
    assert row["checkpoints"].count(";") >= 1
    # objective matches a direct library call
    order = alg_ag(random_valuations("explicit", 6, 1))
    assert row["objective"] == str(order.objective)


def test_lcst_tree_determinism(capsys):
    args = ("lcst", "--tree", os.path.join(FIXTURES, "star.lcov"),
            "--round-seed", "9")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    (row,) = rows_of(out1)
    assert row["objective"] == "3"   # visit two of the three leaves


def test_json_mirrors_csv(capsys):
    args = ("wssr", "--gen", "stochastic:n=3:seed=4", "--oracle",
            "--samples", "200")
    _, out_csv = run_cli(capsys, *args, "--format", "csv")
    _, out_json = run_cli(capsys, *args, "--format", "json")
    (row,) = rows_of(out_csv)
    (obj,) = json.loads(out_json)
    assert set(obj) == set(cli.COLUMNS) == set(row)
    # --format is presentation only: same config hash, same payload
    assert obj == row


def test_gen_roundtrip(tmp_path, capsys):
    dest = str(tmp_path / "a.lcov")
    code, out = run_cli(capsys, "gen", "stochastic:n=3:seed=4", dest)
    assert code == 0
    inst = serial.load(dest)
    assert inst.kind == "wssr"
    assert inst.stochastic.n == 3
    (row,) = rows_of(out)
    assert row["command"] == "gen"


def test_gen_stdout_prints_instance_only(capsys):
    code, out = run_cli(capsys, "gen", "tree:n=5:seed=2")
    assert code == 0
    assert out.startswith("LATCOV v1 lcst")
    assert serial.loads(out).tree is not None


def test_gen_then_run_matches_gen_spec(tmp_path, capsys):
    dest = str(tmp_path / "r.lcov")
    run_cli(capsys, "gen", "gmssc:n=5:seed=7", dest)
    _, from_file = run_cli(capsys, "rank", "--in", dest, "--oracle")
    _, from_spec = run_cli(capsys, "rank", "--gen", "gmssc:n=5:seed=7",
                           "--oracle")
    keep = ("objective", "oracle", "ratio", "checkpoints", "ok")
    (a,), (b,) = rows_of(from_file), rows_of(from_spec)
    assert {k: a[k] for k in keep} == {k: b[k] for k in keep}


def test_out_file_and_quiet_stdout(tmp_path, capsys):
    out_path = str(tmp_path / "rec.csv")
    code, out = run_cli(capsys, "mlsc", "--gen", "uniform:n=5:seed=3",
                        "--oracle", "--out", out_path)
    assert code == 0
    assert out == ""
    with open(out_path) as fh:
        (row,) = rows_of(fh.read())
    assert row["ok"] == "pass"
    assert row["ratio_den"] == row["oracle"]


def test_sop_exact_oracle_gives_its_verdict(capsys):
    # the exact solver is its own optimum, checked against its declared (1, 1)
    code, out = run_cli(capsys, "sop", "--gen", "grid:n=6:seed=1",
                        "--solver", "exact", "--oracle")
    assert code == 0
    (row,) = rows_of(out)
    assert row["oracle"] == row["objective"] != ""
    assert row["ratio"] == "1" and row["ok"] == "pass"


def test_sop_greedy_vs_exact(capsys):
    code, out = run_cli(capsys, "sop", "--gen", "uniform:n=6:seed=2",
                        "--solver", "greedy", "--oracle", "--budget", "2")
    assert code == 0
    (row,) = rows_of(out)
    assert row["ok"] == "pass"
    assert int(row["detail"].split("length=")[1].split(";")[0]) <= 2


def test_reduction_subcommands(capsys):
    code, out = run_cli(capsys, "ssc", "--domain", "4", "--sets", "0,1;2,3",
                        "--elements", "0:1/2,2:1/2|1:1|3:1/2,0:1/2",
                        "--lengths", "1,2,1", "--oracle", "--samples", "200")
    assert code == 0
    (row,) = rows_of(out)
    assert row["ok"] == "pass" and row["ratio"] != ""

    code, out = run_cli(capsys, "filters", "--queries", "0,1;1",
                        "--selectivities", "1/2,1/3", "--lengths", "1,2",
                        "--latency", "--oracle", "--samples", "200")
    assert code == 0
    (row,) = rows_of(out)
    assert row["detail"].find("m=2") >= 0   # per-query objective

    code, out = run_cli(capsys, "sgmssc", "--domain", "3", "--sets", "0,1;2",
                        "--reqs", "1,1", "--elements", "0:1/2,1:1/2|2:1",
                        "--lengths", "2,1", "--oracle", "--samples", "200")
    assert code == 0
    (row,) = rows_of(out)
    assert row["ok"] == "pass"


def test_reduction_bad_rationals_and_domain_are_bad_input(capsys):
    # a zero denominator raised ZeroDivisionError, an exponent ran for
    # minutes computing 10^99999999, and a --domain past the generators'
    # cap went on to build a 2^domain-bit mask (MemoryError)
    for argv, names in (
            (["ssc", "--domain", "2", "--sets", "0", "--elements", "0:1/0",
              "--lengths", "1"], "'1/0'"),
            (["sgmssc", "--domain", "2", "--sets", "0", "--reqs", "1",
              "--elements", "0:1/0", "--lengths", "1"], "'1/0'"),
            (["filters", "--queries", "0", "--selectivities", "1/0",
              "--lengths", "1"], "'1/0'"),
            (["ssc", "--domain", "2", "--sets", "0", "--elements",
              "0:1e-99999999", "--lengths", "1"], "'1e-99999999'"),
            (["ssc", "--domain", "100000000000", "--sets", "0",
              "--elements", "0:1", "--lengths", "1"], "--domain"),
            (["sgmssc", "--domain", "100000000000", "--sets", "0",
              "--reqs", "1", "--elements", "0:1", "--lengths", "1"],
             "--domain")):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert names in err and "Traceback" not in err, argv


def test_suite_records_sorted_with_summary(capsys):
    code, out = run_cli(capsys, "suite", "wssr-lemmas", "--seeds", "3",
                        "--samples", "100", "--jobs", "2")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 4
    assert [r["seed"] for r in rows] == ["0", "1", "2", ""]
    assert rows[-1]["ok"] == "pass"
    assert "failures=0" in rows[-1]["detail"]


def test_suite_lemmas_runs_every_battery(capsys):
    code, out = run_cli(capsys, "suite", "lemmas", "--seeds", "1",
                        "--samples", "100")
    assert code == 0
    rows = rows_of(out)
    names = {r["command"] for r in rows}
    assert names == {f"suite:{n}" for n in cli.SUITE_NAMES}
    summaries = [r for r in rows if r["seed"] == ""]
    assert len(summaries) == 4
    assert all(r["ok"] == "pass" for r in summaries)


@pytest.mark.parametrize("name", cli.SUITE_NAMES + ("lemmas",))
def test_suite_jobs_do_not_change_bytes(name, capsys, monkeypatch):
    # three CPUs, so --jobs 3 deals seeds 0..6 into uneven shares even on a
    # smaller host
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    outs = [run_cli(capsys, "suite", name, "--seeds", "7", "--samples",
                    "100", "--jobs", jobs) for jobs in ("1", "2", "3")]
    # --jobs is scheduling, not identity: the bytes must match exactly
    assert outs[0][0] == 0
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert multiprocessing.active_children() == []


def test_suite_workers_cap_by_seeds_and_cpus(monkeypatch, capsys):
    # computed, never started: no test forks a million processes
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli.suite_workers(10**6, 5) == 5
    assert cli.suite_workers(3, 5) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.suite_workers(10**6, 10**6) == 2
    assert cli.suite_workers(1, 10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.suite_workers(10**6, 10**6) == 1
    # fork copies only the forking thread, so another thread's held locks
    # would stay held in the child: no fan-out while one runs
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert cli.suite_workers(4, 4) == 1
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert cli.suite_workers(4, 4) == 4
    # a huge --jobs runs on min(seeds, cpus) processes, the calling one
    # included, with the same bytes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    fork_process = multiprocessing.get_context("fork").Process
    start = fork_process.start
    monkeypatch.setattr(fork_process, "start",
                        lambda self: (started.append(self), start(self)))
    one = run_cli(capsys, "suite", "ranking-lemmas", "--seeds", "3",
                  "--jobs", "1")
    assert started == []
    huge = run_cli(capsys, "suite", "ranking-lemmas", "--seeds", "3",
                   "--jobs", str(10**6))
    assert huge == one and one[0] == 0
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_nonpositive_suite_jobs_is_bad_input(capsys):
    for jobs in ("0", "-4"):
        argv = ["suite", "ranking-lemmas", "--seeds", "2", "--jobs", jobs]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "--jobs" in captured.err, argv
        assert "Traceback" not in captured.err, argv


def test_bad_domain_and_negative_members_are_refused_by_name(capsys,
                                                             tmp_path):
    stochastic = ["--elements", "0:1", "--lengths", "1"]
    path = tmp_path / "negative.lcov"
    path.write_text("LATCOV v1 ranking\nVALUATIONS 1 3 wtc 1/2\n"
                    "wtc 1 ; 1/1 : -1:1/1 2:1/1\nEND\n")
    cases = [
        (["ssc", "--domain", "0", "--sets", "0", *stochastic],
         "--domain must be >= 1, got 0"),
        (["ssc", "--domain", "-3", "--sets", "0", *stochastic],
         "--domain must be >= 1, got -3"),
        (["ssc", "--domain", "4", "--sets", "-1", *stochastic],
         "term member -1 out of range 0..3"),
        (["sgmssc", "--domain", "3", "--sets=-2,1", "--reqs", "1",
          *stochastic], "term member -2 out of range 0..2"),
        (["rank", "--in", str(path)], "term member -1 out of range 0..2"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert message in captured.err, (argv, captured.err)
        assert "Traceback" not in captured.err, argv


def test_repeat_mult_out_of_range_is_bad_input(capsys):
    star = os.path.join(FIXTURES, "star.lcov")
    for mult in (str(10**9), "-1"):
        start = time.perf_counter()
        assert cli.main(["lcst", "--tree", star, "--repeat-mult", mult]) == 2
        assert time.perf_counter() - start < 5, mult
        captured = capsys.readouterr()
        assert captured.out == "", mult
        assert "--repeat-mult" in captured.err, mult
        assert "Traceback" not in captured.err, mult
    # the default is 6, and the cap itself is accepted
    default = run_cli(capsys, "lcst", "--tree", star)
    assert default == run_cli(capsys, "lcst", "--tree", star,
                              "--repeat-mult", "6")
    assert default[0] == 0
    assert run_cli(capsys, "lcst", "--tree", star, "--repeat-mult",
                   str(size_cap(GEN_CAP)))[0] == 0


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="suites fan out only through fork")


@needs_fork
@pytest.mark.parametrize("bad_seed", [0, 1])
def test_suite_share_failure_joins_every_child(bad_seed, capsys,
                                               monkeypatch):
    # two shares: even seeds run in the calling process, odd seeds in a
    # child, which inherits the patched battery through the fork
    def battery(seed, samples):
        if seed == bad_seed:
            raise ValueError(f"battery broke at seed {seed} in pid "
                             f"{os.getpid()}")
        if bad_seed == 0 and seed % 2:
            time.sleep(60)      # the caller's failure must not wait for it
        return {"ok": "pass"}

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(cli.SUITE_FNS, "ranking-lemmas", battery)
    start = time.perf_counter()
    assert cli.main(["suite", "ranking-lemmas", "--seeds", "4",
                     "--jobs", "2"]) == 2
    assert time.perf_counter() - start < 30
    err = capsys.readouterr().err
    assert f"battery broke at seed {bad_seed} in pid" in err
    assert "Traceback" not in err
    caller = f"in pid {os.getpid()}\n" in err
    assert caller == (bad_seed == 0)
    assert multiprocessing.active_children() == []


@needs_fork
def test_suite_child_killed_by_signal_is_an_error():
    # a child that dies without answering (here SIGKILL, as from the OOM
    # killer) must end the suite with exit 2, not leave it waiting; run in
    # a subprocess so a regression times out instead of hanging the tests
    proc = run_python(
        "import multiprocessing, os, signal\n"
        "from latcov import cli\n"
        "def battery(seed, samples):\n"
        "    if seed == 1:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return {'ok': 'pass'}\n"
        "cli.SUITE_FNS['ranking-lemmas'] = battery\n"
        "os.cpu_count = lambda: 2\n"
        "code = cli.main(['suite', 'ranking-lemmas', '--seeds', '4',\n"
        "                 '--jobs', '2'])\n"
        "print(code, multiprocessing.active_children())\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "[]"]
    assert "exited with code -9" in proc.stderr
    assert "Traceback" not in proc.stderr


SSC_ARGS = ("ssc", "--domain", "4", "--sets", "0,1;2,3", "--elements",
            "0:1/2,2:1/2|1:1|3:1/2,0:1/2", "--lengths", "1,2,1")
FILTERS_ARGS = ("filters", "--queries", "0,1;1", "--selectivities",
                "1/2,1/3", "--lengths", "1,2", "--latency")
SGMSSC_ARGS = ("sgmssc", "--domain", "3", "--sets", "0,1;2", "--reqs", "1,1",
               "--elements", "0:1/2,1:1/2|2:1", "--lengths", "2,1")


def _fail_check(*args, **kwargs):
    return False, [(0, 1, 0, 0, 0)]


def _larger_exact(query):
    res = sop_exact(query)
    return dataclasses.replace(res, value=res.value * 8 + 1)


def _larger_lp(tree):
    sol = solve_lp_lcst(tree)
    return dataclasses.replace(sol, objective=10**9)


# each checked command, with the check that decides its verdict
CHECKED = [
    (("rank", "--gen", "explicit:n=4:seed=1", "--oracle"),
     "check_recurrence", _fail_check),
    (("sop", "--gen", "grid:n=6:seed=0", "--solver", "greedy", "--oracle"),
     "sop_exact", _larger_exact),
    (("mlsc", "--gen", "uniform:n=5:seed=1", "--oracle"),
     "check_mlsc_recurrence", _fail_check),
    (("wssr", "--gen", "stochastic:n=4:seed=1", "--oracle", "--samples",
      "20"), "check_sto_recurrence", _fail_check),
    (SSC_ARGS + ("--oracle", "--samples", "20"), "check_sto_recurrence",
     _fail_check),
    (FILTERS_ARGS + ("--oracle", "--samples", "20"), "check_sto_recurrence",
     _fail_check),
    (SGMSSC_ARGS + ("--oracle", "--samples", "20"), "check_sto_recurrence",
     _fail_check),
]
SUITE_CHECKS = {"ranking-lemmas": ("check_recurrence", _fail_check),
                "mlsc-lemmas": ("check_mlsc_recurrence", _fail_check),
                "lcst-probes": ("solve_lp_lcst", _larger_lp),
                "wssr-lemmas": ("check_sto_recurrence", _fail_check)}
# the module that defines each patched check; the CLI imports it at call time
DEFINED_IN = {"check_recurrence": ranking, "sop_exact": orienteering,
              "check_mlsc_recurrence": mlsc, "solve_lp_lcst": lp,
              "check_sto_recurrence": stochastic}


def _json_run(capsys, argv):
    code = cli.main(list(argv) + ["--format", "json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err, argv
    return code, json.loads(captured.out)


@pytest.mark.parametrize("argv,target,fake", CHECKED,
                         ids=[c[0][0] for c in CHECKED])
def test_exit_2_exactly_when_a_record_fails(argv, target, fake, capsys,
                                            monkeypatch):
    code, records = _json_run(capsys, argv)
    assert code == 0 and [r["ok"] for r in records] == ["pass"], argv
    monkeypatch.setattr(DEFINED_IN[target], target, fake)
    code, records = _json_run(capsys, argv)
    assert code == 2 and [r["ok"] for r in records] == ["fail"], argv


@pytest.mark.parametrize("name", cli.SUITE_NAMES)
def test_suite_exits_2_exactly_when_a_battery_fails(name, capsys,
                                                    monkeypatch):
    argv = ("suite", name, "--seeds", "2", "--samples", "40", "--jobs", "1")
    code, records = _json_run(capsys, argv)
    assert code == 0 and {r["ok"] for r in records} == {"pass"}
    target, fake = SUITE_CHECKS[name]
    monkeypatch.setattr(DEFINED_IN[target], target, fake)
    code, records = _json_run(capsys, argv)
    assert code == 2
    assert [r["ok"] for r in records] == ["fail"] * 3
    assert "failures=2" in records[-1]["detail"]


def test_cli_import_loads_no_pool_modules():
    # the pool modules cost CLI start-up time; the suite imports them only
    # when it fans out
    proc = run_python("import sys; before = set(sys.modules); "
                      "import latcov.cli; "
                      "print(sorted({'concurrent.futures', 'multiprocessing'}"
                      " & (set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SOLVERS = {"latcov.lcst", "latcov.stochastic", "latcov.mlsc",
           "latcov.orienteering", "latcov.ranking"}
NO_LCST_OR_STOCHASTIC = {"latcov.lcst", "latcov.stochastic"}
NO_PATH_SOLVERS = {"latcov.lcst", "latcov.mlsc", "latcov.orienteering"}
ONLY_LCST = SOLVERS - {"latcov.lcst"}
# a tiny run of each subcommand (None: import only), with the solver
# modules it must not load; each one costs start-up compile time
LOADS = [
    (None, SOLVERS),
    (["rank", "--gen", "explicit:n=4:seed=1", "--oracle"],
     NO_LCST_OR_STOCHASTIC),
    (["sop", "--gen", "grid:n=5:seed=0", "--oracle"], NO_LCST_OR_STOCHASTIC),
    (["mlsc", "--gen", "uniform:n=4:seed=1", "--oracle"],
     NO_LCST_OR_STOCHASTIC),
    (["suite", "ranking-lemmas", "--seeds", "2", "--jobs", "1"],
     NO_LCST_OR_STOCHASTIC),
    (["wssr", "--gen", "stochastic:n=3:seed=0", "--oracle", "--samples",
      "20"], NO_PATH_SOLVERS),
    (list(SSC_ARGS) + ["--samples", "20"], NO_PATH_SOLVERS),
    (list(FILTERS_ARGS) + ["--samples", "20"], NO_PATH_SOLVERS),
    (list(SGMSSC_ARGS) + ["--samples", "20"], NO_PATH_SOLVERS),
    (["lcst", "--gen", "tree:n=5:seed=1"], ONLY_LCST),
    (["suite", "lcst-probes", "--seeds", "2", "--jobs", "1"], ONLY_LCST),
]


@pytest.mark.parametrize("argv,unwanted", LOADS,
                         ids=[a[0] if a else "import" for a, _ in LOADS])
def test_each_subcommand_loads_only_its_solvers(argv, unwanted):
    proc = run_python(
        "import contextlib, io, json, sys\n"
        "from latcov import cli\n"
        f"argv = {argv!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(argv) if argv else 0\n"
        f"unwanted = set({sorted(unwanted)!r})\n"
        "print(json.dumps([code, sorted(unwanted & set(sys.modules))]))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []], argv


def test_cli_forwards_only_the_lp_solver_name(monkeypatch):
    assert cli.solve_lp_lcst is lp.solve_lp_lcst
    monkeypatch.setattr(lp, "solve_lp_lcst", _larger_lp)
    assert cli.solve_lp_lcst is lp.solve_lp_lcst is _larger_lp
    for name in ("solve_canonical_max", "alg_ag", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


def test_exit_codes():
    assert cli.main(["rank", "--gen", "nonsense:n=3"]) == 2
    assert cli.main(["gen", "tree:n=5:n=6", "-"]) == 2
    assert cli.main(["wssr", "--in", "/no/such/file.lcov"]) == 2
    # over the adaptive caps: surfaces as an invariant violation
    assert cli.main(["wssr", "--gen", "stochastic:n=6:seed=1",
                     "--oracle"]) == 2
    # argparse refusals; --jobs is a suite flag only
    for argv in (["not-a-subcommand"],
                 ["rank", "--gen", "explicit:n=4:seed=1", "--jobs", "-3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


def test_zero_denominator_in_file_is_bad_input(tmp_path, capsys):
    dest = tmp_path / "z.lcov"
    run_cli(capsys, "gen", "explicit:n=3:seed=0", str(dest))
    lines = dest.read_text().splitlines()
    (i,) = [k for k, ln in enumerate(lines) if ln.startswith("VALUATIONS")]
    lines[i] = " ".join(lines[i].split()[:-1] + ["1/0"])
    dest.write_text("\n".join(lines) + "\n")
    code = cli.main(["rank", "--in", str(dest)])
    assert code == 2
    assert "zero denominator" in capsys.readouterr().err


def test_tiny_epsilon_in_file_does_not_overflow(tmp_path, capsys):
    # alpha = 1 + ln(1/eps) for eps = 1/10^400: 1/eps is past the float range
    dest = tmp_path / "tiny.lcov"
    run_cli(capsys, "gen", "explicit:n=3:seed=0", str(dest))
    lines = dest.read_text().splitlines()
    (i,) = [k for k, ln in enumerate(lines) if ln.startswith("VALUATIONS")]
    lines[i] = " ".join(lines[i].split()[:-1] + [f"1/{10**400}"])
    dest.write_text("\n".join(lines) + "\n")
    code = cli.main(["rank", "--in", str(dest), "--oracle"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_nonpositive_generator_size_is_bad_input(capsys):
    for argv in (["gen", "tree:n=-3"], ["gen", "stochastic:n=0"],
                 ["wssr", "--gen", "stochastic:n=0"],
                 ["gen", "tree:n=1"], ["gen", "tree:n=2"],
                 ["gen", "grid:n=1"], ["gen", "uniform:n=1"],
                 ["sop", "--gen", "grid:n=1"], ["mlsc", "--gen", "uniform:n=1"],
                 ["lcst", "--gen", "grid:n=1"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "n=" in err and "Traceback" not in err, argv
    for argv in (["gen", "grid:n=2"], ["gen", "uniform:n=2"]):
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_nonpositive_samples_is_bad_input(capsys):
    gen6 = ["--gen", "stochastic:n=6:seed=1"]
    for argv in (["wssr", *gen6, "--samples", "0"],
                 ["wssr", *gen6, "--samples", "-3"],
                 ["wssr", "--gen", "stochastic:n=3:seed=1", "--samples", "0",
                  "--oracle"],
                 ["suite", "wssr-lemmas", "--seeds", "1", "--samples", "0"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "samples" in err and "Traceback" not in err, argv


@pytest.mark.parametrize("argv", [
    ("wssr", "--gen", "stochastic:n=6:seed=1"),
    ("wssr", "--gen", "stochastic:n=3:seed=1", "--oracle"),
    SSC_ARGS, FILTERS_ARGS + ("--oracle",), SGMSSC_ARGS,
    ("suite", "wssr-lemmas", "--seeds", "1"),
    ("suite", "lemmas", "--seeds", "1", "--jobs", "1")],
    ids=["wssr", "wssr-oracle", "ssc", "filters", "sgmssc", "suite-wssr",
         "suite-lemmas"])
def test_samples_past_the_cap_are_refused_before_drawing(argv):
    # 10**12 samples would never finish: a subprocess, so a missing
    # refusal fails on its timeout; the refusal names the cap in force
    proc = subprocess.run(
        [sys.executable, "-m", "latcov", *argv, "--samples", str(10**12)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(
        f"--samples capped at samples={cli.SAMPLE_CAP}, "
        f"got samples={10**12}\n"), proc.stderr
    assert cli.SAMPLE_CAP >= 10**4   # C13's count, the largest in use


def test_samples_cap_counts_draws():
    # a sample draws about one outcome per element, so the cap holds
    # samples * max(n, 8) at 8 * SAMPLE_CAP: unchanged for every n <= 8
    for n in (1, 4, 8):
        cli._samples(cli.SAMPLE_CAP, n)
        with pytest.raises(CapExceeded):
            cli._samples(cli.SAMPLE_CAP + 1, n)
    for n, cap in ((32, 1_250_000), (256, 156_250)):
        cli._samples(cap, n)
        with pytest.raises(CapExceeded, match=f"samples={cap},"):
            cli._samples(cap + 1, n)


def test_samples_under_the_old_cap_are_refused_at_large_n():
    # 200,000 samples at n=256 took 11 s before the cap counted draws; the
    # refusal names the cap in force for that n
    proc = subprocess.run(
        [sys.executable, "-m", "latcov", "wssr", "--gen",
         "stochastic:n=256:seed=1", "--samples", "200000"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(
        "--samples capped at samples=156250, got samples=200000\n"), \
        proc.stderr


def test_nonpositive_suite_seeds_is_bad_input(capsys):
    for seeds in ("0", "-3"):
        assert cli.main(["suite", "lemmas", "--seeds", seeds]) == 2, seeds
        captured = capsys.readouterr()
        assert captured.out == "", seeds
        assert "seeds" in captured.err, seeds
        assert "Traceback" not in captured.err, seeds


@pytest.mark.parametrize("name", ["lemmas", "ranking-lemmas"])
def test_suite_seeds_past_the_cap_are_refused_before_running(name):
    # 10**9 seeds would never finish: a subprocess, so a missing refusal
    # fails on its timeout; the refusal names the cap in force
    proc = subprocess.run(
        [sys.executable, "-m", "latcov", "suite", name, "--seeds",
         str(10**9)], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(
        f"--seeds capped at seeds={cli.SEED_CAP}, got seeds={10**9}\n"), \
        proc.stderr
    assert cli.SEED_CAP >= 160   # the benchmark's suite seed count


# one run of every subcommand, the gen file branch included
EVERY_SUBCOMMAND = [
    ("gen", "stochastic:n=3:seed=4", "{dest}"),
    ("lcst", "--gen", "tree:n=5:seed=1"),
    ("suite", "lemmas", "--seeds", "1", "--samples", "20", "--jobs", "1"),
] + [argv for argv, _, _ in CHECKED]


def test_every_handler_row_key_is_a_column(tmp_path, capsys, monkeypatch):
    # main keeps only the COLUMNS of each row, so a misspelt key would
    # vanish from the output instead of failing
    rows = []

    def recording(handler):
        def run(args):
            got = handler(args)
            rows.extend((args.command, row) for row in got)
            return got
        return run

    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    dest = str(tmp_path / "s.lcov")
    for argv in EVERY_SUBCOMMAND:
        argv = [a.format(dest=dest) for a in argv]
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
    assert {command for command, _ in rows} == \
        {argv[0] for argv in EVERY_SUBCOMMAND}
    for command, row in rows:
        assert set(row) <= set(cli.COLUMNS), (command, row)


@pytest.mark.parametrize("solver", ["exact", "greedy"])
def test_mlsc_root_covering_every_valuation_runs_no_phase(solver, tmp_path,
                                                          capsys):
    # both valuations are covered at the root: no path query is asked
    path = tmp_path / "root.lcov"
    path.write_text("LATCOV v1 mlsc\nMETRIC 2 0\n0 1\n1 0\n"
                    "VALUATIONS 2 2 singlegroup 1/1\n"
                    "wtc 1 ; 1/1 : 0:1/1\nwtc 1 ; 1/1 : 0:1/1\nEND\n")
    code, out = run_cli(capsys, "mlsc", "--in", str(path), "--solver",
                        solver, "--oracle")
    assert code == 0
    (row,) = rows_of(out)
    assert "phases=0" in row["detail"] and row["ok"] == "pass"
    assert row["objective"] == "0"


def test_explicit_table_refused_before_tabulating(tmp_path, capsys):
    # 2^20 and 2^30 table entries: refused up front, not after building;
    # so are generator sizes past GEN_CAP, which overflowed, hung, or (for
    # uniform:n=1000) spent a minute in the metric's triangle check, and a
    # METRIC header past the same cap, refused before its rows are read
    huge = 10 ** 20
    big = tmp_path / "big.lcov"
    big.write_text("LATCOV v1 mlsc\nMETRIC 1000 0\n")
    for argv in (["gen", "explicit:n=20"], ["gen", "explicit:n=30"],
                 ["gen", f"coverage:n={huge}"],
                 ["rank", "--gen", f"gmssc:n={huge}"],
                 ["gen", f"tree:n={huge}"], ["gen", f"stochastic:n={huge}"],
                 ["gen", f"uniform:n={huge}"], ["gen", "uniform:n=1000"],
                 ["sop", "--in", str(big)]):
        start = time.perf_counter()
        assert cli.main(argv) == 2, argv
        assert time.perf_counter() - start < 5, argv
        assert "capped" in capsys.readouterr().err


# sha256 prefixes of `gen grid:n=N:seed=S` stdout for every spec with
# N = 13..16 and S = 0..7 that drew no explicit table past its cap
GRID_GEN_DIGESTS = {
    "grid:n=13:seed=0": "1df169ccf998bbcd",
    "grid:n=13:seed=1": "0e5c1aed79962574",
    "grid:n=13:seed=2": "4aa0bc5ba63821e6",
    "grid:n=13:seed=4": "eeced5f50598b5dd",
    "grid:n=13:seed=5": "baa6314b3e89f4d2",
    "grid:n=13:seed=6": "b71f3de6a7de8f82",
    "grid:n=13:seed=7": "429ca57322b03bf0",
    "grid:n=14:seed=0": "33ba4f5280e4565b",
    "grid:n=14:seed=1": "83eb80463ca76ca1",
    "grid:n=14:seed=2": "956c5a8b16cfc16f",
    "grid:n=14:seed=3": "e6ca8c24e4d539cc",
    "grid:n=14:seed=4": "7eefb4c5fb2402f9",
    "grid:n=15:seed=1": "76876408c9bb9a84",
    "grid:n=15:seed=2": "7697c08424918c51",
    "grid:n=15:seed=3": "9719f6210bfdb476",
    "grid:n=15:seed=5": "ff6bdc2c0660984e",
    "grid:n=15:seed=6": "f39d0b2f1a5c3ebd",
    "grid:n=15:seed=7": "bcc49afb099de2e1",
    "grid:n=16:seed=0": "64d82826594cd972",
    "grid:n=16:seed=1": "fe60ded7a88e9d6c",
    "grid:n=16:seed=2": "cb1f59f4e4928e0c",
    "grid:n=16:seed=3": "40e698642875e528",
    "grid:n=16:seed=5": "273f4f4f145a2819",
    "grid:n=16:seed=6": "bf275e7b8a04e1cd",
    "grid:n=16:seed=7": "c80c7312655f54be",
}


def test_generated_grids_past_the_table_cap_fall_back(capsys):
    # a seed that draws the explicit style past the table cap gets the
    # multicoverage set of the same groups instead of a refusal; every
    # other seed generates the same instance as before
    fallbacks = []
    for n in range(13, 17):
        for seed in range(8):
            spec = f"grid:n={n}:seed={seed}"
            code, out = run_cli(capsys, "gen", spec)
            assert code == 0, spec
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            if spec in GRID_GEN_DIGESTS:
                assert digest == GRID_GEN_DIGESTS[spec], spec
            else:
                assert cli.parse_genspec(spec).valuations.kind \
                    == "multicoverage", spec
                fallbacks.append(spec)
    assert len(fallbacks) == 7


def test_grid_fallback_is_the_table_it_replaces(monkeypatch):
    # with the cap raised, grid:n=13:seed=3 tabulates its explicit table;
    # the fallback computes the same values from the same groups
    fallback = cli.parse_genspec("grid:n=13:seed=3").valuations.functions[0]
    monkeypatch.setenv("LATCOV_CAP", "13")
    table = cli.parse_genspec("grid:n=13:seed=3").valuations
    assert table.kind == "explicit"
    (table,) = table.functions
    assert all(fallback.value(mask) == table.value(mask)
               for mask in range(1 << 13))


def test_tree_header_longer_than_file_is_bad_input(tmp_path, capsys):
    # nv - 1 rows cannot fit in what is left of the file: refused before
    # the nv-slot parent array is allocated (a MemoryError traceback before)
    path = tmp_path / "huge.lcov"
    path.write_text("LATCOV v1 lcst\nTREE 1000000000000 0\nGROUPS 0\nEND\n")
    assert cli.main(["lcst", "--tree", str(path)]) == 2
    err = capsys.readouterr().err
    assert "TREE" in err and "Traceback" not in err


def test_mlsc_vertex_counts_must_agree(tmp_path, capsys):
    # more metric vertices than valuation points ended in an IndexError
    # traceback; fewer gave an exit-0 record
    cases = {
        "wide": ("METRIC 3 0\n0 1 1\n1 0 1\n1 1 0\n"
                 "VALUATIONS 1 2 explicit 1/2\nexplicit 0/1 1/2 1/2 1/1\n",
                 3, 2),
        "narrow": ("METRIC 2 0\n0 1\n1 0\n"
                   "VALUATIONS 1 3 singlegroup 1/1\nwtc 1 ; 1/1 : 1:1/1\n",
                   2, 3),
    }
    for name, (body, n_metric, n_vals) in cases.items():
        path = tmp_path / f"{name}.lcov"
        path.write_text("LATCOV v1 mlsc\n" + body + "END\n")
        src = ["--in", str(path)]
        for argv in (["sop", *src], ["sop", *src, "--solver", "exact"],
                     ["sop", *src, "--oracle"], ["mlsc", *src],
                     ["lcst", *src]):
            assert cli.main(argv) == 2, (name, argv)
            captured = capsys.readouterr()
            assert captured.out == "", (name, argv)
            assert f"METRIC has {n_metric} vertices" in captured.err
            assert f"VALUATIONS has n={n_vals}" in captured.err
            assert "Traceback" not in captured.err


def test_empty_sections_are_refused_by_name(tmp_path, capsys):
    # each used to exit 2 only through "max() arg is an empty sequence"
    vals = "VALUATIONS 1 2 coverage 1/1\nwtc 1 ; 1/1 : 0:1/1 1:1/1\n"
    cases = [("wssr", vals + "STOCHASTIC 0 2\n", "supports"),
             ("wssr", vals + "STOCHASTIC -3 2\n", "STOCHASTIC element count"),
             ("lcst", "TREE 1 0\nGROUPS 0\n", "groups")]
    for i, (kind, body, field) in enumerate(cases):
        path = tmp_path / f"empty{i}.lcov"
        path.write_text(f"LATCOV v1 {kind}\n{body}END\n")
        for extra in ([], ["--oracle"]) if kind == "wssr" else ([],):
            argv = [kind, "--in", str(path), *extra]
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert field in err and "max()" not in err, (argv, err)
    with pytest.raises(ValueError, match="supports"):
        StochasticInstance(2, (), (), ValuationSet.coverage(2, [[0]]))
    with pytest.raises(ValueError, match="groups"):
        GroupedTree((None,), (0,), 0, (), ())


OUT_OF_RANGE_TABLE = ("LATCOV v1 ranking\nVALUATIONS 1 2 explicit 1/2\n"
                      "explicit 0/1 3/2 -1/2 1/1\nEND\n")


def test_explicit_values_outside_unit_interval_are_refused(tmp_path, capsys):
    # values 3/2 and -1/2 loaded, and both commands gave an exit-0 record
    path = tmp_path / "range.lcov"
    path.write_text(OUT_OF_RANGE_TABLE)
    for extra in ([], ["--oracle"]):
        argv = ["rank", "--in", str(path), *extra]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "explicit table values must lie in [0, 1]" in captured.err


# f(empty) = 1/2 > f({0}) = 0 in the second table
NON_MONOTONE_TABLES = ("LATCOV v1 ranking\nVALUATIONS 2 2 explicit 1/2\n"
                       "explicit 0/1 1/2 1/2 1/1\n"
                       "explicit 1/2 0/1 0/1 1/1\nEND\n")


def test_non_monotone_explicit_tables_are_refused(tmp_path, capsys):
    # rank --oracle gave ok=pass, though both subset-DP oracles are exact
    # only for monotone valuations
    path = tmp_path / "dip.lcov"
    path.write_text(NON_MONOTONE_TABLES)
    for extra in ([], ["--oracle"]):
        argv = ["rank", "--in", str(path), *extra]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "explicit table of function 1 is not monotone" in captured.err


# labelled singlegroup, but units 2/3 need both members, and two terms
MISLABELLED_SINGLEGROUP = [
    "LATCOV v1 mlsc\nMETRIC 3 0\n0 1 1\n1 0 1\n1 1 0\n"
    f"VALUATIONS 1 3 singlegroup 1/2\nwtc {body}\nEND\n"
    for body in ("1 ; 1/1 : 1:2/3 2:2/3", "2 ; 1/2 : 1:1/1 ; 1/2 : 2:1/1")]


@pytest.mark.parametrize("text", MISLABELLED_SINGLEGROUP)
def test_lcst_embedding_refuses_mislabelled_singlegroup(text, tmp_path,
                                                        capsys):
    # each was embedded as another instance (requirement 1, or the first
    # term alone) and gave an exit-0 record
    path = tmp_path / "label.lcov"
    path.write_text(text)
    assert cli.main(["lcst", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "function 0 is not one weight-1 term" in captured.err


def test_cap_messages_name_the_cap_in_force(monkeypatch, capsys):
    # each named its default cap, though LATCOV_CAP had raised it
    monkeypatch.setenv("LATCOV_CAP", "9")
    assert cli.main(["rank", "--gen", "explicit:n=10:seed=0", "--oracle"]) == 2
    assert "brute_force_ranking capped at n=9, got n=10" in \
        capsys.readouterr().err
    monkeypatch.setenv("LATCOV_CAP", "70")
    big = SimpleNamespace(n=71, metric=SimpleNamespace(n=71))
    for call, args, unit in [(brute_force_ranking, (big,), "n"),
                             (brute_force_latency, (big, big), "n"),
                             (sop_exact, (big,), "|V|"),
                             (sop_recursive_greedy, (big,), "|V|"),
                             (check_submodular, (None, 71), "n"),
                             (min_nonzero_marginal, (None, 71), "n")]:
        with pytest.raises(CapExceeded) as info:
            call(*args)
        assert str(info.value).endswith(
            f" capped at {unit}=70, got {unit}=71"), call


def test_valuations_header_is_capped(tmp_path, capsys):
    # one coverable function over 100000 elements: ranking ran on (past 15 s)
    path = tmp_path / "wide.lcov"
    path.write_text("LATCOV v1 ranking\nVALUATIONS 1 100000 coverage 1/2\n"
                    "wtc 1 ; 1/1 : 0:1/1\nEND\n")
    start = time.perf_counter()
    assert cli.main(["rank", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "VALUATIONS capped" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", sorted(LCST_RECORDS))
def test_larger_lcst_records_are_pinned(argv, capsys):
    code, out = run_cli(capsys, *argv.split())
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == \
        LCST_RECORDS[argv]


def test_exit_code_infeasible(monkeypatch):
    def boom(args):
        raise Infeasible("no fractional flow meets the requirement")

    args = cli.build_parser().parse_args(
        ["rank", "--gen", "explicit:n=3:seed=0"])
    args.func = boom

    class FixedParser:
        def parse_args(self, argv=None):
            return args

    monkeypatch.setattr(cli, "build_parser", FixedParser)
    assert cli.main(["rank", "--gen", "explicit:n=3:seed=0"]) == 3


def test_rank_requires_exactly_one_source():
    assert cli.main(["rank"]) == 2
    assert cli.main(["rank", "--gen", "explicit:n=4:seed=0", "--in",
                     "x.lcov"]) == 2


def test_kind_mismatch_rejected():
    assert cli.main(["rank", "--gen", "tree:n=5:seed=0"]) == 2
    assert cli.main(["lcst", "--gen", "stochastic:n=3:seed=0"]) == 2


def test_lcst_embeds_metric_instances(capsys):
    # uniform:n=6:seed=6 carries per-group valuations, so it embeds
    code, out = run_cli(capsys, "lcst", "--gen", "uniform:n=6:seed=6",
                        "--embed-seed", "3", "--round-seed", "5")
    assert code == 0
    (row,) = rows_of(out)
    assert row["objective"] != ""
    assert "lp=" in row["detail"]


def test_lcst_no_embed_refuses_metric():
    assert cli.main(["lcst", "--gen", "uniform:n=6:seed=11",
                     "--no-embed"]) == 2


def test_config_hash_tracks_options():
    parser = cli.build_parser()
    a = cli.RunConfig.from_args(parser.parse_args(
        ["rank", "--gen", "explicit:n=4:seed=1"]))
    b = cli.RunConfig.from_args(parser.parse_args(
        ["rank", "--gen", "explicit:n=4:seed=2"]))
    c = cli.RunConfig.from_args(parser.parse_args(
        ["rank", "--gen", "explicit:n=4:seed=1"]))
    assert a.digest() != b.digest()
    assert a.digest() == c.digest()
    assert a == c
    d = cli.RunConfig.from_args(parser.parse_args(
        ["rank", "--gen", "explicit:n=4:seed=1", "--out", "x.csv",
         "--format", "json"]))
    assert a.digest() == d.digest()
    one, three = (cli.RunConfig.from_args(parser.parse_args(
        ["suite", "ranking-lemmas", "--jobs", jobs])) for jobs in ("1", "3"))
    assert one.digest() == three.digest()


HUGE = "1000000000000"
HUGE_INT_ARGVS = [
    *[(*base, "--seed", HUGE) for base in (
        ("gen", "tree:n=4:seed=1"), ("rank", "--gen", "explicit:n=4:seed=1"),
        ("sop", "--gen", "grid:n=5:seed=0"),
        ("mlsc", "--gen", "uniform:n=4:seed=1"),
        ("lcst", "--gen", "uniform:n=6:seed=6"),
        ("wssr", "--gen", "stochastic:n=3:seed=1", "--oracle"),
        SSC_ARGS, FILTERS_ARGS, SGMSSC_ARGS,
        ("suite", "wssr-lemmas", "--seeds", "1"))],
    ("sop", "--gen", "grid:n=5:seed=0", "--budget", HUGE),
    ("lcst", "--gen", "uniform:n=6:seed=6", "--embed-seed", HUGE),
    *[("lcst", "--gen", "tree:n=6:seed=1", flag, HUGE)
      for flag in ("--round-seed", "--repeat-mult", "--weight-mult")],
    *[(*base, "--samples", HUGE) for base in (
        ("wssr", "--gen", "stochastic:n=3:seed=1"), SSC_ARGS, FILTERS_ARGS,
        SGMSSC_ARGS, ("suite", "wssr-lemmas", "--seeds", "1"))],
    *[(*base[:1], *base[3:], "--domain", HUGE)
      for base in (SSC_ARGS, SGMSSC_ARGS)],
    ("suite", "wssr-lemmas", "--seeds", HUGE),
    ("suite", "wssr-lemmas", "--seeds", "1", "--jobs", HUGE)]


class _Deadline(BaseException):
    """Raised by the alarm; no handler in the CLI catches it."""


def _past_deadline(signum, frame):
    raise _Deadline


@pytest.mark.parametrize("argv", HUGE_INT_ARGVS,
                         ids=[" ".join(a) for a in HUGE_INT_ARGVS])
def test_huge_integer_flags_keep_exit_contract(argv, capsys):
    # every integer flag of every subcommand, given 10**12 once: a cap
    # refuses it (exit 2) or the run answers, within the deadline
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        code = cli.main(list(argv))
    except _Deadline:
        pytest.fail(f"{argv} ran past 10 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in capsys.readouterr().err, argv
