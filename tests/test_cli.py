"""End-to-end checks of the command-line front end.

Determinism is the load-bearing contract here: identical argument vectors
must produce identical bytes. Everything runs through cli.main in-process so
exit codes and stdout are observable without subprocesses.
"""

import csv
import io
import json
import os
import time

import pytest

from latcov import cli
from latcov.errors import Infeasible
from latcov.instances import serial
from latcov.instances.generators import random_valuations
from latcov.ranking import alg_ag

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out


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
    order, _ = alg_ag(random_valuations("explicit", 6, 1))
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


def test_suite_jobs_do_not_change_bytes(capsys):
    _, one = run_cli(capsys, "suite", "mlsc-lemmas", "--seeds", "4",
                     "--samples", "100", "--jobs", "1")
    _, four = run_cli(capsys, "suite", "mlsc-lemmas", "--seeds", "4",
                      "--samples", "100", "--jobs", "4")
    # --jobs is scheduling, not identity: the bytes must match exactly
    assert one == four


def test_exit_codes():
    assert cli.main(["rank", "--gen", "nonsense:n=3"]) == 2
    assert cli.main(["wssr", "--in", "/no/such/file.lcov"]) == 2
    # over the adaptive caps: surfaces as an invariant violation
    assert cli.main(["wssr", "--gen", "stochastic:n=6:seed=1",
                     "--oracle"]) == 2
    with pytest.raises(SystemExit):
        cli.main(["not-a-subcommand"])


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
                 ["gen", "tree:n=1"], ["gen", "tree:n=2"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "n=" in err and "Traceback" not in err, argv


def test_explicit_table_refused_before_tabulating(capsys):
    # 2^20 and 2^30 table entries: refused up front, not after building
    for argv in (["gen", "grid:n=20:seed=1"], ["gen", "explicit:n=30"]):
        start = time.perf_counter()
        assert cli.main(argv) == 2, argv
        assert time.perf_counter() - start < 5, argv
        assert "capped" in capsys.readouterr().err


def test_exit_code_infeasible(monkeypatch):
    def boom(args, cfg):
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
         "--format", "json", "--jobs", "3"]))
    assert a.digest() == d.digest()
