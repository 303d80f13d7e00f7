"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 36 --trace 0 \
        --out perfbench/BASELINE.json

For every workload and seed it runs perfbench/run.py in a fresh process,
one after another, and reports per metric the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (q3 - q1) / median.
With --out, the summary is merged into that JSON file under
"<workload>" -> "untraced" | "traced".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_one(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="36")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    mode = "traced" if args.trace else "untraced"
    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        bad = 0
        for seed in seed_list(args.seeds):
            res = run_one(workload, seed, args.seconds, args.trace)
            bad += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        summary[workload] = {"failed": bad, "metrics": {
            name: dict(summarise(vals), unit=units[name])
            for name, vals in values.items()}}
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:12s} {name:48s} median {s['median']:>12.6g} "
                  f"{s['unit']:6s} spread {s['spread']:.3f}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                data = json.load(fh)
        for workload, s in summary.items():
            data.setdefault(workload, {})[mode] = dict(
                s, seeds=args.seeds, seconds=float(args.seconds))
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
