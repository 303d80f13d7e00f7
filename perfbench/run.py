"""latcov benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lcst-tree --seed 1 --seconds 36 \
        --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(perfbench/worker.py) that import latcov from `src/` and call
`latcov.cli.main(argv)` in-process for every invocation of the workload.

Untraced (--trace 0): set-up is timed SETUPS times, each in a new worker,
and the last worker then repeats passes over the workload's invocations
until --seconds is spent.  Every record is checked against the golden exit
code and sha256 in perfbench/golden.json.  An invocation that does not
answer within DEADLINE_S is killed with its worker and counts as failed; a
new worker continues the pass.

Solve times are reported in reference units (`ref`): each invocation's
seconds divided by the mean time of a fixed pure-Python kernel
(worker.reference_kernel) over the runs of it that the worker timed within
REF_WINDOW_S of the invocation.  The host drifts by a third in speed over
minutes, which raw seconds carry from run to run and the ratio cancels.  Raw
seconds are printed in the table too.

Traced (--trace 1): untraced passes for half of --seconds, then one pass
with the layer functions wrapped (perfbench/tracer.py).  Reports calls and
self time per layer function plus the derived counts, and the tracing
overhead against the untraced passes.  Spans go to .bench_out/.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The lines before it give the environment and a readable table.

    python3 perfbench/run.py --write-golden

re-records golden.json from the current source, for every workload seed
rotation; do that only on a commit whose records are known good.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = ".bench_out"
SETUPS = 7                 # set-up samples per untraced run
DEADLINE_S = 30.0          # per invocation
SETUP_DEADLINE_S = 20.0
HARD_STOP_S = 120.0        # past this, unrun invocations count as failed
REF_WINDOW_S = 3.0         # reference runs this close to a solve scale it
SEED_RULE = (
    "instance seeds rotate the pool 0..{p}: b, b+1, ... mod {p1} from "
    "b = seed mod {p1}; lcst's grid instance uses the first grid seed >= b "
    "whose valuations are singlegroup; suite batteries use their own seeds "
    "0..N-1 and get --seed b")


class WorkerLost(Exception):
    """The worker missed its deadline or exited."""


class Worker:
    """One worker process; its constructor returns once set-up is done."""

    def __init__(self, workload: str, seed: int, span_path: str = "-"):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), span_path],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.keys = self.recv(SETUP_DEADLINE_S)["ready"]
        except WorkerLost:
            self.kill()
            raise
        self.setup_s = perf_counter() - start

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def send(self, obj) -> None:
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise WorkerLost(str(exc)) from exc

    def recv(self, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise WorkerLost(f"no reply within {timeout:.1f}s") from None
        if line is None:
            raise WorkerLost(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> dict:
        self.send({"exit": 1})
        reply = self.recv(SETUP_DEADLINE_S)
        self.proc.stdin.close()
        self.proc.wait(timeout=SETUP_DEADLINE_S)
        self._reap()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reap()

    def _reap(self) -> None:
        self.reader.join()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


class Run:
    """Passes over one workload, with golden checks and deadlines."""

    def __init__(self, workload: str, seed: int, golden: dict, t0: float):
        self.workload, self.seed, self.golden, self.t0 = \
            workload, seed, golden, t0
        self.attempted = self.failed = 0
        self.rss_mb = 0.0
        self.mismatches: list[str] = []
        self.worker: Worker | None = None

    def fresh_worker(self, span_path: str = "-") -> Worker:
        self.worker = Worker(self.workload, self.seed, span_path)
        return self.worker

    def one_pass(self, samples: list) -> float:
        """Run every invocation once; return the summed solve seconds.

        Appends (i, start, seconds, end, reference seconds) per invocation
        to `samples`, timed on this process's clock; the reference kernel
        runs between the end of the solve and `end`, and a killed
        invocation has none.
        """
        total = 0.0
        for i, key in enumerate(self.worker.keys):
            self.attempted += 1
            left = HARD_STOP_S - (perf_counter() - self.t0)
            if left <= 0:
                self.fail(key, "not run: hard stop reached")
                continue
            start = perf_counter()
            try:
                self.worker.send({"run": i})
                reply = self.worker.recv(min(DEADLINE_S, left))
            except WorkerLost as exc:
                # a killed invocation counts as failed, at the time it took
                lost = perf_counter() - start
                total += lost
                samples.append((i, start, lost, start + lost, []))
                self.fail(key, str(exc))
                self.worker.kill()
                self.fresh_worker()
                continue
            total += reply["t"]
            samples.append((i, start, reply["t"], perf_counter(),
                            reply["refs"]))
            want = self.golden.get(key)
            if want != [reply["code"], reply["sha"]]:
                self.fail(key, f"got exit {reply['code']} sha "
                               f"{reply['sha'][:12]}, golden {want}")
        return total

    def passes(self, seconds: float, samples: list) -> list[float]:
        """Repeat passes while the next one should end within `seconds`."""
        walls: list[float] = []
        start = perf_counter()
        while True:
            walls.append(self.one_pass(samples))
            spent = perf_counter() - start
            if spent + walls[-1] > seconds or \
                    perf_counter() - self.t0 > HARD_STOP_S:
                return walls

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.mismatches.append(f"{key}: {why}")

    def finish(self) -> dict:
        reply = self.worker.close()
        self.worker = None
        self.rss_mb = max(self.rss_mb, reply["rss_mb"])
        return reply


def environment(workload: str, seed: int) -> dict:
    src = os.path.join(ROOT, "src")
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "none"
    pool = workloads.POOL
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "workload": workload, "workload_seed": seed,
            "seed_rule": SEED_RULE.format(p=pool - 1, p1=pool)}


def medians(samples: list) -> tuple[list[float], list[float]]:
    """Each invocation's median time in reference units and in seconds.

    A solve is divided by the mean of the reference runs timed within
    REF_WINDOW_S of it, before or after; the run's mean when there are none.
    """
    points = [(end - sum(refs) / 2, sum(refs), len(refs))
              for _, _, _, end, refs in samples if refs]
    typical = (sum(p[1] for p in points) / sum(p[2] for p in points)
               if points else 1.0)
    in_ref: dict[int, list[float]] = {}
    in_s: dict[int, list[float]] = {}
    for i, start, secs, _, _ in samples:
        near = [(total, n) for at, total, n in points
                if start - REF_WINDOW_S <= at <= start + secs + REF_WINDOW_S]
        ref = (sum(t for t, _ in near) / sum(n for _, n in near)
               if near else typical)
        in_ref.setdefault(i, []).append(secs / ref)
        in_s.setdefault(i, []).append(secs)
    return ([statistics.median(v) for v in in_ref.values()],
            [statistics.median(v) for v in in_s.values()])


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUPS - 1):
        worker = run.fresh_worker()
        setups.append(worker.setup_s)
        run.finish()
    setups.append(run.fresh_worker().setup_s)
    samples: list = []
    walls = run.passes(seconds, samples)
    run.finish()
    in_ref, in_s = medians(samples)
    values = {
        "setup_s": statistics.median(setups),
        "wall_ref": sum(in_ref),
        "solve_ref_p50": statistics.median(in_ref),
        "solve_ref_max": max(in_ref),
        "peak_rss_mb": run.rss_mb,
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END.items()}
    refs = [r for *_, rs in samples for r in rs]
    seconds_table = {
        "wall_s": (statistics.median(walls), "s"),
        "solve_s_p50": (statistics.median(in_s), "s"),
        "solve_s_max": (max(in_s), "s"),
        "ref_s": (statistics.median(refs), "s"),
    }
    return metrics, {"passes": len(walls), "invocations": len(in_s),
                     "samples": len(samples),
                     "pass_walls": [round(w, 4) for w in walls],
                     "setups": [round(s, 4) for s in setups],
                     "seconds": seconds_table}


END_TO_END = {"setup_s": "s", "wall_ref": "ref", "solve_ref_p50": "ref",
              "solve_ref_max": "ref", "peak_rss_mb": "MB"}
TRACE_METRICS = (("trace.wall_ref", "ref", "lower"),
                 ("trace.untraced_wall_ref", "ref", "lower"),
                 ("trace.overhead_ref", "ref", "lower"))


def traced(run: Run, seconds: float, span_path: str) -> tuple[dict, dict]:
    run.fresh_worker(span_path)
    samples: list = []
    walls = run.passes(seconds / 2, samples)
    run.worker.send({"trace": 1})
    traced_samples: list = []
    run.one_pass(traced_samples)
    layers = run.finish().get("layers", {})
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    out = {name: (layers.get(name, 0), units[name]) for name in units}
    traced_wall = sum(medians(traced_samples)[0])
    untraced_wall = sum(medians(samples)[0])
    out["trace.wall_ref"] = (traced_wall, "ref")
    out["trace.untraced_wall_ref"] = (untraced_wall, "ref")
    out["trace.overhead_ref"] = (traced_wall - untraced_wall, "ref")
    return out, {"untraced_passes": len(walls), "traced_passes": 1,
                 "spans": span_path}


def write_golden() -> int:
    golden: dict[str, list] = {}
    t0 = perf_counter()
    for workload in workloads.WORKLOADS:
        for base in range(workloads.POOL):
            worker = Worker(workload, base)
            for i, key in enumerate(worker.keys):
                worker.send({"run": i})
                reply = worker.recv(10 * DEADLINE_S)
                got = [reply["code"], reply["sha"]]
                if golden.setdefault(key, got) != got:
                    raise SystemExit(f"nondeterministic record: {key}")
                print(f"{reply['t']:8.3f}s exit {reply['code']}  {key}",
                      file=sys.stderr)
            worker.close()
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} golden records in {perf_counter() - t0:.1f}s",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    t0 = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "latcov", "cli.py")):
        print("perfbench: no latcov source under src/ in this checkout",
              file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        ap.error("--workload is required")
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    run = Run(args.workload, args.seed, golden, t0)
    try:
        if args.trace:
            os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
            span_path = (f"{OUT_DIR}/spans-{args.workload}-"
                         f"seed{args.seed}.jsonl.gz")
            metrics, info = traced(run, args.seconds, span_path)
        else:
            metrics, info = untraced(run, args.seconds)
    except WorkerLost as exc:
        print(f"perfbench: worker failed during set-up: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if run.worker is not None:
            run.worker.kill()

    raw_seconds = info.pop("seconds", {})
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for line in run.mismatches:
        print(f"FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:>14.6g} {unit}")
    for name, (value, unit) in raw_seconds.items():
        print(f"{name:50s} {value:>14.6g} {unit} (raw, moves with the host)")
    print(f"{'fail_ratio':50s} {run.failed / max(run.attempted, 1):>14.6g} "
          f"ratio ({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
