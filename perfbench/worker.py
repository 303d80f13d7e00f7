"""Benchmark worker: one fresh process per workload run.

Started by run.py from the checkout root.  Set-up imports latcov from the
checkout's `src/`, builds the workload plan and writes its instance files,
then reports `ready`.  After that it answers one JSON command per stdin
line and writes one JSON reply per stdout line:

    {"run": i}     run invocation i through latcov.cli.main in-process;
                   reply {"i", "code", "sha", "t", "refs"} with the exit
                   code, the sha256 of the records the CLI wrote, the
                   seconds spent producing and hashing them, and the
                   seconds of each reference kernel run timed right after
    {"trace": 1}   wrap the layer functions; later runs record spans
    {"exit": 1}    reply {"rss_mb", ...}, write spans if traced, and exit

The CLI's own stdout and stderr are captured per invocation, so the
protocol stream carries nothing else.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def set_up(workload: str, seed: int):
    from latcov import cli
    from latcov.instances import serial

    if not os.path.abspath(cli.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"latcov imported from {cli.__file__}, "
                         "not from this checkout")
    plan = workloads.plan_for(workload, seed, cli.parse_genspec)
    for path, spec in plan.files:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(serial.dumps(cli.parse_genspec(spec)))
    return cli, plan


def reference_kernel() -> tuple:
    """Fixed work that uses no latcov code, timed beside every invocation.

    The host's speed drifts by a third over minutes, so raw seconds cannot
    be compared from run to run; times divided by this kernel's time can.
    It mixes the two kinds of work the workloads spend their time on: exact
    Gaussian elimination over Fractions and a dict keyed by bitmasks.
    """
    rng = random.Random(1)
    n = 10
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(n + 1)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    table = {}
    for mask in range(1 << 13):
        table[mask] = bin(mask).count("1") + table.get(mask >> 1, 0)
    return rows[0][n], table[(1 << 13) - 1]


REF_SHARE = 0.1        # reference time per second of invocation


def reference_block(secs: float) -> list[float]:
    """Time the kernel until REF_SHARE * secs is spent, at least once.

    A long invocation gets as many host-speed samples around it as the many
    short invocations that would take its place.  The collector is off, so
    the objects latcov keeps alive do not enter the kernel's time.
    """
    times: list[float] = []
    gc.disable()
    try:
        while not times or sum(times) < REF_SHARE * secs:
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def invoke(cli, argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code, sha, time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, seed, span_path = argv[0], int(argv[1]), argv[2]
    proto = sys.stdout

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    cli, plan = set_up(workload, seed)
    send({"ready": [inv.key for inv in plan.invocations]})
    tracer = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if "run" in cmd:
            i = cmd["run"]
            gc.collect()
            if tracer is not None:
                tracer.begin_invocation(plan.invocations[i].argv)
            code, sha, secs = invoke(cli, plan.invocations[i].argv)
            send({"i": i, "code": code, "sha": sha, "t": secs,
                  "refs": reference_block(secs)})
        elif "trace" in cmd:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        elif "exit" in cmd:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = {"rss_mb": rss_kb / 1024}
            if tracer is not None:
                tracer.uninstall()
                reply["layers"] = tracer.metrics()
                tracer.write(span_path)
            send(reply)
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
