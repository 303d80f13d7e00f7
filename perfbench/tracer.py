"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions listed in PROBES.  A function
is replaced in its defining module and in every latcov module that bound it
by name (`from .simplex import solve_canonical_max` makes a second binding
in `lcst.lp`); methods are replaced on their class.  Each wrapped call
records one span: (span id, name, start, end, parent span id, invocation).
Spans stay in memory until `write()`.

Self time is a span's duration minus the part of its interval covered by
its child spans.  A span opened on a thread with no open span of its own
(the `suite --jobs` pool) takes the main thread's innermost open span as
its parent, so parallel children are subtracted as a union, not a sum.

Besides calls and self time, a few counts are read at the same boundaries:
tableau cells from the simplex arguments, cut rounds and rows from the
returned LpSolution, separation hits, accepted rounding phases, and
distinct-argument ratios for the valuation and stochastic score calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (metric prefix, defining module, attribute or Class.method)
PROBES = (
    ("cli.main", "latcov.cli", "main"),
    ("cli.cmd_suite", "latcov.cli", "cmd_suite"),
    ("instances.serial.load", "latcov.instances.serial", "load"),
    ("instances.CoverFunction.value", "latcov.instances.valuations",
     "CoverFunction.value"),
    ("instances.ExplicitFunction.value", "latcov.instances.valuations",
     "ExplicitFunction.value"),
    ("ranking.ResidualFunction.value", "latcov.ranking",
     "ResidualFunction.value"),
    ("ranking.alg_ag", "latcov.ranking", "alg_ag"),
    ("ranking.brute_force_ranking", "latcov.ranking", "brute_force_ranking"),
    ("orienteering.sop_recursive_greedy", "latcov.orienteering",
     "sop_recursive_greedy"),
    ("orienteering.sop_exact", "latcov.orienteering", "sop_exact"),
    ("mlsc.ResidualValuation.value", "latcov.mlsc", "ResidualValuation.value"),
    ("mlsc.alg_mlsc", "latcov.mlsc", "alg_mlsc"),
    ("mlsc.brute_force_latency", "latcov.mlsc", "brute_force_latency"),
    ("lcst.simplex.solve_canonical_max", "latcov.lcst.simplex",
     "solve_canonical_max"),
    ("lcst.lp.solve_lp_lcst", "latcov.lcst.lp", "solve_lp_lcst"),
    ("lcst.separation.separate_kc", "latcov.lcst.separation", "separate_kc"),
    ("lcst.mincut.min_cut_with_exceptions", "latcov.lcst.mincut",
     "min_cut_with_exceptions"),
    ("lcst.rounding.alg_lcst", "latcov.lcst.rounding", "alg_lcst"),
    ("lcst.rounding.krs_round", "latcov.lcst.rounding", "krs_round"),
    ("lcst.rounding.flow_adjust", "latcov.lcst.rounding", "flow_adjust"),
    ("lcst.embed.frt_embed", "latcov.lcst.embed", "frt_embed"),
    ("stochastic.sto_residual_score", "latcov.stochastic",
     "sto_residual_score"),
    ("stochastic.alg_ag_sto", "latcov.stochastic", "alg_ag_sto"),
    ("stochastic.optimal_adaptive", "latcov.stochastic", "optimal_adaptive"),
    ("stochastic.greedy_policy", "latcov.stochastic", "greedy_policy"),
    ("stochastic.evaluate_policy", "latcov.stochastic", "evaluate_policy"),
    ("stochastic.check_sto_recurrence", "latcov.stochastic",
     "check_sto_recurrence"),
    ("stochastic.policy_cover_times", "latcov.stochastic",
     "policy_cover_times"),
)
SUITE_TASK = "cli.suite.task"      # one battery function call per seed
SPAN_NAMES = tuple(p[0] for p in PROBES) + (SUITE_TASK,)
RESIDUALS = ("ranking.ResidualFunction.value",
             "mlsc.ResidualValuation.value")
DISTINCT = ("instances.CoverFunction.value",
            "instances.ExplicitFunction.value",
            "stochastic.sto_residual_score")

# derived metrics: name -> (unit, better)
DERIVED = {
    "lcst.simplex.cells": ("count", "lower"),
    "lcst.lp.cut_rounds": ("count", "lower"),
    "lcst.lp.kc_rows": ("count", "lower"),
    "lcst.separation.hit_ratio": ("ratio", "higher"),
    "lcst.rounding.accept_ratio": ("ratio", "higher"),
    "instances.CoverFunction.distinct_ratio": ("ratio", "higher"),
    "instances.ExplicitFunction.distinct_ratio": ("ratio", "higher"),
    "stochastic.sto_residual_score.distinct_ratio": ("ratio", "higher"),
    "orienteering.value_calls_per_sop": ("count", "lower"),
    "cli.suite.parallel_eff": ("ratio", "higher"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better)
               in DERIVED.items())
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    `spans` holds (sid, name, start, end, parent, invocation) tuples.
    """
    kids = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            kids[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _ in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(kids.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0) - covered
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = -1
        self.argvs: list[list[str]] = []
        self.jobs: list[int] = []       # --jobs per invocation id
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._keep: dict = {}           # pins objects whose id() is a key
        self.lock = threading.Lock()    # counts are bumped on suite threads
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._patched: list[tuple] = []

    # ---- recording -------------------------------------------------------

    def begin_invocation(self, argv) -> None:
        """Open a new invocation id; later spans carry it."""
        argv = list(argv)
        self.invocation = len(self.argvs)
        self.argvs.append(argv)
        self.jobs.append(int(argv[argv.index("--jobs") + 1])
                         if "--jobs" in argv else 1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is self._main
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, observe=None):
        tracer, spans, ids = self, self.spans, self._ids
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              tracer.invocation))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    def count(self, key: str, amount: int) -> None:
        with self.lock:
            self.counts[key] += amount

    # ---- patching --------------------------------------------------------

    def install(self) -> None:
        for name, modname, attr in PROBES:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig,
                          self.wrap(name, orig, OBSERVERS.get(name)))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig, OBSERVERS.get(name))
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("latcov"):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._set(other, key, orig, wrapper)
        cli = sys.modules["latcov.cli"]
        for key, fn in list(cli.SUITE_FNS.items()):
            self._set(cli.SUITE_FNS, key, fn, self.wrap(SUITE_TASK, fn))

    def _set(self, owner, key, orig, new) -> None:
        if isinstance(owner, dict):
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._patched.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched.clear()

    # ---- reporting -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        busy = defaultdict(float)
        by_id = {}
        for span in self.spans:
            sid, name, t0, t1, parent, inv = span
            calls[name] += 1
            busy[name] += selfs[sid]
            by_id[sid] = span
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = busy[name]
        c = self.counts
        out["lcst.simplex.cells"] = c["cells"]
        out["lcst.lp.cut_rounds"] = c["cut_rounds"]
        out["lcst.lp.kc_rows"] = c["kc_rows"]
        out["lcst.separation.hit_ratio"] = _ratio(
            c["kc_hits"], calls["lcst.separation.separate_kc"])
        out["lcst.rounding.accept_ratio"] = _ratio(c["accepted"], c["phases"])
        for name in DISTINCT:
            prefix = name.removesuffix(".value")
            out[f"{prefix}.distinct_ratio"] = _ratio(
                len(self.distinct[name]), calls[name])
        out["orienteering.value_calls_per_sop"] = _ratio(
            _under(self.spans, by_id, RESIDUALS,
                   "orienteering.sop_recursive_greedy"),
            calls["orienteering.sop_recursive_greedy"])
        task = sum(t1 - t0 for _, name, t0, t1, _, _ in self.spans
                   if name == SUITE_TASK)
        capacity = sum((t1 - t0) * self.jobs[inv]
                       for _, name, t0, t1, _, inv in self.spans
                       if name == "cli.cmd_suite")
        out["cli.suite.parallel_eff"] = _ratio(task, capacity)
        return out

    def write(self, path: str) -> None:
        """Write gzipped JSON lines: the invocations, then one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"invocations": self.argvs,
                                 "fields": ["span", "name", "start", "end",
                                            "parent", "invocation"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _under(spans, by_id, names, ancestor) -> int:
    """Spans named in `names` that have an `ancestor`-named ancestor."""
    hits = 0
    for span in spans:
        if span[1] not in names:
            continue
        parent = span[4]
        while parent is not None:
            up = by_id[parent]
            if up[1] == ancestor:
                hits += 1
                break
            parent = up[4]
    return hits


# ---- observers: counts read at the wrapped boundary -------------------------

def _obs_simplex(t: Tracer, args, result) -> None:
    c, rows = args[0], args[1]
    m, n = len(rows), len(c)
    t.count("cells", m * (n + m + 1))


def _obs_lp(t: Tracer, args, sol) -> None:
    t.count("cut_rounds", sol.iterations)
    t.count("kc_rows", sol.kc_rows)


def _obs_separation(t: Tracer, args, violation) -> None:
    if violation is not None:
        t.count("kc_hits", 1)


def _obs_lcst(t: Tracer, args, result) -> None:
    phases = result[1].phases
    t.count("phases", len(phases))
    t.count("accepted", sum(1 for ph in phases if ph.accepted))


def _distinct(name: str):
    def observe(t: Tracer, args, result) -> None:
        # one dict store and one set add: each atomic under the GIL
        t._keep[id(args[0])] = args[0]
        t.distinct[name].add((id(args[0]),) + tuple(args[1:]))
    return observe


OBSERVERS = {
    "lcst.simplex.solve_canonical_max": _obs_simplex,
    "lcst.lp.solve_lp_lcst": _obs_lp,
    "lcst.separation.separate_kc": _obs_separation,
    "lcst.rounding.alg_lcst": _obs_lcst,
    **{name: _distinct(name) for name in DISTINCT},
}
