"""Command-line front end tying the solvers to their oracles and checks.

Subcommands: `gen` writes instance files; `rank`, `sop`, `mlsc`, `lcst`, and
`wssr` run one algorithm against one instance (optionally with the matching
brute-force oracle); `ssc`, `filters`, and `sgmssc` build stochastic
schedules from their native problem data; `suite` drives seeded check
batteries.

Output discipline: every record is a pure function of the parsed
configuration, so a repeated invocation produces identical bytes on stdout
or in --out.  Wall-clock timings go to stderr, where they cannot break that
guarantee.  Handlers return rows of record fields; `main` alone builds the
records and the exit code: 0 success, 2 invariant violation (bad config,
cap hit, or a record with ok=fail), 3 infeasibility.  Each solver module is
imported inside the functions that use it, so a run compiles only the
solvers its subcommand needs.
"""

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256

from .errors import (CapExceeded, Infeasible, SolverStall, Unbounded,
                     Uncoverable, check_cap, size_cap)
from .instances import serial
from .instances.generators import (GEN_CAP, Instance, random_instance,
                                   random_valuations)


COLUMNS = ("command", "config", "seed", "objective", "oracle", "ratio",
           "ratio_num", "ratio_den", "checkpoints", "ok", "detail")

SUITE_NAMES = ("ranking-lemmas", "mlsc-lemmas", "lcst-probes", "wssr-lemmas")

SAMPLE_CAP = 5_000_000   # samples at n <= 8; _samples caps draws past it
SEED_CAP = 650   # suite lemmas at the default --samples: about 10 s here

# genspec heads: valuation styles make ranking instances, the rest map to
# the named generators
GEN_STYLES = {"explicit": "explicit", "gmssc": "singlegroup",
              "coverage": "coverage", "multicoverage": "multicoverage"}
GEN_KINDS = {"groups": "random-groups", "uniform": "uniform-metric",
             "grid": "euclidean-grid-metric", "tree": "random-tree",
             "stochastic": "random-stochastic"}


# flags that pick a destination, wire format, or process count; they never
# influence what is computed, so they stay out of the config identity
PRESENTATION_KEYS = ("command", "func", "out", "format", "jobs")


@dataclass(frozen=True)
class RunConfig:
    """Canonical form of one invocation: subcommand plus sorted options.

    Everything that can influence a record is in here (seeds included), so
    equal configs imply byte-equal records. Where the records go (--out,
    --format) and how the work is scheduled (--jobs) are excluded: the same
    computation keeps the same identity across destinations.
    """

    subcommand: str
    options: tuple[tuple[str, str], ...]

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        opts = []
        for key, val in sorted(vars(args).items()):
            if key in PRESENTATION_KEYS or val is None or val is False:
                continue
            opts.append((key, "1" if val is True else str(val)))
        return cls(args.command, tuple(opts))

    def digest(self) -> str:
        blob = json.dumps({"subcommand": self.subcommand,
                           "options": dict(self.options)}, sort_keys=True)
        return sha256(blob.encode()).hexdigest()[:12]


def _rat(x) -> str:
    return str(Fraction(x))


def _verdict(value, oracle, ok, rows=None) -> dict:
    """The checked fields of a record: the oracle value, value / oracle,
    the checkpoint rows if given, and pass or fail."""
    num, den = Fraction(value), Fraction(oracle)
    fields = {"oracle": _rat(den), "ratio": _rat(num / den) if den else "",
              "ratio_num": _rat(num), "ratio_den": _rat(den),
              "ok": "pass" if ok else "fail"}
    if rows is not None:
        fields["checkpoints"] = _fmt_rows(rows)
    return fields


def _fmt_rows(rows) -> str:
    out = []
    for row in rows:
        cells = [f"{c:.6g}" if isinstance(c, float) else _rat(c) for c in row]
        out.append(":".join(cells))
    return ";".join(out)


def _detail(pairs: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(pairs.items()))


def _join(seq) -> str:
    return "-".join(str(v) for v in seq)


# ---- instance plumbing ------------------------------------------------------

def parse_genspec(spec: str) -> Instance:
    """`kind:key=val:...` with keys n and seed; see GEN_STYLES/GEN_KINDS."""
    head, *parts = spec.split(":")
    kv = {}
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad generator option {part!r} in {spec!r}")
        if key in kv:
            raise ValueError(f"repeated generator option {key!r} in {spec!r}")
        kv[key] = val
    n = int(kv.pop("n", "5"))
    seed = int(kv.pop("seed", "0"))
    if kv:
        raise ValueError(f"unknown generator options {sorted(kv)} in {spec!r}")
    if head in GEN_STYLES:
        vs = random_valuations(GEN_STYLES[head], n, seed)
        return Instance("ranking", valuations=vs)
    if head in GEN_KINDS:
        return random_instance(GEN_KINDS[head], n, seed)
    raise ValueError(f"unknown generator kind {head!r}")


def _resolve_instance(args, kinds: set[str], what: str) -> Instance:
    spec = getattr(args, "genspec", None)
    path = getattr(args, "infile", None)
    if (spec is None) == (path is None):
        raise ValueError(f"{what}: give exactly one instance source "
                         "(--gen or an input file)")
    inst = parse_genspec(spec) if spec is not None else serial.load(path)
    if inst.kind not in kinds:
        want = "/".join(sorted(kinds))
        raise ValueError(f"{what}: expected a {want} instance, got {inst.kind}")
    return inst


# ---- single-run subcommands -------------------------------------------------

def cmd_gen(args):
    inst = parse_genspec(args.spec)
    text = serial.dumps(inst)
    if args.dest == "-":
        sys.stdout.write(text)
        return []
    with open(args.dest, "w", newline="") as fh:
        fh.write(text)
    return [{"detail": _detail({"kind": inst.kind, "path": args.dest,
                                "spec": args.spec})}]


def cmd_rank(args):
    from .ranking import alg_ag, brute_force_ranking, check_recurrence
    inst = _resolve_instance(args, {"ranking"}, "rank")
    vs = inst.valuations
    order = alg_ag(vs)
    fields = {"objective": _rat(order.objective),
              "detail": _detail({"kind": vs.kind, "n": vs.n, "m": vs.m,
                                 "order": _join(order.permutation)})}
    if args.oracle:
        opt = brute_force_ranking(vs)
        fields.update(_verdict(order.objective, opt.objective,
                               *check_recurrence(order, opt, vs.alpha)))
    return [fields]


def cmd_sop(args):
    from .orienteering import SopQuery, sop_exact, sop_recursive_greedy
    from .ranking import ResidualFunction
    inst = _resolve_instance(args, {"mlsc"}, "sop")
    metric, vs = inst.metric, inst.valuations
    budget = args.budget if args.budget is not None else 2 * metric.diameter
    query = SopQuery(metric, metric.root, ResidualFunction(vs, 0), budget)
    solver = sop_exact if args.solver == "exact" else sop_recursive_greedy
    res = solver(query)
    fields = {"objective": _rat(res.value),
              "detail": _detail({"budget": budget, "length": res.length,
                                 "path": _join(res.path),
                                 "solver": args.solver})}
    if args.oracle:
        # the exact solver's own answer is the optimum it is checked against
        exact = res if args.solver == "exact" else sop_exact(query)
        rho, sigma = res.guarantee
        ok = res.value * rho >= exact.value and res.length <= sigma * budget
        fields.update(_verdict(res.value, exact.value, ok))
    return [fields]


def cmd_mlsc(args):
    from .mlsc import alg_mlsc, brute_force_latency, check_mlsc_recurrence
    from .orienteering import sop_exact, sop_recursive_greedy
    inst = _resolve_instance(args, {"mlsc"}, "mlsc")
    metric, vs = inst.metric, inst.valuations
    solver = sop_exact if args.solver == "exact" else sop_recursive_greedy
    tour, log = alg_mlsc(metric, vs, solver)
    fields = {"objective": _rat(tour.objective),
              "detail": _detail({"kind": vs.kind, "n": metric.n,
                                 "phases": len(log.phases),
                                 "solver": args.solver,
                                 "times": _join(tour.cover_times)})}
    if args.oracle:
        opt = brute_force_latency(metric, vs)
        fields.update(_verdict(tour.objective, opt.objective,
                               *check_mlsc_recurrence(tour, log, opt)))
    return [fields]


def _tree_from_metric(inst: Instance, embed_seed: int):
    from .lcst.embed import frt_embed
    vs = inst.valuations
    if vs is None or vs.kind != "singlegroup":
        raise ValueError("lcst embedding needs per-group valuations "
                         "(singlegroup); give a tree instance instead")
    groups, reqs = [], []
    for i, fn in enumerate(vs.functions):
        terms = getattr(fn, "terms", ())
        units = set(terms[0].units) if len(terms) == 1 else set()
        if len(units) != 1 or terms[0].weight != 1 or \
                min(units).numerator != 1:
            raise ValueError(f"lcst embedding: function {i} is not one "
                             f"weight-1 term with every unit 1/k")
        groups.append(terms[0].members)
        reqs.append(min(units).denominator)
    emb = frt_embed(inst.metric, embed_seed)
    return emb.grouped(groups, reqs)


def cmd_lcst(args):
    from .lcst.lp import solve_lp_lcst
    from .lcst.rounding import alg_lcst
    if not 0 <= args.repeat_mult <= size_cap(GEN_CAP):
        raise ValueError(f"--repeat-mult must be in 0..{size_cap(GEN_CAP)}, "
                         f"got {args.repeat_mult}")
    inst = _resolve_instance(args, {"lcst", "mlsc"}, "lcst")
    embed_seed = args.embed_seed if args.embed_seed is not None else args.seed
    round_seed = args.round_seed if args.round_seed is not None else args.seed
    if inst.kind == "lcst":
        tree = inst.tree
    elif args.no_embed:
        raise ValueError("lcst: --no-embed needs a tree instance")
    else:
        tree = _tree_from_metric(inst, embed_seed)
    sol = solve_lp_lcst(tree)
    tour, report = alg_lcst(tree, round_seed, args.repeat_mult,
                            args.weight_mult, lp=sol)
    detail = {"fallback": int(report.fallback), "kc_rows": sol.kc_rows,
              "levels": sol.levels, "lp": _rat(sol.objective),
              "phases": sum(1 for p in report.phases if p.accepted),
              "times": _join(tour.cover_times)}
    return [{"seed": str(round_seed), "objective": _rat(tour.objective),
             "detail": _detail(detail)}]


def _stochastic_rows(st, args):
    from .stochastic import (alg_ag_sto, check_sto_recurrence, evaluate_policy,
                             greedy_policy, optimal_adaptive, outcome_tally)
    _samples(args.samples, st.n)
    policy = greedy_policy(st)
    try:
        objective = evaluate_policy(st, policy)
        detail = {"mode": "exact", "horizon": st.total_length}
    except CapExceeded:
        rng, runs = random.Random(f"wssr-cli:{args.seed}"), {}
        total = sum(k * alg_ag_sto(st, w, policy, runs).objective
                    for w, k in outcome_tally(st, rng, args.samples))
        objective = Fraction(total, args.samples)
        detail = {"mode": "mc", "samples": args.samples}
    detail.update(n=st.n, m=st.valuations.m)
    fields = {"objective": _rat(objective), "detail": _detail(detail)}
    if args.oracle:
        opt_policy, opt_cost = optimal_adaptive(st)
        fields.update(_verdict(objective, opt_cost, *check_sto_recurrence(
            st, opt_policy, samples=args.samples, seed=args.seed,
            greedy=policy)))
    return [fields]


def _samples(samples: int, n: int):
    """Refuse --samples below 1, or past 8 * SAMPLE_CAP draws of n elements
    each, before any draw.  A sample costs about n draws, so every n <= 8
    keeps SAMPLE_CAP and a larger n gets a proportionally smaller cap."""
    if samples < 1:
        raise ValueError(f"--samples must be >= 1, got {samples}")
    check_cap("--samples", samples, 8 * SAMPLE_CAP // max(n, 8), "samples")


def cmd_wssr(args):
    inst = _resolve_instance(args, {"wssr"}, "wssr")
    return _stochastic_rows(inst.stochastic, args)


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _int_sets(text: str) -> list[list[int]]:
    return [_ints(part) for part in text.split(";")]


def _frac(token: str) -> Fraction:
    """A `p/q` or plain-integer token, read as instance files read `p/q`."""
    return serial.parse_rat(token if "/" in token else f"{token}/1")


def _fracs(text: str) -> list[Fraction]:
    return [_frac(t) for t in text.split(",") if t]


def _supports(text: str) -> list[tuple[tuple[int, Fraction], ...]]:
    """Per element `value:prob` pairs, elements separated by `|`."""
    out = []
    for chunk in text.split("|"):
        pts = []
        for pair in chunk.split(","):
            val, colon, prob = pair.partition(":")
            if not colon:
                raise ValueError(f"bad support point {pair!r}")
            pts.append((int(val), _frac(prob)))
        out.append(tuple(pts))
    return out


def _domain(args) -> int:
    """--domain, refused past the generators' cap before any valuation
    tabulates 2^domain-sized masks, and below 1."""
    if args.domain < 1:
        raise ValueError(f"--domain must be >= 1, got {args.domain}")
    check_cap("--domain", args.domain, GEN_CAP)
    return args.domain


def cmd_ssc(args):
    from .stochastic import reduce_ssc
    st = reduce_ssc(_domain(args), _int_sets(args.sets),
                    _supports(args.elements), _ints(args.lengths))
    return _stochastic_rows(st, args)


def cmd_filters(args):
    from .stochastic import reduce_filter
    st = reduce_filter([tuple(q) for q in _int_sets(args.queries)],
                       _fracs(args.selectivities), _ints(args.lengths),
                       latency=args.latency)
    return _stochastic_rows(st, args)


def cmd_sgmssc(args):
    from .stochastic import reduce_sgmssc
    st = reduce_sgmssc(_domain(args), _int_sets(args.sets), _ints(args.reqs),
                       _supports(args.elements), _ints(args.lengths))
    return _stochastic_rows(st, args)


# ---- suite batteries --------------------------------------------------------
# Each battery function maps one seed and the Monte-Carlo probe size
# (--samples) to its record fields; ok=fail marks a proved violation.
# Monte-Carlo probes within their slack only report margins.

def _suite_ranking(seed: int, samples: int) -> dict:
    from .ranking import (alg_ag, brute_force_ranking, check_log_claim,
                          check_recurrence)
    style = "explicit" if seed % 2 == 0 else "singlegroup"
    vs = random_valuations(style, 4 + seed % 3, seed)
    order = alg_ag(vs)
    opt = brute_force_ranking(vs)
    rec_ok, rows = check_recurrence(order, opt, vs.alpha)
    ratio_ok = order.objective <= 56 * vs.alpha * opt.objective

    # nested random chains against alpha, the rational upper bound on
    # the log bound 1 + ln(1/eps)
    rng = random.Random(f"suite-claim:{seed}")
    full = (1 << vs.n) - 1
    claim_ok = True
    for fn in vs.functions:
        chain, mask = [0], 0
        while mask != full:
            mask |= rng.getrandbits(vs.n) & full
            chain.append(mask)
        claim_ok &= check_log_claim(fn, chain) <= vs.alpha

    return dict(objective=_rat(order.objective),
                **_verdict(order.objective, opt.objective,
                           rec_ok and ratio_ok and claim_ok, rows),
                detail=_detail({"claim": int(claim_ok), "kind": vs.kind,
                                "recurrence": int(rec_ok)}))


def _suite_mlsc(seed: int, samples: int) -> dict:
    from .mlsc import alg_mlsc, brute_force_latency, check_mlsc_recurrence
    from .orienteering import sop_exact
    inst = random_instance("uniform-metric", 4 + seed % 2, seed)
    tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact)
    opt = brute_force_latency(inst.metric, inst.valuations)
    rec_ok, rows = check_mlsc_recurrence(tour, log, opt)
    alpha = inst.valuations.alpha
    ratio_ok = tour.objective <= 56 * alpha * opt.objective
    return dict(objective=_rat(tour.objective),
                **_verdict(tour.objective, opt.objective,
                           rec_ok and ratio_ok, rows),
                detail=_detail({"phases": len(log.phases),
                                "recurrence": int(rec_ok)}))


def _suite_lcst(seed: int, samples: int) -> dict:
    from .lcst.lp import solve_lp_lcst
    from .lcst.rounding import alg_lcst, weight_cap
    inst = random_instance("random-tree", 5 + seed % 3, seed)
    sol = solve_lp_lcst(inst.tree)
    tour, report = alg_lcst(inst.tree, seed, lp=sol)
    # margin probe: accepted-phase weight against the level cap
    worst = 0.0
    for ph in report.phases:
        if ph.accepted and len(ph.walk) > 1:
            worst = max(worst, ph.weight / weight_cap(inst.tree, ph.level))
    return dict(objective=_rat(tour.objective),
                **_verdict(tour.objective, sol.objective,
                           sol.objective <= tour.objective),
                detail=_detail({"fallback": int(report.fallback),
                                "weight_margin": f"{worst:.4f}"}))


def _suite_wssr(seed: int, samples: int) -> dict:
    from .stochastic import (check_sto_recurrence, evaluate_policy,
                             greedy_policy, optimal_adaptive)
    st = random_instance("random-stochastic", 3 + seed % 2, seed).stochastic
    opt_policy, opt_cost = optimal_adaptive(st)
    greedy = greedy_policy(st)
    alg_cost = evaluate_policy(st, greedy)
    ratio_ok = alg_cost <= 56 * st.valuations.alpha * opt_cost
    rec_ok, rows = check_sto_recurrence(st, opt_policy, samples=samples,
                                        seed=seed, greedy=greedy)
    # slack left per level: prev/4 + R*_j + 3 se - R_j, negative = violation;
    # fully settled all-zero levels carry no information
    margin = min((float(p) / 4 + float(rs) + 3 * se - float(r)
                  for _, r, p, rs, se in rows
                  if r or p or rs or se), default=0.0)
    return dict(objective=_rat(alg_cost),
                **_verdict(alg_cost, opt_cost, ratio_ok and rec_ok, rows),
                detail=_detail({"margin": f"{margin:.4f}",
                                "recurrence": int(rec_ok)}))


SUITE_FNS = {"ranking-lemmas": _suite_ranking, "mlsc-lemmas": _suite_mlsc,
             "lcst-probes": _suite_lcst, "wssr-lemmas": _suite_wssr}


def suite_workers(jobs: int, seeds: int) -> int:
    """Processes a suite runs on, the calling one included: --jobs capped
    by the seed count and the CPU count.  1 where fork is unavailable, or
    unsafe because the calling process runs other threads."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(jobs, seeds, os.cpu_count() or 1)


def _suite_share(name: str, seeds: range, samples: int) -> list:
    """One worker's share of a battery: its outputs for `seeds`, in order."""
    fn = SUITE_FNS[name]
    return [fn(seed, samples) for seed in seeds]


def _suite_child(conn, names, seeds: range, samples: int) -> None:
    """A forked child's work: its share of every battery, or the exception
    that stopped it, sent back on `conn`."""
    try:
        result = [_suite_share(name, seeds, samples) for name in names]
    except Exception as exc:
        result = exc
    conn.send(result)


def _suite_outputs(names, seeds: int, samples: int, workers: int) -> list:
    """Each battery's per-seed outputs, in the order of `names`; seed s is
    computed by share s mod workers.

    Share 0 runs in the calling process while workers - 1 forked children,
    shared by all batteries, run the others.  Batteries are pure functions
    of (battery, seed, samples), so where a seed runs never shows in its
    output.  A child's exception is raised here, and a child that dies
    without an answer raises ChildProcessError.  Every child is joined
    before returning, on every path.
    """
    shares = [range(k, seeds, workers) for k in range(workers)]
    children = []
    try:
        if workers > 1:
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            for share in shares[1:]:
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_suite_child,
                                    args=(send, names, share, samples))
                child.start()
                send.close()
                children.append((child, recv))
        parts = [[_suite_share(name, shares[0], samples) for name in names]]
        for k, (child, recv) in enumerate(children, 1):
            try:
                part = recv.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"suite worker for share {k} of {workers} exited with "
                    f"code {child.exitcode} before answering") from None
            if isinstance(part, BaseException):
                raise part
            parts.append(part)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    outs = [[None] * seeds for _ in names]
    for k, part in enumerate(parts):
        for out, share_out in zip(outs, part):
            out[k::workers] = share_out
    return outs


def cmd_suite(args):
    if args.seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {args.seeds}")
    check_cap("--seeds", args.seeds, SEED_CAP, "seeds")
    _samples(args.samples, 4)   # wssr-lemmas draws at most 4 elements
    names = SUITE_NAMES if args.name == "lemmas" else (args.name,)
    outputs = _suite_outputs(names, args.seeds, args.samples,
                             suite_workers(args.jobs, args.seeds))
    rows = []
    for name, outs in zip(names, outputs):
        command = f"suite:{name}"
        rows.extend({"command": command, "seed": str(s), **fields}
                    for s, fields in enumerate(outs))
        hard = sum(1 for fields in outs if fields["ok"] == "fail")
        rows.append({"command": command, "seed": "",
                     "ok": "pass" if hard == 0 else "fail",
                     "detail": _detail({"failures": hard,
                                        "seeds": args.seeds})})
    return rows


# ---- emission and entry point -----------------------------------------------

def emit(records, fmt: str, out_path) -> None:
    if not records:
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([rec[c] for c in COLUMNS] for rec in records)
        text = buf.getvalue()
    else:
        text = json.dumps(records, sort_keys=True,
                          separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="default seed for sampling and rounding")
    common.add_argument("--out", help="write records here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="latcov",
        description="submodular ranking, latency tours, covering Steiner "
                    "trees, and stochastic schedules")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, **kw):
        p = subs.add_parser(name, parents=[common], **kw)
        p.set_defaults(func=handler)
        return p

    p = sub("gen", cmd_gen, help="generate an instance file")
    p.add_argument("spec", help="generator spec, e.g. explicit:n=6:seed=1")
    p.add_argument("dest", nargs="?", default="-",
                   help="instance path ('-' prints the instance only)")

    def add_source(p, tree_alias=False):
        flags = ("--in", "--tree") if tree_alias else ("--in",)
        p.add_argument(*flags, dest="infile", help="instance file")
        p.add_argument("--gen", dest="genspec", help="generator spec")

    p = sub("rank", cmd_rank, help="greedy ranking of a valuation set")
    add_source(p)
    p.add_argument("--oracle", action="store_true",
                   help="compare against the exact optimum")

    p = sub("sop", cmd_sop, help="budgeted rooted-path maximization")
    add_source(p)
    p.add_argument("--budget", type=int, help="length budget (default 2*diam)")
    p.add_argument("--solver", choices=("exact", "greedy"), default="greedy")
    p.add_argument("--oracle", action="store_true")

    p = sub("mlsc", cmd_mlsc, help="latency cover via phase doubling")
    add_source(p)
    p.add_argument("--solver", choices=("exact", "greedy"), default="exact")
    p.add_argument("--oracle", action="store_true")

    p = sub("lcst", cmd_lcst, help="covering Steiner tour on a tree")
    add_source(p, tree_alias=True)
    p.add_argument("--embed-seed", type=int, help="tree embedding seed")
    p.add_argument("--round-seed", type=int, help="rounding seed")
    p.add_argument("--no-embed", action="store_true",
                   help="refuse metric instances instead of embedding")
    p.add_argument("--repeat-mult", type=int, default=6)
    p.add_argument("--weight-mult", type=int, default=192)

    def add_sto(p):
        p.add_argument("--oracle", action="store_true",
                       help="optimal adaptive policy plus recurrence check")
        p.add_argument("--samples", type=int, default=2000)

    p = sub("wssr", cmd_wssr, help="adaptive stochastic ranking")
    add_source(p)
    add_sto(p)

    p = sub("ssc", cmd_ssc, help="stochastic set cover reduction")
    p.add_argument("--domain", type=int, required=True)
    p.add_argument("--sets", required=True, help="e.g. 0,1;1,2")
    p.add_argument("--elements", required=True,
                   help="per-element supports, e.g. 0:1/2,3:1/2|1:1")
    p.add_argument("--lengths", required=True, help="e.g. 1,2")
    add_sto(p)

    p = sub("filters", cmd_filters, help="shared filter evaluation reduction")
    p.add_argument("--queries", required=True, help="e.g. 0,1;1")
    p.add_argument("--selectivities", required=True, help="e.g. 1/2,1/3")
    p.add_argument("--lengths", required=True)
    p.add_argument("--latency", action="store_true",
                   help="per-query latency objective instead of total work")
    add_sto(p)

    p = sub("sgmssc", cmd_sgmssc, help="stochastic group cover reduction")
    p.add_argument("--domain", type=int, required=True)
    p.add_argument("--sets", required=True)
    p.add_argument("--reqs", required=True, help="per-set requirements")
    p.add_argument("--elements", required=True)
    p.add_argument("--lengths", required=True)
    add_sto(p)

    p = sub("suite", cmd_suite, help="seeded check batteries")
    p.add_argument("name", choices=SUITE_NAMES + ("lemmas",),
                   help="battery name; 'lemmas' runs all of them")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--samples", type=int, default=400,
                   help="Monte-Carlo probe size")
    p.add_argument("--jobs", type=int, default=1,
                   help="process count, the calling process included; "
                        "capped by --seeds and the CPU count")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the cached parser holds the handlers first bound; run the current one
    handler = globals().get(args.func.__name__, args.func)
    start = time.perf_counter()
    try:
        rows = handler(args)
    except (Infeasible, Uncoverable) as exc:
        print(f"latcov {args.command}: infeasible: {exc}", file=sys.stderr)
        return 3
    except (CapExceeded, SolverStall, Unbounded, ValueError, OSError) as exc:
        print(f"latcov {args.command}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    base = {"command": args.command,
            "config": RunConfig.from_args(args).digest(),
            "seed": str(args.seed)}
    records = [{c: row.get(c, base.get(c, "")) for c in COLUMNS}
               for row in rows]
    emit(records, args.format, args.out)
    print(f"latcov {args.command}: {len(records)} record(s), "
          f"wall-clock {elapsed:.3f}s", file=sys.stderr)
    return 2 if any(rec["ok"] == "fail" for rec in records) else 0


def __getattr__(name):   # ROADMAP 2b: goes when the tracer stops pinning names
    if name != "solve_lp_lcst":   # the one name perfbench's tracer test reads
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .lcst import lp
    return lp.solve_lp_lcst


if __name__ == "__main__":
    sys.exit(main())
