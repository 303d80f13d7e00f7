"""Command-line front end tying the solvers to their oracles and checks.

Subcommands: `gen` writes instance files; `rank`, `sop`, `mlsc`, `lcst`, and
`wssr` run one algorithm against one instance (optionally with the matching
brute-force oracle); `ssc`, `filters`, and `sgmssc` build stochastic
schedules from their native problem data; `suite` drives seeded check
batteries.

Output discipline: every record is a pure function of the parsed
configuration, so a repeated invocation produces identical bytes on stdout
or in --out.  Wall-clock timings go to stderr, where they cannot break that
guarantee.  Exit codes: 0 success, 2 invariant violation (bad config, cap
hit, failed hard check), 3 infeasibility.
"""

import argparse
import csv
import io
import json
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256

from .errors import (CapExceeded, Infeasible, SolverStall, Unbounded,
                     Uncoverable)
from .instances import serial
from .instances.generators import (Instance, random_instance,
                                   random_valuations)
from .lcst.embed import frt_embed
from .lcst.lp import solve_lp_lcst
from .lcst.rounding import alg_lcst, weight_cap
from .mlsc import alg_mlsc, brute_force_latency, check_mlsc_recurrence
from .orienteering import SopQuery, sop_exact, sop_recursive_greedy
from .ranking import (ResidualFunction, alg_ag, brute_force_ranking,
                      check_log_claim, check_recurrence)
from .stochastic import (alg_ag_sto, check_sto_recurrence, evaluate_policy,
                         greedy_policy, optimal_adaptive, reduce_filter,
                         reduce_sgmssc, reduce_ssc, sample_outcome)

COLUMNS = ("command", "config", "seed", "objective", "oracle", "ratio",
           "ratio_num", "ratio_den", "checkpoints", "ok", "detail")

SUITE_NAMES = ("ranking-lemmas", "mlsc-lemmas", "lcst-probes", "wssr-lemmas")

# genspec heads: valuation styles make ranking instances, the rest map to
# the named generators
GEN_STYLES = {"explicit": "explicit", "gmssc": "singlegroup",
              "coverage": "coverage", "multicoverage": "multicoverage"}
GEN_KINDS = {"groups": "random-groups", "uniform": "uniform-metric",
             "grid": "euclidean-grid-metric", "tree": "random-tree",
             "stochastic": "random-stochastic"}


# flags that pick a destination, wire format, or thread count; they never
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


@dataclass(frozen=True)
class ResultRecord:
    """One output row."""

    command: str
    config: str
    seed: str = ""
    objective: str = ""
    oracle: str = ""
    ratio: str = ""
    ratio_num: str = ""
    ratio_den: str = ""
    checkpoints: str = ""
    ok: str = ""
    detail: str = ""

    def row(self) -> list[str]:
        return [getattr(self, c) for c in COLUMNS]

    def as_obj(self) -> dict:
        return {c: getattr(self, c) for c in COLUMNS}


def _rat(x) -> str:
    return str(Fraction(x))


def _ratio_fields(num, den) -> tuple[str, str, str]:
    num, den = Fraction(num), Fraction(den)
    if den == 0:
        return "", _rat(num), _rat(den)
    return _rat(num / den), _rat(num), _rat(den)


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

def cmd_gen(args, cfg: RunConfig):
    inst = parse_genspec(args.spec)
    text = serial.dumps(inst)
    if args.dest == "-":
        sys.stdout.write(text)
        return [], 0
    with open(args.dest, "w", newline="") as fh:
        fh.write(text)
    rec = ResultRecord("gen", cfg.digest(), seed=str(args.seed),
                       detail=_detail({"kind": inst.kind, "path": args.dest,
                                       "spec": args.spec}))
    return [rec], 0


def cmd_rank(args, cfg: RunConfig):
    inst = _resolve_instance(args, {"ranking"}, "rank")
    vs = inst.valuations
    order, trace = alg_ag(vs)
    fields = {"objective": _rat(order.objective),
              "detail": _detail({"kind": vs.kind, "n": vs.n, "m": vs.m,
                                 "order": _join(order.permutation)})}
    if args.oracle:
        opt = brute_force_ranking(vs)
        ok, rows = check_recurrence(trace, opt, vs.alpha)
        r, rn, rd = _ratio_fields(order.objective, opt.objective)
        fields.update(oracle=_rat(opt.objective), ratio=r, ratio_num=rn,
                      ratio_den=rd, checkpoints=_fmt_rows(rows),
                      ok="pass" if ok else "fail")
    rec = ResultRecord("rank", cfg.digest(), seed=str(args.seed), **fields)
    return [rec], (0 if fields.get("ok") != "fail" else 2)


def cmd_sop(args, cfg: RunConfig):
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
    code = 0
    if args.oracle and args.solver == "greedy":
        exact = sop_exact(query)
        rho = (metric.n - 1).bit_length() + 1
        ok = res.value * rho >= exact.value and res.length <= budget
        r, rn, rd = _ratio_fields(res.value, exact.value)
        fields.update(oracle=_rat(exact.value), ratio=r, ratio_num=rn,
                      ratio_den=rd, ok="pass" if ok else "fail")
        code = 0 if ok else 2
    rec = ResultRecord("sop", cfg.digest(), seed=str(args.seed), **fields)
    return [rec], code


def cmd_mlsc(args, cfg: RunConfig):
    inst = _resolve_instance(args, {"mlsc"}, "mlsc")
    metric, vs = inst.metric, inst.valuations
    if args.solver == "exact":
        solver, rho, sigma = sop_exact, 1, 1
    else:
        solver, rho, sigma = sop_recursive_greedy, \
            (metric.n - 1).bit_length() + 1, 1
    tour, log = alg_mlsc(metric, vs, solver, rho, sigma)
    fields = {"objective": _rat(tour.objective),
              "detail": _detail({"kind": vs.kind, "n": metric.n,
                                 "phases": len(log.phases),
                                 "solver": args.solver,
                                 "times": _join(tour.cover_times)})}
    code = 0
    if args.oracle:
        opt = brute_force_latency(metric, vs)
        ok, rows = check_mlsc_recurrence(log, opt)
        r, rn, rd = _ratio_fields(tour.objective, opt.objective)
        fields.update(oracle=_rat(opt.objective), ratio=r, ratio_num=rn,
                      ratio_den=rd, checkpoints=_fmt_rows(rows),
                      ok="pass" if ok else "fail")
        code = 0 if ok else 2
    rec = ResultRecord("mlsc", cfg.digest(), seed=str(args.seed), **fields)
    return [rec], code


def _tree_from_metric(inst: Instance, embed_seed: int):
    vs = inst.valuations
    if vs is None or vs.kind != "singlegroup":
        raise ValueError("lcst embedding needs per-group valuations "
                         "(singlegroup); give a tree instance instead")
    groups, reqs = [], []
    for fn in vs.functions:
        term = fn.terms[0]
        groups.append(term.members)
        reqs.append(int(Fraction(1) / term.units[0]))
    emb = frt_embed(inst.metric, embed_seed)
    return emb.grouped(groups, reqs)


def cmd_lcst(args, cfg: RunConfig):
    inst = _resolve_instance(args, {"lcst", "mlsc"}, "lcst")
    embed_seed = args.embed_seed if args.embed_seed is not None else args.seed
    round_seed = args.round_seed if args.round_seed is not None else args.seed
    if inst.kind == "lcst":
        tree = inst.tree
    elif args.no_embed:
        raise ValueError("lcst: --no-embed needs a tree instance")
    else:
        tree = _tree_from_metric(inst, embed_seed)
    tol = Fraction(args.tol) if args.tol is not None else None
    sol = solve_lp_lcst(tree, tol=tol)
    tour, report = alg_lcst(tree, round_seed, args.repeat_mult,
                            args.weight_mult, lp=sol)
    detail = {"fallback": int(report.fallback), "kc_rows": sol.kc_rows,
              "levels": sol.levels, "lp": _rat(sol.objective),
              "phases": sum(1 for p in report.phases if p.accepted),
              "times": _join(tour.cover_times)}
    rec = ResultRecord("lcst", cfg.digest(), seed=str(round_seed),
                       objective=_rat(tour.objective), detail=_detail(detail))
    return [rec], 0


def _stochastic_records(st, args, cfg: RunConfig, command: str):
    try:
        policy = greedy_policy(st)
        ev = evaluate_policy(st, policy, mode="exact")
        objective = ev.total
        detail = {"mode": "exact", "horizon": ev.horizon}
    except CapExceeded:
        rng = random.Random(f"wssr-cli:{args.seed}")
        total = Fraction(0)
        for _ in range(args.samples):
            total += alg_ag_sto(st, sample_outcome(st, rng)).objective
        objective = total / args.samples
        detail = {"mode": "mc", "samples": args.samples}
    detail.update(n=st.n, m=st.valuations.m)
    fields = {"objective": _rat(objective), "detail": _detail(detail)}
    code = 0
    if args.oracle:
        opt_policy, opt_cost = optimal_adaptive(st)
        ok, rows = check_sto_recurrence(st, opt_policy,
                                        samples=args.samples, seed=args.seed)
        r, rn, rd = _ratio_fields(objective, opt_cost)
        fields.update(oracle=_rat(opt_cost), ratio=r, ratio_num=rn,
                      ratio_den=rd, checkpoints=_fmt_rows(rows),
                      ok="pass" if ok else "fail")
        code = 0 if ok else 2
    rec = ResultRecord(command, cfg.digest(), seed=str(args.seed), **fields)
    return [rec], code


def cmd_wssr(args, cfg: RunConfig):
    inst = _resolve_instance(args, {"wssr"}, "wssr")
    return _stochastic_records(inst.stochastic, args, cfg, "wssr")


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _int_sets(text: str) -> list[list[int]]:
    return [_ints(part) for part in text.split(";")]


def _fracs(text: str) -> list[Fraction]:
    return [Fraction(t) for t in text.split(",") if t]


def _supports(text: str) -> list[tuple[tuple[int, Fraction], ...]]:
    """Per element `value:prob` pairs, elements separated by `|`."""
    out = []
    for chunk in text.split("|"):
        pts = []
        for pair in chunk.split(","):
            val, colon, prob = pair.partition(":")
            if not colon:
                raise ValueError(f"bad support point {pair!r}")
            pts.append((int(val), Fraction(prob)))
        out.append(tuple(pts))
    return out


def cmd_ssc(args, cfg: RunConfig):
    st = reduce_ssc(args.domain, _int_sets(args.sets),
                    _supports(args.elements), _ints(args.lengths))
    return _stochastic_records(st, args, cfg, "ssc")


def cmd_filters(args, cfg: RunConfig):
    st = reduce_filter([tuple(q) for q in _int_sets(args.queries)],
                       _fracs(args.selectivities), _ints(args.lengths),
                       latency=args.latency)
    return _stochastic_records(st, args, cfg, "filters")


def cmd_sgmssc(args, cfg: RunConfig):
    st = reduce_sgmssc(args.domain, _int_sets(args.sets), _ints(args.reqs),
                       _supports(args.elements), _ints(args.lengths))
    return _stochastic_records(st, args, cfg, "sgmssc")


# ---- suite batteries --------------------------------------------------------
# Each battery function maps one seed to (record fields, hard-failure flag).
# Hard failures are proved violations; Monte-Carlo probes within their slack
# only report margins.

def _suite_ranking(seed: int, args) -> tuple[dict, bool]:
    style = "explicit" if seed % 2 == 0 else "singlegroup"
    vs = random_valuations(style, 4 + seed % 3, seed)
    order, trace = alg_ag(vs)
    opt = brute_force_ranking(vs)
    rec_ok, rows = check_recurrence(trace, opt, vs.alpha)
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

    ok = rec_ok and ratio_ok and claim_ok
    r, rn, rd = _ratio_fields(order.objective, opt.objective)
    fields = dict(objective=_rat(order.objective), oracle=_rat(opt.objective),
                  ratio=r, ratio_num=rn, ratio_den=rd,
                  checkpoints=_fmt_rows(rows), ok="pass" if ok else "fail",
                  detail=_detail({"claim": int(claim_ok), "kind": vs.kind,
                                  "recurrence": int(rec_ok)}))
    return fields, not ok


def _suite_mlsc(seed: int, args) -> tuple[dict, bool]:
    inst = random_instance("uniform-metric", 4 + seed % 2, seed)
    tour, log = alg_mlsc(inst.metric, inst.valuations, sop_exact, 1, 1)
    opt = brute_force_latency(inst.metric, inst.valuations)
    rec_ok, rows = check_mlsc_recurrence(log, opt)
    alpha = inst.valuations.alpha
    ratio_ok = tour.objective <= 56 * alpha * opt.objective
    ok = rec_ok and ratio_ok
    r, rn, rd = _ratio_fields(tour.objective, opt.objective)
    fields = dict(objective=_rat(tour.objective), oracle=_rat(opt.objective),
                  ratio=r, ratio_num=rn, ratio_den=rd,
                  checkpoints=_fmt_rows(rows), ok="pass" if ok else "fail",
                  detail=_detail({"phases": len(log.phases),
                                  "recurrence": int(rec_ok)}))
    return fields, not ok


def _suite_lcst(seed: int, args) -> tuple[dict, bool]:
    inst = random_instance("random-tree", 5 + seed % 3, seed)
    sol = solve_lp_lcst(inst.tree)
    tour, report = alg_lcst(inst.tree, seed, lp=sol)
    slack = 0 if sol.exact else Fraction(1, 10**6)
    lb_ok = Fraction(sol.objective) <= tour.objective + slack
    # margin probe: accepted-phase weight against the level cap
    worst = 0.0
    for ph in report.phases:
        if ph.accepted and len(ph.walk) > 1:
            worst = max(worst, ph.weight / weight_cap(inst.tree, ph.level))
    r, rn, rd = _ratio_fields(tour.objective, sol.objective)
    fields = dict(objective=_rat(tour.objective), oracle=_rat(sol.objective),
                  ratio=r, ratio_num=rn, ratio_den=rd,
                  ok="pass" if lb_ok else "fail",
                  detail=_detail({"fallback": int(report.fallback),
                                  "weight_margin": f"{worst:.4f}"}))
    return fields, not lb_ok


def _suite_wssr(seed: int, args) -> tuple[dict, bool]:
    st = random_instance("random-stochastic", 3 + seed % 2, seed).stochastic
    opt_policy, opt_cost = optimal_adaptive(st)
    alg_cost = evaluate_policy(st, greedy_policy(st), mode="exact").total
    ratio_ok = alg_cost <= 56 * st.valuations.alpha * opt_cost
    rec_ok, rows = check_sto_recurrence(st, opt_policy,
                                        samples=args.samples, seed=seed)
    # slack left per level: prev/4 + R*_j + 3 se - R_j, negative = violation;
    # fully settled all-zero levels carry no information
    margin = min((float(p) / 4 + float(rs) + 3 * se - float(r)
                  for _, r, p, rs, se in rows
                  if r or p or rs or se), default=0.0)
    ok = ratio_ok and rec_ok
    r, rn, rd = _ratio_fields(alg_cost, opt_cost)
    fields = dict(objective=_rat(alg_cost), oracle=_rat(opt_cost),
                  ratio=r, ratio_num=rn, ratio_den=rd,
                  checkpoints=_fmt_rows(rows), ok="pass" if ok else "fail",
                  detail=_detail({"margin": f"{margin:.4f}",
                                  "recurrence": int(rec_ok)}))
    return fields, not ok


SUITE_FNS = {"ranking-lemmas": _suite_ranking, "mlsc-lemmas": _suite_mlsc,
             "lcst-probes": _suite_lcst, "wssr-lemmas": _suite_wssr}


def cmd_suite(args, cfg: RunConfig):
    names = SUITE_NAMES if args.name == "lemmas" else (args.name,)
    digest = cfg.digest()
    records, code = [], 0
    for name in names:
        fn = SUITE_FNS[name]
        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            outs = list(pool.map(lambda s: fn(s, args), range(args.seeds)))
        rows = [ResultRecord(f"suite:{name}", digest, seed=str(s), **fields)
                for s, (fields, _) in enumerate(outs)]
        rows.sort(key=lambda rec: int(rec.seed))
        hard = sum(1 for _, h in outs if h)
        records.extend(rows)
        records.append(ResultRecord(
            f"suite:{name}", digest, ok="pass" if hard == 0 else "fail",
            detail=_detail({"failures": hard, "seeds": args.seeds})))
        if hard:
            code = 2
    return records, code


# ---- emission and entry point -----------------------------------------------

def emit(records, fmt: str, out_path) -> None:
    if not records:
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for rec in records:
            writer.writerow(rec.row())
        text = buf.getvalue()
    else:
        text = json.dumps([rec.as_obj() for rec in records],
                          sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="default seed for sampling and rounding")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker cap for suite fan-out")
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
    p.add_argument("--tol", help="LP tolerance as a rational, e.g. 1/1000000")
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig.from_args(args)
    start = time.perf_counter()
    try:
        records, code = args.func(args, cfg)
    except (Infeasible, Uncoverable) as exc:
        print(f"latcov {args.command}: infeasible: {exc}", file=sys.stderr)
        return 3
    except (CapExceeded, SolverStall, Unbounded, ValueError, OSError) as exc:
        print(f"latcov {args.command}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    emit(records, args.format, args.out)
    print(f"latcov {args.command}: {len(records)} record(s), "
          f"wall-clock {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
