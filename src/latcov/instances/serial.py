"""Line-oriented instance file format.

Grammar (one instance per file, sections in this order, all mandatory for
the declared kind):

    LATCOV v1 <kind>            kind: ranking | mlsc | lcst | wssr
    METRIC <n> <root>           (mlsc) followed by n rows of n integers
    TREE <nv> <root>            (lcst) followed by nv-1 lines "v parent weight"
    GROUPS <count>              (lcst) followed by "k : leaf leaf ..." lines
    VALUATIONS <m> <n> <kind> <eps>   (ranking, mlsc, wssr)
        one line per function:
          wtc <nterms> ; <w> : <e>:<u> <e>:<u> ... ; ...
          explicit <v0> <v1> ... (2^n table entries)
    STOCHASTIC <nelems> <domain>      (wssr)
        one line per element: "<length> : <point> <p/q> <point> <p/q> ..."
    END

Rationals are always written as p/q (never decimals); integers in METRIC
and TREE rows are plain. The writer is canonical, so parse(serialize(x))
round-trips byte-identically.
"""

from __future__ import annotations

from fractions import Fraction

from .generators import Instance
from .metrics import metric_from_matrix
from .stoch import StochasticInstance
from .trees import GroupedTree
from .valuations import CoverFunction, CoverTerm, ExplicitFunction, ValuationSet

FORMAT_KINDS = ("ranking", "mlsc", "lcst", "wssr")


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rat(tok: str) -> Fraction:
    if "/" not in tok:
        raise ValueError(f"rational must be written p/q, got {tok!r}")
    p, q = (int(t) for t in tok.split("/", 1))
    if q == 0:
        raise ValueError(f"rational has a zero denominator: {tok!r}")
    return Fraction(p, q)


def dumps(inst: Instance) -> str:
    if inst.kind not in FORMAT_KINDS:
        raise ValueError(f"unknown instance kind {inst.kind!r}")
    out: list[str] = [f"LATCOV v1 {inst.kind}"]
    if inst.kind == "mlsc":
        if inst.metric is None or inst.valuations is None:
            raise ValueError("mlsc instances need METRIC and VALUATIONS")
        _dump_metric(out, inst)
        _dump_valuations(out, inst.valuations)
    elif inst.kind == "ranking":
        if inst.valuations is None:
            raise ValueError("ranking instances need VALUATIONS")
        _dump_valuations(out, inst.valuations)
    elif inst.kind == "lcst":
        if inst.tree is None:
            raise ValueError("lcst instances need TREE and GROUPS")
        _dump_tree(out, inst.tree)
    else:  # wssr
        if inst.stochastic is None:
            raise ValueError("wssr instances need VALUATIONS and STOCHASTIC")
        _dump_valuations(out, inst.stochastic.valuations)
        _dump_stochastic(out, inst.stochastic)
    out.append("END")
    return "\n".join(out) + "\n"


def _dump_metric(out: list[str], inst: Instance):
    m = inst.metric
    out.append(f"METRIC {m.n} {m.root}")
    for row in m.dist:
        out.append(" ".join(str(x) for x in row))


def _dump_tree(out: list[str], tree: GroupedTree):
    out.append(f"TREE {tree.n} {tree.root}")
    for v in range(tree.n):
        if v != tree.root:
            out.append(f"{v} {tree.parent[v]} {tree.weight[v]}")
    out.append(f"GROUPS {len(tree.groups)}")
    for g, k in zip(tree.groups, tree.reqs):
        out.append(f"{k} : " + " ".join(str(v) for v in g))


def _dump_valuations(out: list[str], vs: ValuationSet):
    out.append(f"VALUATIONS {vs.m} {vs.n} {vs.kind} {_rat(vs.epsilon)}")
    for f in vs.functions:
        if isinstance(f, ExplicitFunction):
            out.append("explicit " + " ".join(_rat(v) for v in f.table))
        else:
            parts = [f"wtc {len(f.terms)}"]
            for t in f.terms:
                body = " ".join(f"{e}:{_rat(u)}" for e, u in zip(t.members, t.units))
                parts.append(f"{_rat(t.weight)} : {body}")
            out.append(" ; ".join(parts))


def _dump_stochastic(out: list[str], st: StochasticInstance):
    out.append(f"STOCHASTIC {st.n} {st.domain}")
    for supp, length in zip(st.supports, st.lengths):
        body = " ".join(f"{b} {_rat(p)}" for b, p in supp)
        out.append(f"{length} : {body}")


def loads(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "LATCOV" or head[1] != "v1":
        raise ValueError("expected header 'LATCOV v1 <kind>'")
    kind = head[2]
    if kind not in FORMAT_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    pos = 1

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("unexpected end of file")
        line = lines[pos]
        pos += 1
        return line

    metric = tree = valuations = stochastic = None
    while True:
        line = take()
        toks = line.split()
        if not toks:
            raise ValueError("blank lines are not allowed")
        tag = toks[0]
        if tag == "END":
            break
        if tag == "METRIC":
            n, root = int(toks[1]), int(toks[2])
            rows = [[int(x) for x in take().split()] for _ in range(n)]
            metric = metric_from_matrix(rows, root)
        elif tag == "TREE":
            nv, root = int(toks[1]), int(toks[2])
            parent: list = [None] * nv
            weight = [0] * nv
            for _ in range(nv - 1):
                v, p, w = (int(x) for x in take().split())
                parent[v], weight[v] = p, w
            gline = take().split()
            if gline[0] != "GROUPS":
                raise ValueError("TREE section must be followed by GROUPS")
            groups, reqs = [], []
            for _ in range(int(gline[1])):
                k_part, members = take().split(" : ", 1)
                reqs.append(int(k_part))
                groups.append([int(x) for x in members.split()])
            tree = GroupedTree(parent, weight, root, groups, reqs)
        elif tag == "VALUATIONS":
            m, n, vkind, eps = int(toks[1]), int(toks[2]), toks[3], _parse_rat(toks[4])
            fns = [_parse_function(take(), n) for _ in range(m)]
            valuations = ValuationSet(n, fns, vkind, eps)
        elif tag == "STOCHASTIC":
            nelems, domain = int(toks[1]), int(toks[2])
            if valuations is None:
                raise ValueError("STOCHASTIC requires a preceding VALUATIONS")
            supports, lengths = [], []
            for _ in range(nelems):
                len_part, body = take().split(" : ", 1)
                lengths.append(int(len_part))
                items = body.split()
                supp = tuple((int(items[i]), _parse_rat(items[i + 1]))
                             for i in range(0, len(items), 2))
                supports.append(supp)
            stochastic = StochasticInstance(domain, tuple(supports),
                                            tuple(lengths), valuations)
        else:
            raise ValueError(f"unknown section {tag!r}")
    if pos != len(lines) and any(l.strip() for l in lines[pos:]):
        raise ValueError("trailing content after END")

    if kind == "mlsc" and (metric is None or valuations is None):
        raise ValueError("mlsc file missing METRIC or VALUATIONS")
    if kind == "ranking" and valuations is None:
        raise ValueError("ranking file missing VALUATIONS")
    if kind == "lcst" and tree is None:
        raise ValueError("lcst file missing TREE")
    if kind == "wssr" and stochastic is None:
        raise ValueError("wssr file missing STOCHASTIC")
    return Instance(kind, metric=metric, tree=tree,
                    valuations=valuations if kind != "wssr" else None,
                    stochastic=stochastic)


def _parse_function(line: str, n: int):
    toks = line.split()
    if toks[0] == "explicit":
        table = [_parse_rat(t) for t in toks[1:]]
        return ExplicitFunction(n, table)
    if toks[0] != "wtc":
        raise ValueError(f"unknown function encoding {toks[0]!r}")
    chunks = line.split(" ; ")
    head = chunks[0].split()
    nterms = int(head[1])
    if len(chunks) - 1 != nterms:
        raise ValueError("term count mismatch")
    terms = []
    for chunk in chunks[1:]:
        w_part, body = chunk.split(" : ", 1)
        weight = _parse_rat(w_part)
        members, units = [], []
        for item in body.split():
            e, u = item.split(":", 1)
            members.append(int(e))
            units.append(_parse_rat(u))
        terms.append(CoverTerm(weight, tuple(members), tuple(units)))
    return CoverFunction(n, terms)


def dump(inst: Instance, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(inst))


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
