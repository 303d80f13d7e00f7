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
          explicit <v0> <v1> ... (2^n monotone entries in [0, 1])
    STOCHASTIC <nelems> <domain>      (wssr)
        one line per element: "<length> : <point> <p/q> <point> <p/q> ..."
    END

Rationals are always written as p/q (never decimals); integers in METRIC
and TREE rows are plain. The writer is canonical, so parse(serialize(x))
round-trips byte-identically.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ..errors import check_cap
from .generators import GEN_CAP, Instance
from .metrics import metric_from_matrix
from .stoch import StochasticInstance
from .trees import GroupedTree
from .valuations import (CoverFunction, CoverTerm, ExplicitFunction,
                         ValuationSet, flip_pairs)

FORMAT_KINDS = ("ranking", "mlsc", "lcst", "wssr")
HEADER_FIELDS = {"METRIC": 2, "TREE": 2, "VALUATIONS": 4, "STOCHASTIC": 2}


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ratio(p: int, q: int) -> str:   # _rat(Fraction(p, q)) for q > 0
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


class _Malformed(ValueError):
    """A token or row the grammar cannot read or refuses; `loads` names it."""


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise _Malformed(f"expected an integer, got {tok!r}") from None


def _fields(text: str, sep, count: int) -> list[str]:
    parts = text.split(sep, count - 1)
    if len(parts) != count:
        raise _Malformed(f"expected {count} fields split by {sep or ' '!r}")
    return parts


def _parse_pq(tok: str) -> tuple[int, int]:   # q > 0, not reduced
    if "/" not in tok:
        raise _Malformed(f"rational must be written p/q, got {tok!r}")
    p, q = (_int(t) for t in tok.split("/", 1))
    if q == 0:
        raise _Malformed(f"rational has a zero denominator: {tok!r}")
    return (-p, -q) if q < 0 else (p, q)


def parse_rat(tok: str) -> Fraction:
    return Fraction(*_parse_pq(tok))


def _count(tok: str, field: str) -> int:
    n = _int(tok)
    if n < 0:
        raise ValueError(f"{field} must be >= 0, got {n}")
    return n


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
            out.append("explicit " + " ".join(
                _ratio(f.num(mask), f.den) for mask in range(1 << f.n)))
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
    try:
        while True:
            line = take()
            toks = line.split()
            if not toks:
                raise ValueError("blank lines are not allowed")
            tag = toks[0]
            if tag == "END":
                break
            if tag in HEADER_FIELDS and len(toks) != 1 + HEADER_FIELDS[tag]:
                raise ValueError(f"{tag} takes {HEADER_FIELDS[tag]} fields")
            if tag in ("METRIC", "VALUATIONS"):   # before any row is parsed
                n = _int(toks[1 if tag == "METRIC" else 2])
                check_cap(tag, n, GEN_CAP)
            if tag == "METRIC":
                n, root = _count(toks[1], "METRIC vertex count"), _int(toks[2])
                rows = [[_int(x) for x in take().split()] for _ in range(n)]
                metric = metric_from_matrix(rows, root)
            elif tag == "TREE":
                nv, root = _count(toks[1], "TREE vertex count"), _int(toks[2])
                if nv - 1 > len(lines) - pos:   # before allocating nv slots
                    raise ValueError(f"TREE {nv}: too few rows in the file")
                parent: list = [None] * nv
                weight = [0] * nv
                for _ in range(nv - 1):
                    v, p, w = (_int(x) for x in _fields(take(), None, 3))
                    if not 0 <= v < nv:
                        raise _Malformed(f"tree vertex {v} out of range")
                    parent[v], weight[v] = p, w
                gline = take().split()
                if len(gline) != 2 or gline[0] != "GROUPS":
                    raise ValueError("TREE must be followed by 'GROUPS <count>'")
                tag = "GROUPS"   # the section a bad row's refusal names
                groups, reqs = [], []
                for _ in range(_count(gline[1], "GROUPS count")):
                    k_part, members = _fields(take(), " : ", 2)
                    reqs.append(_int(k_part))
                    groups.append([_int(x) for x in members.split()])
                tree = GroupedTree(parent, weight, root, groups, reqs)
            elif tag == "VALUATIONS":
                m = _count(toks[1], "VALUATIONS function count")
                n = _count(toks[2], "VALUATIONS ground set size")
                vkind, eps = toks[3], parse_rat(toks[4])
                fns = [_parse_function(take(), n, i) for i in range(m)]
                valuations = ValuationSet(n, fns, vkind, eps)
            elif tag == "STOCHASTIC":
                nelems = _count(toks[1], "STOCHASTIC element count")
                domain = _count(toks[2], "STOCHASTIC domain size")
                if valuations is None:
                    raise ValueError("STOCHASTIC requires a preceding VALUATIONS")
                supports, lengths = [], []
                for _ in range(nelems):
                    len_part, body = _fields(take(), " : ", 2)
                    lengths.append(_int(len_part))
                    items = body.split()
                    if len(items) % 2:
                        raise _Malformed("support needs point/probability pairs")
                    supp = tuple((_int(items[i]), parse_rat(items[i + 1]))
                                 for i in range(0, len(items), 2))
                    supports.append(supp)
                stochastic = StochasticInstance(domain, tuple(supports),
                                                tuple(lengths), valuations)
            else:
                raise ValueError(f"unknown section {tag!r}")
    except _Malformed as exc:   # raised while reading the last line taken
        raise ValueError(f"{tag} line {pos} {lines[pos - 1]!r}: {exc}") \
            from None
    if pos != len(lines) and any(l.strip() for l in lines[pos:]):
        raise ValueError("trailing content after END")

    if kind == "mlsc" and (metric is None or valuations is None):
        raise ValueError("mlsc file missing METRIC or VALUATIONS")
    if kind == "mlsc" and metric.n != valuations.n:
        raise ValueError(f"mlsc file: METRIC has {metric.n} vertices but "
                         f"VALUATIONS has n={valuations.n}")
    if kind == "ranking" and valuations is None:
        raise ValueError("ranking file missing VALUATIONS")
    if kind == "lcst" and tree is None:
        raise ValueError("lcst file missing TREE")
    if kind == "wssr" and stochastic is None:
        raise ValueError("wssr file missing STOCHASTIC")
    return Instance(kind, metric=metric, tree=tree,
                    valuations=valuations if kind != "wssr" else None,
                    stochastic=stochastic)


def _parse_function(line: str, n: int, index: int):
    try:   # any refusal, the valuation classes' too, is about this line
        toks = line.split() or [""]
        if toks[0] == "explicit":
            # tables repeat few values: parse each distinct token once, in
            # file order, so the first bad token is the one the error names
            pairs = {t: _parse_pq(t) for t in dict.fromkeys(toks[1:])}
            den = math.lcm(*(q for _, q in pairs.values()))
            lifted = {t: p * (den // q) for t, (p, q) in pairs.items()}
            nums = list(map(lifted.__getitem__, toks[1:]))
            if nums and (min(nums) < 0 or max(nums) > den):
                raise ValueError("explicit table values must lie in [0, 1]")
            fn = ExplicitFunction.from_nums(n, nums, den)
            if not _monotone(nums, n):   # the exact oracles assume it
                raise ValueError(f"explicit table of function {index} is not "
                                 f"monotone: some f(S) > f(S + e)")
            return fn
        if toks[0] != "wtc":
            raise ValueError(f"unknown function encoding {toks[0]!r}")
        chunks = line.split(" ; ")
        head = chunks[0].split()
        if len(head) != 2:
            raise ValueError("expected 'wtc <nterms>'")
        nterms = _int(head[1])
        if len(chunks) - 1 != nterms:
            raise ValueError("term count mismatch")
        terms = []
        for chunk in chunks[1:]:
            w_part, body = _fields(chunk, " : ", 2)
            weight = parse_rat(w_part)
            members, units = [], []
            for item in body.split():
                e, u = _fields(item, ":", 2)
                members.append(_int(e))
                units.append(parse_rat(u))
            terms.append(CoverTerm(weight, tuple(members), tuple(units)))
        return CoverFunction(n, terms)
    except ValueError as exc:
        raise _Malformed(str(exc)) from None


def _monotone(nums: list[int], n: int) -> bool:
    """No nums[m] > nums[m | 1 << e], compared slice against slice."""
    return not any(any(map(operator.gt, lo, hi))
                   for lo, hi in flip_pairs(nums, n))


def dump(inst: Instance, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(inst))


def load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
