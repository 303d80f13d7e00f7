"""Level-indexed fractional covering relaxation on grouped trees.

Per level l = 0..L there is one x variable per edge and one y variable per
group.  Base rows: parent monotonicity x_e <= x_{pe}, a unit box on root
edges, the level budget sum w_e x_e <= 2^l, level monotonicity
y^l <= y^{l+1}, and y^L <= 1.  Cut inequalities are generated lazily:
after each solve the separation oracle runs for every (level, group) pair
and each new violated row joins the system, until none is violated beyond
the tolerance.  The oracle's answer depends only on the group and its
inputs (x on the group's reduced tree, y^l_g), not on the level, so each
group keeps one memo of answers keyed by inputs, shared by its levels and
rounds.  Every coefficient is an integer, so exact mode hands the simplex
int rows and reads each vertex back as int numerators over one common
denominator D.  Separation compares those ints: scaling every input by
D > 0 keeps each sum, tie and sign, so the cuts are the ones the rational
inputs give.  A memo key is the closure's numerators, y's numerator and D
over their gcd, equal exactly when the rational inputs are; a cached
deficit is read back in the round's units through that gcd.  Fractions
are built once, for the returned solution.  The reported objective is
(1/2) sum_l 2^l sum_g (1 - y^l_g).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ..errors import SolverStall
from .separation import reduced_tree, separate_kc
from .simplex import solve_canonical_max

# above this many variables the tableau switches from exact rationals to
# floats; the pivot and separation tolerances below apply in float mode only
EXACT_VAR_LIMIT = 200
FLOAT_TOL = 1e-7
PIVOT_TOL = 1e-9
ITER_CAP = 500


@dataclass(frozen=True)
class KcRow:
    """One generated cut row: mult*y^l_g <= sum_leaf x + mult*sum_inner x."""

    level: int
    group: int
    multiplier: int
    leaf_cut: frozenset
    inner_cut: frozenset


@dataclass(frozen=True)
class LpSolution:
    levels: int        # top level L; per-level arrays hold L+1 entries
    x: tuple           # x[l] maps edge id -> value
    y: tuple           # y[l][gi]
    objective: object
    exact: bool
    iterations: int    # simplex solves performed
    cuts: tuple        # KcRow records in generation order
    level_of: tuple    # per group: smallest l with y^l >= 1/2

    @property
    def kc_rows(self) -> int:
        return len(self.cuts)


def level_count(tree) -> int:
    """Top level L: the budget 2^L admits the whole tree twice over."""
    total = max(1, 2 * tree.total_weight)
    return (total - 1).bit_length() + 1


def solve_lp_lcst(tree, max_iters: int = ITER_CAP,
                  exact_limit: int = EXACT_VAR_LIMIT) -> LpSolution:
    """Cutting-plane solve; raises SolverStall past `max_iters` rounds."""
    edges = tree.edges
    E, G = len(edges), len(tree.groups)
    L = level_count(tree)
    nlev = L + 1
    nvars = nlev * (E + G)
    exact = nvars <= exact_limit
    num = int if exact else float
    tol = Fraction(0) if exact else FLOAT_TOL
    pivot_tol = Fraction(0) if exact else PIVOT_TOL
    zero = num(0)

    eidx = {e: i for i, e in enumerate(edges)}

    def xvar(lv: int, e: int) -> int:
        return lv * E + eidx[e]

    def yvar(lv: int, gi: int) -> int:
        return nlev * E + lv * G + gi

    # x columns cost nothing; y^l_g (column yvar(l, g)) earns 2^l
    c = [zero] * (nlev * E) + [num(1 << lv) for lv in range(nlev)
                               for _ in range(G)]

    rows: list[dict] = []   # {column: coefficient}
    rhs: list = []

    def add_row(coeffs: dict, b):
        rows.append({j: num(v) for j, v in coeffs.items()})
        rhs.append(num(b))

    for lv in range(nlev):
        for e in edges:
            p = tree.parent[e]
            if p == tree.root:
                add_row({xvar(lv, e): 1}, 1)
            else:
                add_row({xvar(lv, e): 1, xvar(lv, p): -1}, 0)
        add_row({xvar(lv, e): tree.weight[e] for e in edges if tree.weight[e]},
                1 << lv)
    for gi in range(G):
        for lv in range(L):
            add_row({yvar(lv, gi): 1, yvar(lv + 1, gi): -1}, 0)
        add_row({yvar(L, gi): 1}, 1)

    closures = [reduced_tree(tree, g) for g in tree.groups]
    closure_cols = [[eidx[e] for e in cl] for cl in closures]  # at level 0
    memos = [{} for _ in range(G)]   # per group: inputs -> separation result
    seen: set = set()
    cuts: list[KcRow] = []
    iterations = 0
    last_viol = zero
    while True:
        if iterations >= max_iters:
            raise SolverStall(
                f"cut generation still active after {iterations} rounds; "
                f"last violation {last_viol}")
        x, value = solve_canonical_max(c, rows, rhs, tol=pivot_tol)
        iterations += 1
        # the vertex is vals[j] / scale; exact mode compares the ints
        vals, scale = (x.nums, x.den) if exact else (x, 1)
        violated, fresh, worst = False, 0, zero
        for gi, (g, k) in enumerate(zip(tree.groups, tree.reqs)):
            memo, closure = memos[gi], closures[gi]
            for lv in range(nlev):
                inputs = [vals[lv * E + j] for j in closure_cols[gi]]
                inputs += (vals[yvar(lv, gi)], scale)
                common = gcd(*inputs) if exact else 1
                if common > 1:  # reduced, equal keys are equal rational inputs
                    inputs = [v // common for v in inputs]
                key = tuple(inputs)
                if key in memo:
                    v = memo[key]
                else:
                    v = memo[key] = separate_kc(tree, g, k,
                                                dict(zip(closure, key)),
                                                key[-2], tol=tol)
                if v is None:
                    continue
                violated = True
                deficit = v.deficit * common   # in units of 1/scale
                if deficit > worst:
                    worst = deficit
                sig = (lv, gi, v.multiplier, v.leaf_cut, v.inner_cut)
                if sig in seen:
                    continue
                seen.add(sig)
                cuts.append(KcRow(lv, gi, v.multiplier, v.leaf_cut,
                                  v.inner_cut))
                add_row({yvar(lv, gi): v.multiplier,
                         **{xvar(lv, e): -1 for e in v.leaf_cut},
                         **{xvar(lv, e): -v.multiplier for e in v.inner_cut}},
                        0)
                fresh += 1
        if not violated:
            break
        last_viol = Fraction(worst, scale) if exact else worst
        if fresh == 0:
            raise SolverStall(
                "separation keeps flagging rows already in the system; "
                f"violation {last_viol}")

    sol = list(x)   # exact: one Fraction per variable, for the last round
    xs = tuple({e: sol[xvar(lv, e)] for e in edges} for lv in range(nlev))
    ys = tuple(tuple(sol[yvar(lv, gi)] for gi in range(G))
               for lv in range(nlev))
    half = Fraction(1, 2) if exact else 0.5
    total = num(G * ((1 << nlev) - 1))
    objective = half * (total - value)
    thr = half if exact else half - tol
    level_of = tuple(
        next((lv for lv in range(nlev) if ys[lv][gi] >= thr), L)
        for gi in range(G))
    return LpSolution(L, xs, ys, objective, exact, iterations, tuple(cuts),
                      tuple(level_of))
