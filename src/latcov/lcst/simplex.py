"""Sparse tableau simplex for LPs in canonical form.

maximize c.x  subject to  A x <= b, x >= 0, with every b_i >= 0, so the
slack basis is feasible and no phase-1 is needed. Row i of A is a mapping
{column: entry}. Entering column: most negative reduced cost, smallest
index on ties, switching for good to Bland's rule after 40 degenerate
pivots, which keeps termination guaranteed. Leaving row: smallest ratio,
ties to the smallest basic index.

Each tableau row (the objective is row m) is a dict of its nonzero cells,
the rhs a dense list apart (float signed zeros survive there), and index[j]
the set of rows with a nonzero in column j, kept as cells fill in and
cancel. A pivot visits only the rows in the entering column's index, and
in each only the pivot row's cells and the rhs.

Exact data (ints and Fractions, tol 0) pivots in integers: each row holds
int numerators over a positive denominator of its own (1 for int rows).
The pivot row P is divided by its gcd, so its pivot entry p equals its
denominator; a row R with entry f in the entering column becomes
(a R - k P) / (a den_R) with a = p/g, k = f/g, g = gcd(p, f), as in the
fraction-free elimination of Bareiss and Edmonds, and is reduced by its gcd
whenever a > 1. Ratios compare by cross-multiplication. Float data pivots
in floats. The pivots are those of dense elimination, bit for bit.

An exact solve returns x as a ScaledVector: int numerators over the lcm D
of the denominators of the rows whose basic variable is structural. It
reads as a sequence of Fractions, each built on access; a caller that
compares values, like the cut LP, reads its ints and D instead.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ..errors import Unbounded


class ScaledVector(Sequence):
    """Read-only vector x[j] = Fraction(nums[j], den), with den > 0."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: list, den: int):
        self.nums, self.den = nums, den

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, j: int):
        return Fraction(self.nums[j], self.den)

    def __repr__(self):
        return repr(list(self))


def solve_canonical_max(c: Sequence, rows: Sequence[Mapping], b: Sequence,
                        tol=Fraction(0)):
    """Return (x, value) maximizing c.x over {A x <= b, x >= 0}.

    `rows[i]` maps column indices to the entries of row i of A.
    Raises Unbounded when the objective is unbounded above. `tol` is the
    pivot/optimality threshold: keep it 0 for exact data, which returns x
    as a ScaledVector and the value as a Fraction; float data returns a
    list and a float.
    """
    m, n = len(rows), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("canonical form needs b >= 0")
    zero = c[0] * 0 if c else Fraction(0)
    types = set(map(type, chain(c, b, *(r.values() for r in rows))))
    exact = tol == 0 and all(issubclass(t, (int, Fraction)) for t in types)

    # columns: n structural, then m slacks whose entry is den[i]
    tab = [{j: v for j, v in r.items() if v} for r in rows]
    tab.append({j: -v for j, v in enumerate(c) if v})
    rhs = list(b) + [zero]
    den = [zero + 1] * (m + 1)
    if exact and types - {int}:  # lift Fraction rows over their lcm
        for i, row in enumerate(tab):
            unit = den[i] = lcm(rhs[i].denominator,
                                *[v.denominator for v in row.values()])
            rhs[i] = rhs[i].numerator * (unit // rhs[i].denominator)
            for j, v in row.items():
                row[j] = v.numerator * (unit // v.denominator)
    index = [set() for _ in range(n + m)]
    for i, row in enumerate(tab):
        if i < m:
            row[n + i] = den[i]
        for j in row:
            index[j].add(i)
    basis = list(range(n, n + m))
    if exact:
        tol = 0
    bland, stalled = False, 0
    while True:
        # Bland: the smallest eligible index; else the smallest index of the
        # most negative reduced cost
        low = None if bland else min(tab[m].values(), default=zero)
        enter = min((j for j, v in tab[m].items()
                     if v < -tol and (bland or v == low)), default=-1)
        if enter < 0:
            break
        col = {i: tab[i][enter] for i in index[enter]}
        # ratio test: (ratio, basic index) is a total order, so the scan
        # order is free; integer rows cross-multiply (denominators cancel)
        leave, best_r, best_a = -1, 0, 1
        for i, a in col.items():
            if i == m or not tol < a:
                continue
            r = rhs[i]
            if not exact:
                r, a = r / a, 1
            lhs, rt = r * best_a, best_r * a
            if leave < 0 or lhs < rt or lhs == rt and basis[i] < basis[leave]:
                best_r, best_a, leave = r, a, i
        if leave < 0:
            raise Unbounded("objective unbounded above")
        _pivot(tab, rhs, den, index, col, leave, enter, exact)
        basis[leave] = enter
        # a long degenerate stretch risks cycling under the greedy rule
        if not bland:
            stalled = 0 if best_r > tol else stalled + 1
            bland = stalled >= 40

    structural = [(i, bv) for i, bv in enumerate(basis) if bv < n]
    if not exact:
        x = [zero] * n
        for i, bv in structural:
            x[bv] = rhs[i]
        return x, rhs[m]
    unit = lcm(*[den[i] for i, _ in structural])
    nums = [0] * n
    for i, bv in structural:
        nums[bv] = rhs[i] * (unit // den[i])
    return ScaledVector(nums, unit), Fraction(rhs[m], den[m])


def _pivot(tab, rhs, den, index, col, leave, enter, exact):
    prow = tab[leave]
    if exact:  # P over its gcd: its pivot entry becomes its denominator
        g = gcd(rhs[leave], *prow.values())
        piv = den[leave] = col[leave] // g
        tab[leave] = prow = {j: v // g for j, v in prow.items()}
        rhs[leave] //= g
    else:
        piv = col[leave]
        tab[leave] = prow = {j: v / piv for j, v in prow.items()}
        rhs[leave] /= piv
        for j in [j for j, v in prow.items() if not v]:  # underflow
            del prow[j]
            index[j].discard(leave)
    pr = rhs[leave]
    pcells = [(j, p) for j, p in prow.items() if j != enter]
    for i, f in col.items():
        if i == leave:
            continue
        row = tab[i]
        del row[enter]  # exactly 0: f - f * (piv / piv), or a f - k p
        a = 1
        if exact:
            g = gcd(piv, f)
            a, f = piv // g, f // g
            if a > 1:
                tab[i] = row = {j: v * a for j, v in row.items()}
                rhs[i] *= a
        for j, p in pcells:  # row -= f * P, keeping the index
            v = row.get(j)
            if v is None:
                v = f * p
                if v:  # a float product can underflow to zero
                    row[j] = -v
                    index[j].add(i)
            else:
                v -= f * p
                if v:
                    row[j] = v
                else:
                    del row[j]
                    index[j].discard(i)
        rhs[i] -= f * pr
        if a > 1:  # the denominator grew: reduce the row
            g = gcd(den[i] * a, rhs[i], *row.values())
            tab[i] = {j: v // g for j, v in row.items()}
            rhs[i] //= g
            den[i] = den[i] * a // g
    index[enter] = {leave}
