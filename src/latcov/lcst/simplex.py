"""Tableau simplex for LPs in canonical form.

maximize c.x  subject to  A x <= b, x >= 0, with every b_i >= 0, so the
slack basis is feasible and no phase-1 is needed. Entering column: most
negative reduced cost while the objective is moving, switching permanently
to Bland's rule after a degenerate stretch, which keeps termination
guaranteed. Leaving row: smallest ratio, ties to the smallest basic index.

Exact data (ints and Fractions, tol 0) pivots in integers: each row is a
list of int numerators over a positive denominator of its own. The pivot
row P is divided by the gcd of its entries, so its pivot entry p equals its
denominator; a row R with entry f in the entering column becomes
(a R - k P) / (a den_R) with a = p/g, k = f/g, g = gcd(p, f), as in the
fraction-free elimination of Bareiss and Edmonds, and is reduced by its gcd
whenever a > 1. Ratios compare by cross-multiplication; Fractions are built
only for the returned point and value. Other data (floats with a small
tolerance) pivots in its own arithmetic. A pivot touches only the rows with
a nonzero entry in the entering column, and there only the nonzero columns
of the pivot row plus the rhs. The values, hence the pivots, are those of
dense elimination; floats agree bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import attrgetter, itemgetter, lt
from typing import Sequence

from ..errors import Unbounded

_num = attrgetter("numerator")
_den = attrgetter("denominator")


def solve_canonical_max(c: Sequence, rows: Sequence[Sequence], b: Sequence,
                        tol=Fraction(0)):
    """Return (x, value) maximizing c.x over {A x <= b, x >= 0}.

    Raises Unbounded when the objective is unbounded above. `tol` is the
    pivot/optimality threshold: keep it 0 for exact data.
    """
    m = len(rows)
    n = len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("canonical form needs b >= 0")
    zero = c[0] * 0 if c else Fraction(0)
    exact = tol == 0 and all(issubclass(t, (int, Fraction)) for t in
                             set(map(type, chain(c, b, *rows))))

    # columns: n structural, m slacks, then the rhs; the objective is row m
    # exact rows hold numerators over den[i], their slack entry is den[i]
    tab, den = [], []
    for i in range(m + 1):
        row = list(rows[i]) + [b[i]] if i < m else [-ci for ci in c] + [zero]
        unit = zero + 1
        if exact:
            unit = lcm(*map(_den, row))
            row = ([v.numerator * (unit // v.denominator) for v in row]
                   if unit > 1 else list(map(_num, row)))
            den.append(unit)
        slack = [0 if exact else zero] * m
        if i < m:
            slack[i] = unit
        tab.append(row[:n] + slack + row[n:])
    basis = list(range(n, n + m))
    if exact:
        tol = 0
    pivot = _pivot_exact if exact else _pivot
    bland = False
    stalled = 0
    while True:
        obj = tab[m]
        if bland:  # smallest eligible index
            enter = next((j for j in range(n + m) if obj[j] < -tol), -1)
        else:  # most negative reduced cost, smallest index on ties
            enter = min(range(n + m), key=obj.__getitem__, default=-1)
            if enter >= 0 and not obj[enter] < -tol:
                enter = -1
        if enter < 0:
            break
        col = list(map(itemgetter(enter), tab))
        leave, moved = _ratio(tab, col, m, basis, tol, exact)
        if leave < 0:
            raise Unbounded("objective unbounded above")
        pivot(tab, den, col, leave)
        basis[leave] = enter
        # a long degenerate stretch risks cycling under the greedy rule
        if not bland:
            stalled = 0 if moved else stalled + 1
            bland = stalled >= 40

    def rhs(i):
        return Fraction(tab[i][-1], den[i]) if exact else tab[i][-1]

    x = [Fraction(0) if exact else zero] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = rhs(i)
    return x, rhs(m)


def _ratio(tab, col, m, basis, tol, exact):
    """Leaving row by the ratio test, and whether the step is positive.

    Integer rows compare rhs/entry by cross-multiplication (their
    denominators cancel); other rows divide, with 1 as the divisor.
    """
    leave, best_r, best_a = -1, 0, 1
    for i in compress(range(m), map(lt, repeat(tol), col)):
        r, a = tab[i][-1], col[i]
        if not exact:
            r, a = r / a, 1
        lhs, rhs = r * best_a, best_r * a
        if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
            best_r, best_a, leave = r, a, i
    return leave, best_r > tol


def _nonzero(row):
    return list(compress(range(len(row)), row))


def _support(prow):
    """Columns a pivot on `prow` changes: its nonzeros and the rhs."""
    return _nonzero(prow[:-1]) + [len(prow) - 1]


def _pivot(tab, den, col, leave):
    prow = tab[leave]
    cols = _support(prow)
    piv = col[leave]
    for j in cols:
        prow[j] = prow[j] / piv
    for i in compress(range(len(tab)), col):
        if i != leave:
            row, f = tab[i], col[i]
            for j in cols:
                row[j] -= f * prow[j]


def _pivot_exact(tab, den, col, leave):
    prow = tab[leave]
    g = gcd(*prow)
    for j in _nonzero(prow):
        prow[j] //= g
    piv = den[leave] = col[leave] // g
    cols = _support(prow)
    for i in compress(range(len(tab)), col):
        if i != leave:
            row = tab[i]
            g = gcd(piv, col[i])
            a, f = piv // g, col[i] // g
            nz = _nonzero(row) if a > 1 else ()
            for j in nz:
                row[j] *= a
            for j in cols:
                row[j] -= f * prow[j]
            if a > 1:  # the denominator grew: reduce the row
                nz = set(nz).union(cols)
                g = gcd(den[i] * a, *[row[j] for j in nz])
                for j in nz:
                    row[j] //= g
                den[i] = den[i] * a // g
