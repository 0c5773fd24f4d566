"""Sparse exact linear algebra over the integers.

Rank computation by fraction-free elimination.  Rows are dicts
{column: int}; each row is reduced against the pivots found so far, the
pivot column of a row being its smallest column index.  A caller that
knows a good elimination order for its matrix expresses it through the
column numbering.

A pivot with entry ±1 is subtracted from the row in place: no scaling is
needed, so entries stay integers without any gcd step.  A pivot with any
other entry scales the row by pivot/gcd and divides the result by the gcd
of its entries, so there is no coefficient blow-up from rational
arithmetic.  Every row stored as a pivot is normalized; results are exact.
A row with an entry ±1 already has gcd 1, so it is stored as it is,
without a gcd pass.  An input row is copied, and rebuilt without zeros
only when it holds one.
The remainder of a row modulo the pivots is taken over the rationals, and
it turns to ``Fraction`` only through a pivot entry other than ±1.

``sparse_rank`` can also hand back the pivot columns.  The rows restricted
to them have full rank, so each pivot column is the support of some
combination of the rows; a chain complex ranked on its transposed maps
uses this to skip, in the next map, the rows that such a combination
already shows to be dependent.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


def _row_gcd(row):
    g = 0
    for c in row.values():
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _normalize(row):
    g = _row_gcd(row)
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def integral(row):
    """``row`` scaled by the lcm of its denominators, so its entries are ints.

    Entries are ``int`` or ``Fraction``; a row of ints comes back as it is.
    """
    if all(type(v) is int for v in row.values()):
        return row
    m = lcm(*(v.denominator for v in row.values()))
    return {k: int(v * m) for k, v in row.items()}


class IncrementalRank:
    """Echelon accumulator: feed integer rows, watch the rank grow.

    Each row is reduced against the pivots found so far (pivot column =
    smallest column index in the row) and either vanishes or contributes a
    new pivot.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> normalized row
        self.rank = 0

    def add(self, row):
        """Reduce ``row`` ({column: value}); return True if the rank grew.

        The caller's dict is not modified.
        """
        row = dict(row)
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                values = row.values()
                # An entry ±1 makes the gcd 1 already.
                pivots[col] = row if 1 in values or -1 in values else _normalize(row)
                self.rank += 1
                return True
            a = pivot[col]
            b = row[col]
            if a == 1 or a == -1:
                f = a * b  # row - (b/a)·pivot, and 1/a == a
                for c, v in pivot.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                continue
            g = gcd(a, b)
            a //= g
            b //= g
            new = {c: v * a for c, v in row.items()}
            for c, v in pivot.items():
                new[c] = new.get(c, 0) - v * b
            row = _normalize({c: v for c, v in new.items() if v})
        return False

    def remainder(self, row):
        """``row`` ({column: int or Fraction}) reduced modulo the pivot rows.

        The result is the one vector that differs from ``row`` by a
        rational combination of the pivot rows and has no entry in a pivot
        column.  Pivot columns are cleared in increasing order; a pivot row
        starts at its own column, so clearing one never refills a smaller
        one.  The caller's dict is not modified.
        """
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        todo = [c for c in row if c in pivots]
        todo.sort()  # a sorted list is a heap
        while todo:
            col = heappop(todo)
            b = row.get(col)
            if not b:  # cleared already, or a repeat in the heap
                continue
            pivot = pivots[col]
            a = pivot[col]
            f = a * b if a == 1 or a == -1 else Fraction(b, a)
            for c, v in pivot.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    if c not in row and c in pivots:
                        heappush(todo, c)
                    row[c] = nv
                else:
                    del row[c]
        return row


def sparse_rank(rows, pivots=None):
    """Rank of the sparse integer matrix given as dicts {column: value}.

    A set passed as ``pivots`` receives the pivot columns, one per unit of
    rank: the rows restricted to those columns have full rank.
    """
    acc = IncrementalRank()
    for row in rows:
        acc.add(row)
    if pivots is not None:
        pivots.update(acc.pivots)
    return acc.rank
