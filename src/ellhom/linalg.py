"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floating point
anywhere, so ranks and echelon forms are exact by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows {column: entry}.

    Fraction-free elimination on a copy; the caller's rows are not changed.
    Each row is first divided by its content. The pivot row is a shortest
    remaining row; within it, the pivot column is the one that occurs in
    the fewest remaining rows (a Markowitz-style choice that keeps fill-in
    low), ties going to the smallest |entry| and then the smallest column.
    A row r with entry rv in the pivot column becomes a*r - b*pivot_row
    with a = pv/g, b = rv/g and g = gcd(pv, rv), and is then divided by its
    content. These operations scale rows by nonzero integers and add
    multiples of other rows, so the rank is preserved.
    """
    work: dict[int, dict[int, int]] = {}
    # rows_with[c]: ids of the remaining rows with a nonzero entry in column c
    rows_with: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        if not r:
            continue
        g = gcd(*r.values())
        work[i] = {c: v // g for c, v in r.items()} if g > 1 else dict(r)
        for c in r:
            rows_with.setdefault(c, set()).add(i)
    rank = 0
    while work:
        i = min(work, key=lambda j: len(work[j]))
        pivot_row = work.pop(i)
        for c in pivot_row:
            rows_with[c].discard(i)
        col = min(pivot_row, key=lambda c: (len(rows_with[c]), abs(pivot_row[c]), c))
        pv = pivot_row.pop(col)
        if pv < 0:
            # a positive pivot makes a = 1 whenever |pv| divides rv
            pv = -pv
            pivot_row = {c: -v for c, v in pivot_row.items()}
        rank += 1
        for j in rows_with.pop(col):
            row = work[j]
            rv = row.pop(col)
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, pw in pivot_row.items():
                nv = row.get(c, 0) - b * pw
                if nv:
                    if c not in row:
                        rows_with[c].add(j)
                    row[c] = nv
                else:
                    del row[c]
                    rows_with[c].discard(j)
            if not row:
                del work[j]
                continue
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
    return rank


def fraction_rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a matrix with int or Fraction entries:
    its nonzero rows, and the pivot column of each. Column c of the input
    is sum_k rows[k][c] times input column pivots[k]."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[col]:
                f = row[col]
                rows[k] = [v - f * w for v, w in zip(row, rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots
