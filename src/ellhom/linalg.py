"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floating point
anywhere, so ranks and determinants are exact by construction.
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


def int_det(matrix) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def fraction_inverse(matrix) -> list[list[Fraction]]:
    """Inverse of a square matrix with integer or Fraction entries."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def int_matrix_inverse(matrix) -> tuple[tuple[int, ...], ...]:
    """Inverse of an integer matrix that is invertible over the integers."""
    inv = fraction_inverse(matrix)
    out = []
    for row in inv:
        for v in row:
            if v.denominator != 1:
                raise ValueError("matrix is not invertible over the integers")
        out.append(tuple(int(v) for v in row))
    return tuple(out)
