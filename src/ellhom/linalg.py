"""Exact linear algebra over the integers.

Everything here is fraction-free: a rational result is integer numerators
over one denominator. No floating point anywhere, so ranks and echelon
forms are exact by construction.
"""

from __future__ import annotations

from math import gcd


def sparse_int_pivots(rows: list[dict[int, int]]) -> list[int]:
    """The pivot rows of an integer matrix given as sparse rows
    {column: entry}: their indices in ``rows``, in pivot order. The input
    rows at these indices are independent, and their count is the rank.

    Fraction-free elimination on a copy; the caller's rows are not changed.
    Each row is first divided by its content. The pivot row is a shortest
    remaining row; within it, the pivot column is the one that occurs in
    the fewest remaining rows (a Markowitz-style choice that keeps fill-in
    low), ties going to the smallest |entry| and then the smallest column.
    A row r with entry rv in the pivot column becomes a*r - b*pivot_row
    with a = pv/g, b = rv/g and g = gcd(pv, rv), and is then divided by its
    content. These operations scale rows by nonzero integers and add
    multiples of other rows, so the rank is preserved. Each remaining row
    stays a nonzero multiple of its input row plus a combination of the
    input rows pivoted before it, so a row that ends at zero lies in the
    span of those input rows: the input pivot rows span the row space.
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
    pivots = []
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
        pivots.append(i)
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
    return pivots


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows {column: entry}: the
    number of its pivot rows."""
    return len(sparse_int_pivots(rows))


def int_rref(matrix) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of an integer matrix, fraction-free: its
    nonzero rows as integer numerators over one positive denominator den,
    and the pivot column of each. Column c of the input is
    sum_k rows[k][c] / den times input column pivots[k].

    Bareiss Gauss-Jordan elimination: the pivot of each column is its first
    nonzero entry at or below the current row (so the pivot columns are the
    leftmost independent ones), and every other row r becomes
    (pv * r - r[col] * pivot_row) / prev, where pv is the new pivot and prev
    the one before. Every entry is then a minor of the input, so each
    division is exact, and the pivot rows end as den times the reduced rows,
    den being the last pivot up to sign.
    """
    rows = [list(row) for row in matrix]
    pivots: list[int] = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        pv = pivot_row[col]
        for k, row in enumerate(rows):
            if k != r:
                f = row[col]
                rows[k] = [(pv * v - f * w) // prev for v, w in zip(row, pivot_row)]
        prev = pv
        pivots.append(col)
    rows = rows[:len(pivots)]
    if prev < 0:
        rows = [[-v for v in row] for row in rows]
    return rows, pivots, abs(prev)
