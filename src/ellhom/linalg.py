"""Exact linear algebra over the integers.

Everything here is fraction-free: a rational result is integer numerators
over one denominator. No floating point anywhere, so ranks and echelon
forms are exact by construction.

The chain-complex blocks go through sparse_int_pivots, a left-looking
elimination that reads the rows one at a time and stops as soon as its
pivots reach the column count: the rows it has not read then add nothing
to the rank. int_rref is a dense Bareiss Gauss-Jordan elimination for the
small matrices whose reduced form is wanted.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def sparse_int_pivots(rows: list[dict[int, int]]) -> list[int]:
    """The pivot rows of an integer matrix given as sparse rows
    {column: entry}: their indices in ``rows``, in pivot order. The input
    rows at these indices are independent, and their count is the rank.

    Left-looking fraction-free elimination; the caller's rows are not
    changed. The nonempty rows are read shortest first, ties by index. Each
    is copied, divided by its content and reduced against the pivots found
    so far, in the order they were found: against a pivot with column col
    and entry pv > 0, a row with entry rv there becomes a*row - b*pivot_row
    with a = pv/g, b = rv/g and g = gcd(pv, rv). A pivot row was reduced
    against every earlier pivot, so subtracting it adds no earlier pivot
    column, and a heap of pivot positions takes the pivots in order. A row
    that stays nonzero is divided by its content and becomes the next pivot:
    its column is the one with the smallest |entry|, then the smallest
    label, and its sign is made positive. The reduced pivot rows are in
    echelon form, so they are independent, and each is a nonzero multiple of
    its input row plus a combination of earlier pivot input rows: the input
    pivot rows are independent too, and a row that ends at zero lies in
    their span.

    The elimination stops once the pivots number min(nonempty rows,
    distinct columns). The rank is at most either, so the rows not yet
    read lie in the span of the pivots, and the count is the rank. Only
    the column labels of those rows are read, to count the columns.
    """
    order = sorted([i for i, r in enumerate(rows) if r], key=lambda i: len(rows[i]))
    bound = min(len(order), len(set().union(*map(dict.keys, rows))))
    pivots: list[int] = []
    # basis[k]: the column, the entry and the rest of the k-th pivot row
    basis: list[tuple[int, int, dict[int, int]]] = []
    position: dict[int, int] = {}  # pivot column -> k
    for i in order:
        if len(pivots) == bound:
            break
        r = rows[i]
        g = gcd(*r.values())
        row = {c: v // g for c, v in r.items()} if g > 1 else dict(r)
        heap = [position[c] for c in row if c in position]
        heapify(heap)
        while heap:
            col, pv, rest = basis[heappop(heap)]
            rv = row.pop(col, 0)
            if not rv:
                # cancelled by an earlier pivot, or a repeated heap entry
                continue
            g = gcd(pv, rv)
            a, b = pv // g, rv // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, w in rest.items():
                nv = row.get(c, 0) - b * w
                if nv:
                    if c not in row and c in position:
                        heappush(heap, position[c])
                    row[c] = nv
                else:
                    del row[c]
        if not row:
            continue
        g = gcd(*row.values())
        if g > 1:
            for c in row:
                row[c] //= g
        col = min(row, key=lambda c: (abs(row[c]), c))
        pv = row.pop(col)
        if pv < 0:
            # a positive pivot makes a = 1 whenever |pv| divides rv
            pv = -pv
            row = {c: -v for c, v in row.items()}
        position[col] = len(basis)
        basis.append((col, pv, row))
        pivots.append(i)
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
