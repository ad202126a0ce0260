"""Exact sparse integer rank and its pivot rows against an independent
Fraction elimination, on random matrices and on every block the chain-complex
oracle hands over; the early stop of the elimination; and the fraction-free
reduced echelon form against its defining properties.

The reference below is textbook Gaussian elimination over Q on a dense
copy, written here so it shares no code with ellhom.linalg.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ellhom.koszul
from ellhom import kostant_homology, koszul_n_homology
from ellhom.linalg import int_rref, sparse_int_pivots, sparse_int_rank


def reference_rank(rows, n_cols):
    a = [[Fraction(r.get(c, 0)) for c in range(n_cols)] for r in rows]
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**61 - 1, -(2**45), 10**30, 6, -12]),
)


@st.composite
def sparse_matrices(draw):
    n_cols = draw(st.integers(1, 7))
    base = draw(st.lists(
        st.lists(ENTRIES, min_size=n_cols, max_size=n_cols), min_size=0, max_size=6,
    ))
    rows = [{c: v for c, v in enumerate(r) if v} for r in base]
    # planted dependencies: integer combinations of rows already present
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        x, y = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        combo = {c: x * rows[i].get(c, 0) + y * rows[j].get(c, 0) for c in range(n_cols)}
        rows.append({c: v for c, v in combo.items() if v})
    # repeated columns: copy column 0 into a fresh column
    if draw(st.booleans()):
        for r in rows:
            if 0 in r:
                r[n_cols] = r[0]
        n_cols += 1
    rows += [{}] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], n_cols


@given(data=sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_int_rank_matches_fraction_elimination(data):
    rows, n_cols = data
    before = [dict(r) for r in rows]
    assert sparse_int_rank(rows) == reference_rank(rows, n_cols)
    assert rows == before


def test_sparse_int_rank_small_cases():
    assert sparse_int_rank([]) == 0
    assert sparse_int_rank([{}, {}]) == 0
    assert sparse_int_rank([{0: 2, 1: 4}, {0: -3, 1: -6}]) == 1
    assert sparse_int_rank([{0: 2, 5: 3}, {5: 7}, {0: 1}]) == 2
    # columns are arbitrary integer labels, not positions
    assert sparse_int_rank([{10**9: 1}, {-7: 1}]) == 2


@given(data=sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_int_pivots_are_independent_rows_as_many_as_the_rank(data):
    rows, n_cols = data
    before = [dict(r) for r in rows]
    pivots = sparse_int_pivots(rows)
    assert len(set(pivots)) == len(pivots)
    # the input rows at the pivot indices alone are independent, and there
    # are as many of them as the rank of all the rows
    assert reference_rank([rows[i] for i in pivots], n_cols) == len(pivots)
    assert len(pivots) == reference_rank(rows, n_cols)
    assert rows == before


class Unread(dict):
    """A row whose entries must not be read: only its length and, through
    dict.keys, its column labels are available."""

    def _refuse(self, *args):
        raise AssertionError("a row past the early stop was read")

    __iter__ = __getitem__ = get = items = values = copy = _refuse


def test_elimination_stops_at_the_column_count():
    # the four shortest rows have full column rank 4, so the longer rows
    # are never read; their column labels still count towards the columns
    read = [{0: 2, 1: 1}, {1: 3, 2: 1}, {2: 1, 3: 5}, {3: 2, 0: 1}]
    assert reference_rank(read, 4) == 4
    surplus = [Unread({0: 1, 1: 2, 2: 3}), Unread({0: 5, 1: -1, 2: 2, 3: 7}), Unread({1: 4, 3: -2, 2: 1})]
    rows = [surplus[0], read[0], surplus[1], read[1], read[2], surplus[2], read[3]]
    assert sorted(sparse_int_pivots(rows)) == [1, 3, 4, 6]
    assert sparse_int_rank(rows) == 4
    # a column that only a surplus row has keeps the elimination reading
    with pytest.raises(AssertionError, match="past the early stop"):
        sparse_int_pivots(rows + [Unread({0: 1, 4: 1, 5: 1})])


def test_rank_deficient_tall_block_reads_every_row():
    # three multiples of one row over two columns: the pivots never reach
    # the column count, so every row is reduced and the rank is 1
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: -3, 1: -6}]
    assert sparse_int_pivots(rows) == [0]
    assert sparse_int_rank(rows) == 1
    with pytest.raises(AssertionError, match="past the early stop"):
        sparse_int_pivots(rows[:2] + [Unread(rows[2])])


@pytest.mark.parametrize("fixture, lam", [("a2", (2, 2)), ("b2", (1, 1))])
def test_pivots_of_every_oracle_block_match_fraction_elimination(monkeypatch, request, fixture, lam):
    rs = request.getfixturevalue(fixture)
    blocks = []

    def recording(real):
        def wrapped(rows):
            blocks.append([dict(r) for r in rows])
            return real(rows)

        return wrapped

    monkeypatch.setattr(ellhom.koszul, "sparse_int_pivots", recording(ellhom.koszul.sparse_int_pivots))
    monkeypatch.setattr(ellhom.koszul, "sparse_int_rank", recording(ellhom.koszul.sparse_int_rank))
    gh = koszul_n_homology(lam, rs.positive_roots, rs)
    stopped = 0
    for rows in blocks:
        # reference_rank reads the columns 0, 1, ...: renumber the labels
        index = {c: k for k, c in enumerate(set().union(*rows))}
        dense = [{index[c]: v for c, v in r.items()} for r in rows]
        pivots = sparse_int_pivots(rows)
        rank = reference_rank(dense, len(index))
        assert len(set(pivots)) == len(pivots) == rank
        assert reference_rank([dense[i] for i in pivots], len(index)) == rank
        stopped += rank == len(index) < sum(1 for r in rows if r)
    # these blocks are tall and of full column rank, unlike the random ones
    assert stopped
    assert gh == kostant_homology(lam, rs)


@given(data=sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_int_rref_pivots_and_column_relations(data):
    rows, n_cols = data
    matrix = [[r.get(c, 0) for c in range(n_cols)] for r in rows]
    reduced, pivots, den = int_rref(matrix)
    assert den > 0
    assert len(pivots) == len(reduced) == reference_rank(rows, n_cols)
    assert pivots == sorted(set(pivots))
    for k, row in enumerate(reduced):
        assert [row[p] for p in pivots] == [den * int(k == l) for l in range(len(pivots))]
        # echelon: nothing left of the pivot
        assert not any(row[:pivots[k]])
    # every input column is the combination of the pivot columns that the
    # reduced column over den gives
    for c in range(n_cols):
        for r in matrix:
            assert den * r[c] == sum(row[c] * r[p] for row, p in zip(reduced, pivots))
