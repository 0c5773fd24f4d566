import copy
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.linalg import IncrementalRank, sparse_rank


def dense_rank(rows):
    """Rank by Gaussian elimination over the rationals on a dense copy."""
    cols = sorted({c for row in rows for c in row})
    m = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                f = m[i][j] / m[rank][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


# Negative columns included: callers may number columns in either direction.
columns = st.integers(min_value=-3, max_value=4)


def matrices(values):
    """Lists of sparse rows, with empty rows and repeated or scaled rows."""
    row = st.dictionaries(columns, values, max_size=6)

    @st.composite
    def build(draw):
        rows = draw(st.lists(row, max_size=8))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if not rows:
                break
            src = draw(st.sampled_from(rows))
            k = draw(st.sampled_from([1, -1, 2, -3]))
            rows.insert(draw(st.integers(0, len(rows))), {c: k * v for c, v in src.items()})
        return rows

    return build()


mixed_entries = st.integers(min_value=-5, max_value=5)  # zeros stored explicitly too
non_unit_entries = st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6])


@settings(max_examples=300, deadline=None)
@given(matrices(mixed_entries))
def test_sparse_rank_matches_dense_reference(rows):
    assert sparse_rank(rows) == dense_rank(rows)


@settings(max_examples=300, deadline=None)
@given(matrices(non_unit_entries))
def test_sparse_rank_non_unit_pivots(rows):
    # No entry is +-1, so every first pivot takes the gcd-and-scale path.
    assert sparse_rank(rows) == dense_rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(mixed_entries), matrices(non_unit_entries)))
def test_add_reports_growth_and_keeps_caller_row(rows):
    acc = IncrementalRank()
    for i, row in enumerate(rows):
        before = copy.deepcopy(row)
        grew = acc.add(row)
        assert row == before
        assert grew == (dense_rank(rows[: i + 1]) > dense_rank(rows[:i]))
        assert acc.rank == dense_rank(rows[: i + 1])
    for col, pivot in acc.pivots.items():
        assert min(pivot) == col
        assert all(pivot.values())
        g = 0
        for v in pivot.values():
            g = gcd(g, v)
        assert abs(g) == 1


def test_stored_pivot_rows_examples():
    # Zeros are dropped and the gcd divided out; a row with an entry ±1
    # already has gcd 1 and is stored unscaled.  The caller's rows stay.
    acc = IncrementalRank()
    even, unit = {0: 2, 1: 0, 2: 4}, {1: 4, 3: -1, 4: 6}
    assert acc.add(even) and acc.add(unit)
    assert acc.pivots == {0: {0: 1, 2: 2}, 1: {1: 4, 3: -1, 4: 6}}
    assert even == {0: 2, 1: 0, 2: 4} and unit == {1: 4, 3: -1, 4: 6}
    assert acc.pivots[1] is not unit


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(mixed_entries), matrices(non_unit_entries)))
def test_sparse_rank_returns_pivot_columns(rows):
    pivots = set()
    assert sparse_rank(rows, pivots) == len(pivots) == dense_rank(rows)
    # A row dependent on the others may be dropped from the next matrix of a
    # complex only because of this: the rows restricted to the pivot columns
    # have full rank.
    restricted = [{c: v for c, v in row.items() if c in pivots} for row in rows]
    assert dense_rank(restricted) == len(pivots)


def test_non_unit_pivot_examples():
    assert sparse_rank([{0: 2, 1: 3}, {0: 4, 1: 5}]) == 2
    assert sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    assert sparse_rank([{0: 4, 2: 6}, {0: 6, 1: 3}, {1: 3, 2: -9}]) == 2
    assert sparse_rank([{}, {5: 0}, {1: 0, 2: 0}]) == 0
    pivots = set()
    assert sparse_rank([{1: 2, 3: 4}, {1: 3, 2: 6, 3: 6}, {2: 4}], pivots) == 2
    assert pivots == {1, 2}


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(mixed_entries), matrices(non_unit_entries)),
       st.dictionaries(columns, mixed_entries, max_size=6))
def test_remainder_clears_pivots_within_the_row_space(rows, row):
    acc = IncrementalRank()
    for r in rows:
        acc.add(r)
    before = dict(row)
    rem = acc.remainder(row)
    assert row == before
    assert all(rem.values()) and not set(rem) & set(acc.pivots)
    # row − rem lies in the span of the rows.
    diff = {c: row.get(c, 0) - rem.get(c, 0) for c in set(row) | set(rem)}
    assert dense_rank(rows + [diff]) == dense_rank(rows)


def test_remainder_examples():
    acc = IncrementalRank()
    acc.add({0: 1, 2: 3})
    acc.add({1: 2, 2: 1})
    rem = acc.remainder({0: 2, 3: 1})
    assert rem == {2: -6, 3: 1} and all(type(v) is int for v in rem.values())
    # Only the non-unit pivot brings in a fraction: −(5/2)·(0, 2, 1).
    assert acc.remainder({1: 5}) == {2: Fraction(-5, 2)}
    assert acc.remainder({0: 1, 1: 1}) == {2: Fraction(-7, 2)}
