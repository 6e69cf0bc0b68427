"""Tests for the vectorized key indexes in repro.utils.indexing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.indexing import ColumnIndex, MultiColumnIndex, expand_ranges


# -- ColumnIndex ---------------------------------------------------------------


def test_column_index_basic():
    idx = ColumnIndex(np.array([30, 10, 20], dtype=np.int64))
    out = idx.positions(np.array([10, 20, 30, 40], dtype=np.int64))
    assert out.tolist() == [1, 2, 0, -1]


def test_column_index_empty():
    idx = ColumnIndex(np.array([], dtype=np.int64))
    assert idx.positions(np.array([1, 2], dtype=np.int64)).tolist() == [-1, -1]
    idx2 = ColumnIndex(np.array([5], dtype=np.int64))
    assert idx2.positions(np.array([], dtype=np.int64)).size == 0


def test_column_index_rejects_duplicates():
    with pytest.raises(ValueError):
        ColumnIndex(np.array([1, 1, 2], dtype=np.int64))


def test_column_index_uint64_full_range():
    """H3-style ids above 2^63 must not round-trip through float64."""
    big = np.array([2**63 + 5, 2**63 + 6, 2**64 - 1], dtype=np.uint64)
    idx = ColumnIndex(big)
    out = idx.positions(np.array([2**63 + 6, 2**63 + 7], dtype=np.uint64))
    assert out.tolist() == [1, -1]


def test_column_index_rejects_signed_unsigned_mix():
    idx = ColumnIndex(np.array([1, 2], dtype=np.uint64))
    with pytest.raises(TypeError):
        idx.positions(np.array([1], dtype=np.int64))


def test_column_index_rejects_floats():
    with pytest.raises(TypeError):
        ColumnIndex(np.array([1.5, 2.5]))


@settings(deadline=None, max_examples=50)
@given(
    keys=st.lists(st.integers(-(2**40), 2**40), unique=True, max_size=60),
    queries=st.lists(st.integers(-(2**40), 2**40), max_size=60),
)
def test_column_index_matches_dict(keys, queries):
    index = ColumnIndex(np.array(keys, dtype=np.int64))
    reference = {k: i for i, k in enumerate(keys)}
    out = index.positions(np.array(queries, dtype=np.int64))
    assert out.tolist() == [reference.get(q, -1) for q in queries]


# -- MultiColumnIndex ----------------------------------------------------------


def test_multi_column_index_basic():
    idx = MultiColumnIndex(
        np.array([1, 1, 2], dtype=np.int64),
        np.array([10, 11, 10], dtype=np.uint64),
    )
    out = idx.positions(
        np.array([1, 2, 2, 1], dtype=np.int64),
        np.array([11, 10, 11, 12], dtype=np.uint64),
    )
    assert out.tolist() == [1, 2, -1, -1]


def test_multi_column_index_rejects_duplicates():
    with pytest.raises(ValueError):
        MultiColumnIndex(
            np.array([1, 1], dtype=np.int64), np.array([7, 7], dtype=np.int64)
        )


def test_multi_column_index_column_count_mismatch():
    idx = MultiColumnIndex(np.array([1], dtype=np.int64), np.array([2], dtype=np.int64))
    with pytest.raises(ValueError):
        idx.positions(np.array([1], dtype=np.int64))


def test_multi_column_index_empty():
    idx = MultiColumnIndex(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    out = idx.positions(np.array([1], dtype=np.int64), np.array([2], dtype=np.int64))
    assert out.tolist() == [-1]


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_multi_column_index_matches_dict(data):
    n_cols = data.draw(st.integers(1, 3))
    keys = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, 40) for _ in range(n_cols)]),
            unique=True,
            max_size=50,
        )
    )
    queries = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, 45) for _ in range(n_cols)]), max_size=50
        )
    )
    cols = [
        np.array([k[c] for k in keys], dtype=np.int64) for c in range(n_cols)
    ]
    index = MultiColumnIndex(*cols)
    reference = {k: i for i, k in enumerate(keys)}
    qcols = [
        np.array([q[c] for q in queries], dtype=np.int64) for c in range(n_cols)
    ]
    out = index.positions(*qcols)
    assert out.tolist() == [reference.get(q, -1) for q in queries]


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 6)), max_size=20))
def test_expand_ranges_concatenates_aranges(ranges):
    starts = np.array([s for s, _ in ranges], dtype=np.int64)
    counts = np.array([c for _, c in ranges], dtype=np.int64)
    expected = [v for s, c in ranges for v in range(s, s + c)]
    assert expand_ranges(starts, counts).tolist() == expected
