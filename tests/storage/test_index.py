"""Hash and sorted indexes: correctness, laziness, invalidation."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import DataType, make_schema
from repro.storage import Database, Table
from repro.storage.index import HashIndex, SortedIndex


def make_table(values) -> Table:
    t = Table(make_schema("t", [("k", DataType.INT), ("v", DataType.FLOAT)]))
    t.insert_columns(
        {"k": np.asarray(values, dtype=np.int64), "v": np.zeros(len(values))}
    )
    return t


def test_hash_lookup_matches_scan():
    t = make_table([5, 3, 5, 7, 3, 5])
    idx = HashIndex(t, "k")
    assert np.array_equal(np.sort(idx.lookup(5)), np.array([0, 2, 5]))
    assert np.array_equal(np.sort(idx.lookup(3)), np.array([1, 4]))
    assert len(idx.lookup(99)) == 0


def test_hash_lookup_float_value_on_int_column():
    t = make_table([1, 2, 3])
    idx = HashIndex(t, "k")
    assert np.array_equal(idx.lookup(2.0), np.array([1]))
    assert len(idx.lookup(2.5)) == 0


def test_hash_n_distinct():
    t = make_table([1, 1, 2, 3, 3, 3])
    assert HashIndex(t, "k").n_distinct() == 3


def test_hash_sparse_keys_use_dict_fallback():
    # Key span far larger than table -> dict path.
    t = make_table([10**12, 5, 10**12])
    idx = HashIndex(t, "k")
    assert not idx._dense
    assert np.array_equal(np.sort(idx.lookup(10**12)), np.array([0, 2]))


def test_hash_dense_path_for_compact_keys():
    t = make_table(list(range(100)))
    idx = HashIndex(t, "k")
    idx._ensure()
    assert idx._dense
    assert np.array_equal(idx.lookup(42), np.array([42]))


def test_hash_rebuilds_after_key_mutation():
    t = make_table([1, 2, 3])
    idx = HashIndex(t, "k")
    assert np.array_equal(idx.lookup(2), np.array([1]))
    t.update_rows(np.array([1]), {"k": 9})
    assert len(idx.lookup(2)) == 0
    assert np.array_equal(idx.lookup(9), np.array([1]))


def test_hash_not_invalidated_by_other_column_update():
    t = make_table([1, 2, 3])
    idx = HashIndex(t, "k")
    idx.lookup(1)
    built = idx._built_version
    t.update_rows(np.array([0]), {"v": 5.0})
    idx.lookup(1)
    assert idx._built_version == built  # no rebuild


def test_sorted_range_lookup():
    t = make_table([10, 40, 20, 30, 50])
    idx = SortedIndex(t, "k")
    rows = idx.range_lookup(20, 40)
    assert np.array_equal(rows, np.array([1, 2, 3]))


def test_sorted_exclusive_bounds():
    t = make_table([10, 20, 30])
    idx = SortedIndex(t, "k")
    assert np.array_equal(
        idx.range_lookup(10, 30, low_inclusive=False, high_inclusive=False),
        np.array([1]),
    )


def test_sorted_open_ended():
    t = make_table([5, 1, 9])
    idx = SortedIndex(t, "k")
    assert np.array_equal(idx.range_lookup(None, 5), np.array([0, 1]))
    assert np.array_equal(idx.range_lookup(5, None), np.array([0, 2]))


def test_sorted_empty_range():
    t = make_table([1, 2, 3])
    idx = SortedIndex(t, "k")
    assert len(idx.range_lookup(10, 20)) == 0


def test_index_set_creation_and_lookup(mini_db: Database):
    indexes = mini_db.indexes("car")
    assert indexes.hash_on("id") is not None  # PK auto-index
    assert indexes.hash_on("ownerid") is not None
    assert indexes.sorted_on("price") is not None
    assert indexes.hash_on("price") is None


@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=60),
    st.integers(min_value=-50, max_value=50),
)
def test_hash_lookup_property(values, key):
    t = make_table(values)
    idx = HashIndex(t, "k")
    expected = np.flatnonzero(np.asarray(values) == key)
    assert np.array_equal(np.sort(idx.lookup(key)), expected)


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=60),
    st.integers(min_value=-31, max_value=31),
    st.integers(min_value=-31, max_value=31),
)
def test_sorted_range_property(values, lo, hi):
    t = make_table(values)
    idx = SortedIndex(t, "k")
    arr = np.asarray(values)
    expected = np.flatnonzero((arr >= lo) & (arr <= hi))
    assert np.array_equal(idx.range_lookup(lo, hi), expected)


def loop_probe(values, keys):
    """The per-key loop ``HashIndex.probe`` replaces, over exact Python
    equality: for each key in order, every equal row in row order."""
    probe_idx, rows = [], []
    for i, key in enumerate(keys.tolist()):
        for row, value in enumerate(values):
            if value == key:
                probe_idx.append(i)
                rows.append(row)
    return probe_idx, rows


def float_table(values) -> Table:
    t = Table(make_schema("t", [("k", DataType.INT), ("v", DataType.FLOAT)]))
    t.insert_columns(
        {"k": np.zeros(len(values), dtype=np.int64), "v": np.asarray(values)}
    )
    return t


int_keys = st.integers(min_value=-12, max_value=12)
float_keys = st.one_of(
    int_keys.map(float),
    st.floats(min_value=-12, max_value=12),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -1.0]),
)


@given(
    st.lists(st.integers(min_value=-10, max_value=10), max_size=40),
    st.booleans(),
    st.one_of(
        st.lists(int_keys, max_size=30).map(
            lambda k: np.asarray(k, dtype=np.int64)
        ),
        st.lists(float_keys, max_size=30).map(
            lambda k: np.asarray(k, dtype=np.float64)
        ),
    ),
)
def test_hash_probe_matches_per_key_loop_int_column(values, sparse, keys):
    # Far outliers force the dict layout; otherwise the span is dense.
    dense = bool(values) and not sparse
    if sparse:
        values = values + [-(10**12), 10**12]
    idx = HashIndex(make_table(values), "k")
    idx._ensure()
    assert idx._dense == dense
    probe_idx, rows = idx.probe(keys)
    assert (probe_idx.tolist(), rows.tolist()) == loop_probe(values, keys)
    assert probe_idx.dtype == rows.dtype == np.int64


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-5, max_value=5).map(float),
            st.sampled_from([0.5, float("inf"), float("nan")]),
        ),
        max_size=40,
    ),
    st.lists(float_keys, max_size=30),
)
@example([float("inf"), 1.0, float("inf"), float("nan")], [float("inf"), 1.0])
def test_hash_probe_matches_per_key_loop_float_column(values, keys):
    keys = np.asarray(keys, dtype=np.float64)
    idx = HashIndex(float_table(values), "v")
    probe_idx, rows = idx.probe(keys)
    assert (probe_idx.tolist(), rows.tolist()) == loop_probe(values, keys)


def test_hash_probe_empty_and_unmatched_keys():
    idx = HashIndex(make_table([4, 2, 4]), "k")
    for keys in (np.empty(0, dtype=np.int64), np.array([-1, 9, 3])):
        probe_idx, rows = idx.probe(keys)
        assert len(probe_idx) == len(rows) == 0


def test_hash_probe_without_keys_leaves_a_stale_index_unbuilt():
    t = make_table([1, 2, 3])
    idx = HashIndex(t, "k")
    idx.lookup(1)
    built = idx._built_version
    t.update_rows(np.array([0]), {"k": 5})
    idx.probe(np.empty(0, dtype=np.int64))
    assert idx._built_version == built
    assert idx.lookup(5).tolist() == [0]


def test_hash_probe_non_finite_keys_on_dense_int_column():
    idx = HashIndex(make_table(list(range(100))), "k")
    keys = np.array([2.0, np.inf, 1.5, np.nan, -np.inf, 1e308, 7.0])
    probe_idx, rows = idx.probe(keys)
    assert idx._dense
    assert probe_idx.tolist() == [0, 6]
    assert rows.tolist() == [2, 7]


@pytest.mark.parametrize("key", [2**63, 2**64 - 1, 10**30])
def test_hash_lookup_int_beyond_int64_matches_nothing(key):
    # 2**64 - 1 wrapped to int64 would be -1, which the column holds.
    idx = HashIndex(make_table([-1, 2, 3]), "k")
    assert len(idx.lookup(key)) == 0
