"""Hash and sorted indexes: correctness, and one index per column
generation (built on first use, shared while the column is untouched)."""

import threading
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import DataType, Engine, EngineConfig, make_schema
from repro.engine.config import StatsMode
from repro.storage import Database, Table
from repro.storage import index as index_module
from repro.storage.index import HashIndex, SortedIndex


def make_table(values) -> Table:
    t = Table(make_schema("t", [("k", DataType.INT), ("v", DataType.FLOAT)]))
    t.insert_columns(
        {"k": np.asarray(values, dtype=np.int64), "v": np.zeros(len(values))}
    )
    t.create_index("hash", "k")
    return t


def ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def test_hash_lookup_matches_scan():
    idx = HashIndex(ints([5, 3, 5, 7, 3, 5]))
    assert np.array_equal(np.sort(idx.lookup(5)), np.array([0, 2, 5]))
    assert np.array_equal(np.sort(idx.lookup(3)), np.array([1, 4]))
    assert len(idx.lookup(99)) == 0


def test_hash_lookup_float_value_on_int_column():
    idx = HashIndex(ints([1, 2, 3]))
    assert np.array_equal(idx.lookup(2.0), np.array([1]))
    assert len(idx.lookup(2.5)) == 0


def test_hash_sparse_keys_use_sorted_layout():
    # Key span far larger than table -> the sorted layout.
    idx = HashIndex(ints([10**12, 5, 10**12]))
    assert not idx._dense
    assert np.array_equal(np.sort(idx.lookup(10**12)), np.array([0, 2]))


def test_hash_dense_path_for_compact_keys():
    idx = HashIndex(ints(range(100)))
    assert idx._dense
    assert np.array_equal(idx.lookup(42), np.array([42]))


def test_hash_rebuilds_after_key_mutation():
    """A key mutation publishes a new generation of the column, and its
    index sees the change; the pinned old generation keeps its own."""
    t = make_table([1, 2, 3])
    before = t.current_snapshot
    assert before.hash_on("k").lookup(2).tolist() == [1]
    t.update_rows(np.array([1]), {"k": 9})
    after = t.current_snapshot
    assert after.column("k") is not before.column("k")
    assert len(after.hash_on("k").lookup(2)) == 0
    assert after.hash_on("k").lookup(9).tolist() == [1]
    assert before.hash_on("k").lookup(2).tolist() == [1]


def test_hash_not_invalidated_by_other_column_update():
    t = make_table([1, 2, 3])
    built = t.current_snapshot.hash_on("k")
    t.update_rows(np.array([0]), {"v": 5.0})
    # The untouched column is the same object, index and all: no rebuild.
    assert t.current_snapshot.hash_on("k") is built


def test_sorted_range_lookup():
    idx = SortedIndex(ints([10, 40, 20, 30, 50]))
    rows = idx.range_lookup(20, 40)
    assert np.array_equal(rows, np.array([1, 2, 3]))


def test_sorted_exclusive_bounds():
    idx = SortedIndex(ints([10, 20, 30]))
    assert np.array_equal(
        idx.range_lookup(10, 30, low_inclusive=False, high_inclusive=False),
        np.array([1]),
    )


def test_sorted_open_ended():
    idx = SortedIndex(ints([5, 1, 9]))
    assert np.array_equal(idx.range_lookup(None, 5), np.array([0, 1]))
    assert np.array_equal(idx.range_lookup(5, None), np.array([0, 2]))


def test_sorted_empty_range():
    idx = SortedIndex(ints([1, 2, 3]))
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
    idx = HashIndex(ints(values))
    expected = np.flatnonzero(np.asarray(values) == key)
    assert np.array_equal(np.sort(idx.lookup(key)), expected)


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=60),
    st.integers(min_value=-31, max_value=31),
    st.integers(min_value=-31, max_value=31),
)
def test_sorted_range_property(values, lo, hi):
    idx = SortedIndex(ints(values))
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
    # Far outliers force the sorted layout; otherwise the span is dense.
    dense = bool(values) and not sparse
    if sparse:
        values = values + [-(10**12), 10**12]
    idx = HashIndex(ints(values))
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
    idx = HashIndex(np.asarray(values, dtype=np.float64))
    probe_idx, rows = idx.probe(keys)
    assert (probe_idx.tolist(), rows.tolist()) == loop_probe(values, keys)


def test_hash_probe_empty_and_unmatched_keys():
    idx = HashIndex(ints([4, 2, 4]))
    for keys in (np.empty(0, dtype=np.int64), np.array([-1, 9, 3])):
        probe_idx, rows = idx.probe(keys)
        assert len(probe_idx) == len(rows) == 0


def test_hash_probe_without_keys_leaves_a_stale_index_unbuilt():
    """Planning and an index nested-loop join with no outer keys build
    nothing: the generation a write left without an index keeps none
    until a statement really probes it."""
    db = Database()
    db.create_table(make_schema("a", [("id", DataType.INT), ("k", DataType.INT)]))
    db.create_table(make_schema("b", [("id", DataType.INT), ("k", DataType.INT)]))
    db.table("a").insert_columns({"id": ints(range(4)), "k": ints(range(4))})
    db.table("b").insert_columns({"id": ints(range(500)), "k": ints(range(500))})
    db.create_hash_index("b", "k")
    engine = Engine(db, EngineConfig.traditional())
    engine.apply_stats_mode(StatsMode.GENERAL)
    probing = "SELECT a.id, b.id FROM a, b WHERE a.k = b.k AND a.id < 2"
    keyless = "SELECT a.id, b.id FROM a, b WHERE a.k = b.k AND a.id < 0"
    assert "IndexNLJoin" in engine.explain(probing)
    assert "IndexNLJoin" in engine.explain(keyless)
    assert engine.execute(probing).rows == [(0, 0), (1, 1)]
    assert "hash" in db.table("b").current_snapshot.column("k")._indexes
    engine.execute("UPDATE b SET k = k + 1 WHERE id = 0")
    fresh = db.table("b").current_snapshot.column("k")
    assert "IndexNLJoin" in engine.explain(probing)
    assert engine.execute(keyless).rows == []
    assert fresh._indexes == {}
    assert db.indexes("b").hash_on("k").lookup(1).tolist() == [0, 1]


def test_concurrent_readers_build_a_fresh_generations_index_once(monkeypatch):
    builds = []

    class SlowHashIndex(HashIndex):
        def __init__(self, data):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # both readers arrive while the build runs
            super().__init__(data)

    monkeypatch.setitem(index_module.INDEX_KINDS, "hash", SlowHashIndex)
    t = make_table(list(range(1000)))
    t.update_rows(np.array([0]), {"k": 7})  # a fresh, never-read generation
    snap = t.pin_current()
    start = threading.Barrier(2)
    found = [None, None]

    def read(slot):
        start.wait()
        found[slot] = snap.hash_on("k")

    readers = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join()
    snap.release()
    assert len(builds) == 1
    assert found[0] is found[1]
    assert found[0].lookup(7).tolist() == [0, 7]


def test_hash_probe_non_finite_keys_on_dense_int_column():
    idx = HashIndex(ints(range(100)))
    keys = np.array([2.0, np.inf, 1.5, np.nan, -np.inf, 1e308, 7.0])
    probe_idx, rows = idx.probe(keys)
    assert idx._dense
    assert probe_idx.tolist() == [0, 6]
    assert rows.tolist() == [2, 7]


@pytest.mark.parametrize("key", [2**63, 2**64 - 1, 10**30])
def test_hash_lookup_int_beyond_int64_matches_nothing(key):
    # 2**64 - 1 wrapped to int64 would be -1, which the column holds.
    idx = HashIndex(ints([-1, 2, 3]))
    assert len(idx.lookup(key)) == 0


range_floats = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),
    st.sampled_from([0.5, -0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
)


@given(
    st.lists(range_floats, min_size=1, max_size=60),
    st.one_of(st.none(), range_floats),
    st.one_of(st.none(), range_floats),
    st.booleans(),
    st.booleans(),
)
@example([float("nan"), 1.0], 0.0, None, False, True)
@example([float("inf"), float("nan"), 2.0], None, None, True, True)
@example([-0.0, 0.0, -0.0], 0.0, -0.0, True, True)
def test_sorted_range_property_floats(values, lo, hi, lo_inc, hi_inc):
    """Float range scans agree with a mask over the column: duplicates,
    signed zeros and infinities are ordinary values, NaN lies in no
    range and a NaN bound matches nothing."""
    arr = np.asarray(values, dtype=np.float64)
    mask = ~np.isnan(arr)
    if lo is not None:
        mask &= (arr >= lo) if lo_inc else (arr > lo)
    if hi is not None:
        mask &= (arr <= hi) if hi_inc else (arr < hi)
    idx = SortedIndex(arr)
    rows = idx.range_lookup(lo, hi, low_inclusive=lo_inc, high_inclusive=hi_inc)
    assert rows.tolist() == np.flatnonzero(mask).tolist()
