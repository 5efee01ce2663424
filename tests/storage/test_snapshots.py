"""MVCC snapshot chain: chunk COW sharing, AS OF replay, pin/GC soundness.

Seeded property tests for the copy-on-write guarantees documented in
``repro.storage.snapshot``:

* untouched chunks are shared *by object identity* across generations
  (and an untouched column shares the whole ColumnSnapshot object);
* pinning AS OF any retained stamp reproduces exactly the state a
  sequential replay of the same mutations had at that point;
* the bounded retention window never drops a pinned generation, and an
  unpinned out-of-window generation really is freed (weakref dies under
  forced ``gc.collect()``).
"""

import gc
import operator
import pickle
import random
import weakref

import numpy as np
import pytest

from repro import DataType, make_schema
from repro.errors import StorageError
from repro.storage import Database, Table
from repro.storage.index import INDEX_KINDS, HashIndex
from repro.storage.table import UDIShard, udi_shard_scope
from tests.storage.values import assert_values_live_once, value_bytes


def make_table(chunk_rows=4, snapshot_retention=64) -> Table:
    return Table(
        make_schema(
            "emp",
            [
                ("id", DataType.INT),
                ("name", DataType.STRING),
                ("pay", DataType.FLOAT),
            ],
            primary_key="id",
        ),
        chunk_rows=chunk_rows,
        snapshot_retention=snapshot_retention,
    )


def fill(table: Table, n: int) -> None:
    table.insert_rows(
        [
            {"id": i, "name": f"n{i % 5}", "pay": float(i) * 1.5}
            for i in range(n)
        ]
    )


# ----------------------------------------------------------------------
# (a) chunk sharing by object identity
# ----------------------------------------------------------------------
def test_untouched_column_shares_whole_snapshot_object():
    t = make_table()
    fill(t, 16)
    before = t.current_snapshot
    t.update_rows(np.array([3]), {"pay": 999.0})
    after = t.current_snapshot
    assert after is not before
    assert after.version == before.version + 1
    # Only "pay" was touched: id/name carry the identical ColumnSnapshot.
    assert after.column("id") is before.column("id")
    assert after.column("name") is before.column("name")
    assert after.column("pay") is not before.column("pay")


def test_only_dirty_chunks_are_copied():
    t = make_table(chunk_rows=4)
    fill(t, 16)  # chunks 0..3
    before = t.current_snapshot
    t.update_rows(np.array([9]), {"pay": -1.0})  # chunk 2
    after = t.current_snapshot
    old = before.column("pay").chunks
    new = after.column("pay").chunks
    assert len(old) == len(new) == 4
    for i in range(4):
        if i == 2:
            assert new[i] is not old[i]
        else:
            assert new[i] is old[i]
    assert new[2][1] == -1.0
    assert not new[2].flags.writeable


def test_append_dirties_only_the_tail_chunk():
    t = make_table(chunk_rows=4)
    fill(t, 10)  # chunks: 4, 4, 2
    before = t.current_snapshot
    t.insert_rows([{"id": 10, "name": "x", "pay": 0.5}])
    after = t.current_snapshot
    old = before.column("id").chunks
    new = after.column("id").chunks
    assert new[0] is old[0] and new[1] is old[1]
    assert new[2] is not old[2]
    assert after.row_count == 11 and before.row_count == 10


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_chunk_sharing_property_random_dml(seed):
    """Across a random mutation history, every pair of adjacent
    generations shares exactly the chunks the statement did not touch."""
    rng = random.Random(seed)
    t = make_table(chunk_rows=8, snapshot_retention=256)
    fill(t, 64)
    next_id = 64
    for _ in range(30):
        before = t.current_snapshot
        kind = rng.choice(["update", "insert", "delete"])
        if kind == "update":
            row = rng.randrange(t.row_count)
            t.update_rows(np.array([row]), {"pay": rng.random() * 100})
            touched_from = (row // t.chunk_rows) * t.chunk_rows
        elif kind == "insert":
            t.insert_rows(
                [{"id": next_id, "name": "z", "pay": 1.0}]
            )
            next_id += 1
            touched_from = before.row_count
        else:
            row = rng.randrange(t.row_count)
            t.delete_rows(np.array([row]))
            touched_from = row  # compaction shifts everything after
        after = t.current_snapshot
        first_dirty = touched_from // t.chunk_rows
        shared = after.column("pay").chunks[:first_dirty]
        for i, chunk in enumerate(shared):
            assert chunk is before.column("pay").chunks[i]


# ----------------------------------------------------------------------
# (b) AS OF every retained stamp == sequential replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 101, 777])
def test_pin_as_of_reproduces_replayed_state(seed):
    rng = random.Random(seed)
    t = make_table(chunk_rows=8, snapshot_retention=256)
    fill(t, 40)
    cols = ["id", "name", "pay"]
    history = {t.snapshot_stamp: t.fetch_rows(None, cols)}
    next_id = 1000
    stamp = 100
    for _ in range(25):
        kind = rng.choice(["update", "insert", "delete"])
        shard = UDIShard()
        with udi_shard_scope(shard):
            if kind == "update":
                rows = np.array(
                    sorted(rng.sample(range(t.row_count), k=min(3, t.row_count)))
                )
                t.update_rows(rows, {"pay": round(rng.random() * 50, 2)})
            elif kind == "insert":
                t.insert_rows(
                    [
                        {"id": next_id + j, "name": f"m{j}", "pay": 2.0}
                        for j in range(rng.randrange(1, 4))
                    ]
                )
                next_id += 4
            else:
                t.delete_rows(np.array([rng.randrange(t.row_count)]))
        shard.flush()
        stamp += rng.randrange(1, 5)
        t.publish_snapshot(stamp=stamp)
        history[stamp] = t.fetch_rows(None, cols)

    # Retained: the empty bootstrap generation, the filled one, + 25 DML.
    assert len(t.snapshots()) == len(history) + 1
    for at_stamp, expected in history.items():
        snap = t.pin_as_of(at_stamp)
        try:
            assert snap.stamp == at_stamp
            assert snap.fetch_rows(None, cols) == expected
        finally:
            snap.release()
    # Between-stamp clocks resolve to the newest earlier generation.
    stamps = sorted(history)
    mid = stamps[len(stamps) // 2]
    snap = t.pin_as_of(mid + 0)  # exact
    snap.release()
    snap = t.pin_as_of(stamps[-1] + 10_000)  # far future -> current
    try:
        assert snap is t.current_snapshot
    finally:
        snap.release()
    with pytest.raises(StorageError):
        t.pin_as_of(stamps[0] - 1)


# ----------------------------------------------------------------------
# (c) GC / retention soundness
# ----------------------------------------------------------------------
def test_retention_never_drops_pinned_generation():
    t = make_table(chunk_rows=4, snapshot_retention=2)
    fill(t, 8)
    pinned = t.pin_current()
    want = pinned.fetch_rows(None, ["id", "pay"])
    for i in range(10):
        t.update_rows(np.array([0]), {"pay": float(i)})
        gc.collect()
        assert pinned in t.snapshots(), "pinned generation was trimmed"
        assert pinned.fetch_rows(None, ["id", "pay"]) == want
    # The pinned survivor occupies a slot of the bounded window.
    assert len(t.snapshots()) == t.snapshot_retention
    pinned.release()
    t.update_rows(np.array([0]), {"pay": -5.0})
    assert pinned not in t.snapshots()
    assert len(t.snapshots()) == t.snapshot_retention


def test_unpinned_generation_is_actually_freed():
    t = make_table(chunk_rows=4, snapshot_retention=1)
    fill(t, 8)
    t.update_rows(np.array([1]), {"pay": 1.0})
    old = t.current_snapshot
    ref = weakref.ref(old)
    # Mutate twice: old falls out of the window with zero pins. Touch
    # every chunk so no shared arrays keep the generation's data alive.
    t.update_rows(np.arange(8), {"pay": 2.0})
    t.update_rows(np.arange(8), {"pay": 3.0})
    assert old not in t.snapshots()
    del old
    gc.collect()
    assert ref() is None, "unpinned out-of-window generation leaked"


def test_trimmed_generations_die_without_the_cyclic_gc():
    """Retention is bounded by reference counting alone: a generation
    that was read through its indexes and then trimmed is freed at once,
    not whenever a gen-2 collection breaks a back-reference cycle —
    until then its concat and index arrays would stay resident."""
    t = make_table(chunk_rows=4, snapshot_retention=3)
    t.create_index("hash", "id")
    t.create_index("sorted", "pay")
    t.create_index("hash", "name")
    fill(t, 16)
    tables, columns = [], []
    gc.collect()
    gc.disable()
    try:
        for i in range(10):
            # "id" is never written: its ColumnSnapshot (and the index
            # built on it) is shared by every generation.
            t.update_rows(np.arange(16), {"pay": float(i), "name": f"r{i}"})
            snap = t.pin_current()
            assert list(snap.hash_on("id").lookup(3)) == [3]
            assert len(snap.sorted_on("pay").range_lookup(i, i)) == 16
            # The optimizer's existence check: asked, never built.
            assert ("hash", "name") in snap.indexes
            assert snap.column("name")._indexes == {}
            tables.append(weakref.ref(snap))
            columns.extend(weakref.ref(c) for c in snap.columns.values())
            snap.release()
            del snap
        retained = t.snapshots()
        assert len(retained) == t.snapshot_retention
        reachable = {id(c) for s in retained for c in s.columns.values()}
        assert [r() is not None for r in tables] == [False] * 7 + [True] * 3
        leaked = [
            c for c in (r() for r in columns)
            if c is not None and id(c) not in reachable
        ]
        assert leaked == [], f"{len(leaked)} trimmed ColumnSnapshots alive"
    finally:
        gc.enable()


def test_a_generation_serves_its_own_tables_declared_indexes():
    """An index declared after the pin serves the pinned generation; a
    generation pinned across DROP TABLE + CREATE TABLE keeps its own
    table's set, not the new table's."""
    db = Database()
    db.create_table(make_table().schema)
    fill(db.table("emp"), 4)
    snap = db.live_table("emp").pin_current()
    assert snap.sorted_on("pay") is None
    db.create_sorted_index("emp", "pay")
    assert snap.sorted_on("pay").range_lookup(0.0, 1.5).tolist() == [0, 1]
    db.drop_table("emp")
    db.create_table(make_table().schema)
    db.create_hash_index("emp", "name")
    assert snap.indexes == {("hash", "id"), ("sorted", "pay")}
    assert snap.hash_on("name") is None
    assert list(snap.hash_on("id").lookup(2)) == [2]
    snap.release()


def test_key_update_makes_a_new_index_other_updates_share_it():
    t = make_table(chunk_rows=4)
    t.create_index("hash", "id")
    fill(t, 16)
    first = t.current_snapshot.hash_on("id")
    t.update_rows(np.array([5]), {"pay": -1.0})
    assert t.current_snapshot.hash_on("id") is first
    t.update_rows(np.array([5]), {"id": 99})
    moved = t.current_snapshot.hash_on("id")
    assert moved is not first
    assert list(moved.lookup(99)) == [5] and len(moved.lookup(5)) == 0
    assert list(first.lookup(5)) == [5]


def test_double_pin_needs_double_release():
    t = make_table(snapshot_retention=1)
    fill(t, 4)
    a = t.pin_current()
    b = t.pin_current()
    assert a is b and a.pins == 2
    a.release()
    t.update_rows(np.array([0]), {"pay": 9.0})
    assert a in t.snapshots()  # still pinned once
    b.release()
    t.update_rows(np.array([0]), {"pay": 10.0})
    assert a not in t.snapshots()


# ----------------------------------------------------------------------
# (d) regression: version bumps only at publish, never mid-statement
# ----------------------------------------------------------------------
def test_version_bump_deferred_to_publish_under_shard():
    t = make_table()
    fill(t, 8)
    v0 = t.version
    snap0 = t.current_snapshot
    shard = UDIShard()
    with udi_shard_scope(shard):
        t.update_rows(np.array([0]), {"pay": 7.0})
        t.update_rows(np.array([1]), {"pay": 8.0})
        # Mid-statement: no publish, no version bump, no UDI fold yet.
        assert t.version == v0
        assert t.current_snapshot is snap0
        assert t.udi_total == snap0.udi_total
    assert shard.pending_tables() == [t]
    shard.flush()
    published = t.publish_snapshot(stamp=42)
    assert t.version == v0 + 1
    assert published.version == v0 + 1
    assert published.stamp == 42
    assert published.udi_total == snap0.udi_total + 2
    # Publishing again without mutations is a no-op.
    assert t.publish_snapshot(stamp=99) is published


def test_direct_api_publishes_per_mutation():
    t = make_table()
    fill(t, 4)
    v = t.version
    t.update_rows(np.array([2]), {"pay": 0.25})
    assert t.version == v + 1
    assert t.current_snapshot.fetch_rows(None, ["pay"])[2] == (0.25,)


# ----------------------------------------------------------------------
# (e) body and last chunk
# ----------------------------------------------------------------------
def test_a_tail_write_shares_the_body():
    """INSERT, UPDATE and DELETE inside the last chunk hand the body (every
    chunk but the last) on to the next generation; an INSERT that starts a
    new chunk and a write to a body chunk start a new body."""
    t = make_table(chunk_rows=4)
    fill(t, 10)  # chunks: 4, 4, 2
    body = t.current_snapshot.column("id").body
    assert body is not None and body.size == 8
    t.insert_rows([{"id": 10, "name": "x", "pay": 0.5}])
    t.update_rows(np.array([9]), {"id": 99})
    t.delete_rows(np.array([8]))
    assert t.current_snapshot.column("id").body is body
    assert t.current_snapshot.column("id").tail.tolist() == [99, 10]
    t.insert_rows([{"id": i, "name": "x", "pay": 0.5} for i in (11, 12, 13)])
    crossed = t.current_snapshot.column("id").body
    assert crossed is not body and crossed.size == 12
    t.update_rows(np.array([0]), {"id": -1})
    assert t.current_snapshot.column("id").body is not crossed


def test_tail_writes_build_the_body_index_once(monkeypatch):
    built = []

    class CountingHashIndex(HashIndex):
        def __init__(self, data, head=None):
            built.append(len(data))
            super().__init__(data, head)

    monkeypatch.setitem(INDEX_KINDS, "hash", CountingHashIndex)
    t = make_table(chunk_rows=4)
    t.create_index("hash", "id")
    fill(t, 10)
    for i in range(5):
        t.update_rows(np.array([9]), {"id": 100 + i})
        assert t.current_snapshot.hash_on("id").lookup(100 + i).tolist() == [9]
        assert t.current_snapshot.hash_on("id").lookup(3).tolist() == [3]
    # The body's 8 rows once; each generation's 2-row last chunk.
    assert built == [8] + [2] * 5


def test_a_pinned_generation_keeps_its_own_body_across_a_body_write():
    t = make_table(chunk_rows=4)
    t.create_index("sorted", "pay")
    fill(t, 10)
    pinned = t.pin_current()
    body = pinned.column("pay").body
    t.update_rows(np.array([1]), {"pay": -5.0})
    assert t.current_snapshot.column("pay").body is not body
    assert pinned.column("pay").body is body
    assert pinned.sorted_on("pay").range_lookup(None, 0.0).tolist() == [0]
    assert t.current_snapshot.sorted_on("pay").range_lookup(
        None, 0.0
    ).tolist() == [0, 1]
    assert pinned.column("pay").take(np.array([9, 1])).tolist() == [13.5, 1.5]
    pinned.release()


def test_a_dropped_tables_body_dies_without_the_cyclic_gc():
    db = Database(chunk_rows=4)
    db.create_table(make_table().schema)
    db.create_hash_index("emp", "id")
    fill(db.table("emp"), 10)
    gc.collect()
    gc.disable()
    try:
        snap = db.live_table("emp").current_snapshot
        assert snap.hash_on("id").lookup(2).tolist() == [2]
        assert snap.column("pay").take(np.array([9, 1])).tolist() == [13.5, 1.5]
        # The chunks are the only arrays of values, and they die too.
        for name, column in snap.columns.items():
            assert_values_live_once(db.live_table("emp").column(name), column)
        bodies = [weakref.ref(c.body) for c in snap.columns.values()]
        chunks = [weakref.ref(a) for c in snap.columns.values() for a in c.chunks]
        del snap, column
        db.drop_table("emp")
        assert [b() for b in bodies] == [None] * len(bodies)
        assert [a() for a in chunks] == [None] * len(chunks)
    finally:
        gc.enable()


def test_pickling_keeps_chunks_and_shared_bodies_not_derived_arrays():
    t = make_table(chunk_rows=4)
    t.create_index("hash", "id")
    fill(t, 10)
    first = t.current_snapshot.column("id")
    t.insert_rows([{"id": 10, "name": "x", "pay": 0.5}])
    second = t.current_snapshot
    assert second.hash_on("id").lookup(10).tolist() == [10]
    assert len(second.column("id").data) == 11
    old, new = pickle.loads(pickle.dumps((first, second.column("id"))))
    assert new.body is old.body and new.body.size == 8
    assert new._indexes == {} and new.body._derived == {}
    # The shared body's 8 values once, then each generation's last chunk.
    assert value_bytes(old, new) == (8 + 2 + 3) * 8
    assert new.index("hash").lookup(10).tolist() == [10]
    assert new.take(np.arange(11)).tolist() == list(range(11))


def test_a_pickled_column_shares_its_chunks_with_its_generation():
    """A column pickles as its last generation; after a round trip its
    chunks are that generation's arrays, and a write copies only the
    chunk it writes to. A column with unpublished writes does not pickle,
    and trying publishes nothing."""
    t = make_table(chunk_rows=4)
    fill(t, 10)
    pay = t.column("pay")
    published = pay.snapshot()
    pay.set_physical(np.array([9]), np.array([-1.0]))
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(pay)
    assert pay._last_snapshot is published and pay._private == {2}
    pay.snapshot()
    col = pickle.loads(pickle.dumps(pay))
    generation = col.snapshot()  # clean: the unpickled generation itself
    assert col.snapshot() is generation
    assert generation.take(np.array([9, 0])).tolist() == [-1.0, 0.0]
    assert_values_live_once(col, generation)
    col.set_physical(np.array([0]), np.array([7.0]))
    after = col.snapshot()
    assert generation.take(np.array([0])).tolist() == [0.0]
    assert after.take(np.array([0])).tolist() == [7.0]
    assert after.chunks[0] is not generation.chunks[0]
    assert all(map(operator.is_, after.chunks[1:], generation.chunks[1:]))
    assert_values_live_once(col, after)
