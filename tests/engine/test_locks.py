"""Units for the concurrency primitives behind the session layer."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import AtomicCounter, LockManager, RWLock
from repro.storage import UDIShard, active_udi_shard, udi_shard_scope
from tests.conftest import build_mini_db


# ----------------------------------------------------------------------
# AtomicCounter
# ----------------------------------------------------------------------
def test_atomic_counter_unique_monotone_under_threads():
    counter = AtomicCounter()
    drawn = []
    lock = threading.Lock()

    def worker():
        local = [counter.next() for _ in range(500)]
        with lock:
            drawn.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 4000
    assert len(set(drawn)) == 4000
    assert sorted(drawn) == list(range(1, 4001))


def test_atomic_counter_add():
    counter = AtomicCounter(initial=10)
    assert counter.add(5) == 15
    assert counter.value == 15


# ----------------------------------------------------------------------
# RWLock
# ----------------------------------------------------------------------
def test_rwlock_readers_share():
    lock = RWLock()
    barrier = threading.Barrier(4, timeout=5)
    inside = []

    def reader():
        with lock.read_locked():
            barrier.wait()  # all four readers inside together, or timeout
            inside.append(1)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(inside) == 4


def test_rwlock_writer_excludes_everyone():
    lock = RWLock()
    value = {"n": 0}

    def writer():
        for _ in range(200):
            with lock.write_locked():
                # Deliberately non-atomic update: only mutual exclusion
                # keeps the final count exact.
                n = value["n"]
                time.sleep(0)
                value["n"] = n + 1

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert value["n"] == 800


def test_rwlock_writer_preference_blocks_new_readers():
    lock = RWLock()
    order = []
    lock.acquire_read()  # initial reader holds the lock

    writer_started = threading.Event()

    def writer():
        writer_started.set()
        with lock.write_locked():
            order.append("writer")

    def late_reader():
        with lock.read_locked():
            order.append("reader")

    w = threading.Thread(target=writer)
    w.start()
    writer_started.wait(timeout=5)
    time.sleep(0.05)  # let the writer reach its wait loop
    r = threading.Thread(target=late_reader)
    r.start()
    time.sleep(0.05)
    # Neither may enter while the initial reader holds the lock, and the
    # late reader must queue behind the waiting writer.
    assert order == []
    lock.release_read()
    w.join(timeout=5)
    r.join(timeout=5)
    assert order == ["writer", "reader"]


def test_rwlock_read_then_write_sequential_reuse():
    lock = RWLock()
    with lock.read_locked():
        pass
    with lock.write_locked():
        pass
    with lock.read_locked():
        pass


# ----------------------------------------------------------------------
# UDI shards
# ----------------------------------------------------------------------
def test_udi_shard_defers_until_flush():
    db = build_mini_db(n_owners=20, n_cars=40, seed=3)
    car = db.table("car")
    before = car.udi_total
    shard = UDIShard()
    with udi_shard_scope(shard):
        assert active_udi_shard() is shard
        car.delete_rows([0, 1])
        # The mutation is parked in the shard, not on the table.
        assert car.udi_total == before
        assert len(shard) == 1
    assert active_udi_shard() is None
    shard.flush()
    assert car.udi_total == before + 2
    assert len(shard) == 0


def test_udi_shard_scope_restores_previous():
    outer, inner = UDIShard(), UDIShard()
    with udi_shard_scope(outer):
        with udi_shard_scope(inner):
            assert active_udi_shard() is inner
        assert active_udi_shard() is outer
    assert active_udi_shard() is None


def test_mutation_without_shard_applies_directly():
    db = build_mini_db(n_owners=20, n_cars=40, seed=3)
    owner = db.table("owner")
    before = owner.udi_total
    owner.delete_rows([0])
    assert owner.udi_total == before + 1


# ----------------------------------------------------------------------
# LockManager
# ----------------------------------------------------------------------
def test_lockmanager_table_lock_identity_case_insensitive():
    manager = LockManager()
    assert manager.table_lock("Car") is manager.table_lock("car")
    assert manager.table_lock("car") is not manager.table_lock("owner")


def test_lockmanager_disjoint_table_writers_overlap():
    """Writers on four different tables must all be inside their scopes
    at the same time — the point of per-table granularity."""
    manager = LockManager()
    tables = ["car", "owner", "demographics", "accidents"]
    barrier = threading.Barrier(len(tables), timeout=5.0)
    broken = []

    def worker(name):
        with manager.write_tables((name,)):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                broken.append(name)

    threads = [
        threading.Thread(target=worker, args=(name,)) for name in tables
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert broken == []


def test_lockmanager_same_table_writers_exclude():
    """Unsynchronized read-modify-write under the same table's write
    scope must not lose updates."""
    manager = LockManager()
    state = {"value": 0}

    def bump():
        for _ in range(20):
            with manager.write_tables(("car",)):
                value = state["value"]
                time.sleep(0.0002)
                state["value"] = value + 1

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert state["value"] == 80


def test_lockmanager_exclusive_excludes_table_scopes():
    """Database-exclusive mode blocks per-table writers until release."""
    manager = LockManager()
    order = []
    entered = threading.Event()
    release = threading.Event()

    def exclusive():
        with manager.exclusive():
            entered.set()
            release.wait(timeout=5)
            order.append("exclusive")

    def writer():
        assert entered.wait(timeout=5)
        with manager.write_tables(("car",)):
            order.append("writer")

    t_excl = threading.Thread(target=exclusive)
    t_writer = threading.Thread(target=writer)
    t_excl.start()
    t_writer.start()
    assert entered.wait(timeout=5)
    time.sleep(0.05)
    assert order == []  # the writer is parked behind the exclusive scope
    release.set()
    t_excl.join(timeout=10)
    t_writer.join(timeout=10)
    assert order == ["exclusive", "writer"]


def test_lockmanager_read_tables_none_falls_back_to_exclusive():
    """An unresolvable table set must take the database write lock, so
    even a plain table reader waits for it."""
    manager = LockManager()
    order = []
    entered = threading.Event()
    release = threading.Event()

    def fallback_reader():
        with manager.read_tables(None):
            entered.set()
            release.wait(timeout=5)
            order.append("fallback")

    def table_reader():
        assert entered.wait(timeout=5)
        with manager.read_tables(("car",)):
            order.append("reader")

    t_fb = threading.Thread(target=fallback_reader)
    t_rd = threading.Thread(target=table_reader)
    t_fb.start()
    t_rd.start()
    assert entered.wait(timeout=5)
    time.sleep(0.05)
    assert order == []
    release.set()
    t_fb.join(timeout=10)
    t_rd.join(timeout=10)
    assert order == ["fallback", "reader"]


def test_lockmanager_readers_share_tables_with_disjoint_writer():
    """Readers of one table overlap each other and a writer on another
    table, all under the shared database intent lock."""
    manager = LockManager()
    barrier = threading.Barrier(3, timeout=5.0)
    broken = []

    def reader():
        with manager.read_tables(("car", "owner")):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                broken.append("reader")

    def writer():
        with manager.write_tables(("accidents",)):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                broken.append("writer")

    threads = [
        threading.Thread(target=reader),
        threading.Thread(target=reader),
        threading.Thread(target=writer),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert broken == []


def test_lockmanager_multi_table_ordering_stress():
    """Randomized overlapping multi-table write scopes: sorted-order
    acquisition must drain without deadlock and without lost updates."""
    import random

    manager = LockManager()
    tables = ["car", "owner", "demographics", "accidents"]
    counts = {name: 0 for name in tables}
    rng = random.Random(7)
    batches = [
        [
            tuple(rng.sample(tables, rng.randint(1, 3)))
            for _ in range(40)
        ]
        for _ in range(6)
    ]

    def worker(batch):
        for names in batch:
            with manager.write_tables(names):
                for name in names:
                    counts[name] = counts[name] + 1

    threads = [
        threading.Thread(target=worker, args=(batch,)) for batch in batches
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "deadlocked"
    expected = {name: 0 for name in tables}
    for batch in batches:
        for names in batch:
            for name in names:
                expected[name] += 1
    assert counts == expected
