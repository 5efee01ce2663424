"""Shared-memory segments live exactly as long as their column generation.

A segment is keyed on the immutable ``ColumnSnapshot`` it copies: an
UPDATE of one column re-exports that column only, the segments of a
trimmed or dropped generation are unlinked by the next export once its
last reference goes (no cyclic collection needed), and a worker holds
at most one payload's worth of attachments per table. The autouse
``no_shm_leaks`` fixture checks every test here for orphaned segments.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import numpy as np

from repro.engine import EngineConfig
from repro.storage.shm import ShmRegistry, WorkerAttachments, list_segments
from tests.conftest import build_mini_db

QUERY = "SELECT id, price FROM car WHERE year >= 2000 AND make = 'Toyota'"


def _engine(engine_factory):
    config = EngineConfig.with_jits(s_max=0.4, sample_size=150)
    config.scan_workers = 2
    engine = engine_factory(build_mini_db(200, 600, seed=7), config)
    engine.parallel.threshold_rows = 64
    return engine


@contextmanager
def _no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _column_generations(table) -> set:
    """Ids of the distinct column generations the table's retained
    (and pinned) generations hold."""
    return {
        id(column)
        for snap in table.snapshots()
        for column in snap.columns.values()
    }


def test_one_column_update_exports_one_segment(engine_factory):
    engine = _engine(engine_factory)
    engine.execute(QUERY)
    exports = engine.parallel.registry.exports
    live = set(list_segments())
    engine.execute("UPDATE car SET price = price + 1 WHERE year > 2003")
    engine.execute(QUERY)
    assert engine.parallel.registry.exports == exports + 1
    assert len(set(list_segments()) - live) == 1
    # The other five columns' segments are shared with the old generation.
    assert len(live - set(list_segments())) == 0


def test_live_segments_stay_within_retained_and_pinned_generations(
    engine_factory,
):
    engine = _engine(engine_factory)
    before = set(list_segments())
    car = engine.database.live_table("car")
    n_columns = len(car.schema.column_names())
    engine.execute(QUERY)
    pinned = car.pin_current()
    pinned_segments = set(list_segments()) - before
    rounds = [
        "UPDATE car SET price = price + 1 WHERE year > 2003",
        "INSERT INTO car (id, ownerid, make, model, year, price) "
        "VALUES ({id}, 3, 'Toyota', 'Camry', 2006, 31000.0)",
        "DELETE FROM car WHERE id = {id}",
    ]
    with _no_cyclic_gc():
        for i in range(3 * car.snapshot_retention):
            engine.execute(rounds[i % 3].format(id=9000 + i // 3))
            engine.execute(QUERY)
            live = set(list_segments()) - before
            generations = len(car.snapshots())
            assert generations <= car.snapshot_retention + 1  # + the pin
            assert len(live) <= generations * n_columns
            # No segment outlives every generation holding its column.
            assert len(live) <= len(_column_generations(car))
            assert pinned_segments <= live
        assert engine.parallel.registry.exports > (
            car.snapshot_retention + 1
        ) * n_columns
        pinned.release()
        del pinned
        engine.execute("UPDATE car SET price = price + 1 WHERE year > 2003")
        engine.execute(QUERY)
        # Unpinned and trimmed: its segments went with its last reference
        # (unlinked by the next export).
        assert not pinned_segments & set(list_segments())


def test_drop_table_unlinks_its_segments_without_the_cyclic_gc(
    engine_factory,
):
    engine = _engine(engine_factory)
    before = set(list_segments())
    engine.execute("SELECT id FROM owner WHERE salary > 2000")
    owner_segments = set(list_segments()) - before
    engine.execute(QUERY)
    engine.execute("UPDATE car SET price = price + 1 WHERE year > 2003")
    engine.execute(QUERY)
    car_segments = set(list_segments()) - before - owner_segments
    assert car_segments
    with _no_cyclic_gc():
        engine.execute("DROP TABLE car")
        engine.execute("SELECT id FROM owner WHERE salary > 2000")
        live = set(list_segments())
    assert not car_segments & live
    assert owner_segments <= live


def test_a_write_leaves_the_unlink_of_trimmed_segments_to_the_next_export(
    engine_factory,
):
    engine = _engine(engine_factory)
    car = engine.database.live_table("car")
    for _ in range(car.snapshot_retention):
        engine.execute("UPDATE car SET price = price + 1 WHERE year > 2003")
        engine.execute(QUERY)
    oldest = set(list_segments())
    # This write's publish trims the oldest generation, whose price
    # segment waits for the next export.
    engine.execute("UPDATE car SET price = price + 1 WHERE id = 1")
    assert set(list_segments()) == oldest
    engine.execute(QUERY)
    assert len(oldest - set(list_segments())) == 1


def test_registry_close_unlinks_segments_of_live_generations():
    db = build_mini_db(60, 200, seed=3)
    before = set(list_segments())
    registry = ShmRegistry()
    registry.export(db.live_table("car"))
    assert len(set(list_segments()) - before) == 6
    registry.close()
    registry.close()  # idempotent
    assert set(list_segments()) - before == set()


def test_worker_detaches_the_segments_a_payload_no_longer_lists():
    db = build_mini_db(60, 200, seed=5)
    car = db.live_table("car")
    registry = ShmRegistry()
    attachments = WorkerAttachments()
    try:
        first = registry.export(car)
        attachments.arrays(first)
        car.update_rows(np.arange(car.row_count), {"price": 1.5})
        second = registry.export(car)
        changed = {s.shm_name for s in first.segments} - {
            s.shm_name for s in second.segments
        }
        assert len(changed) == 1  # the price column only
        arrays = attachments.arrays(second)
        np.testing.assert_array_equal(arrays["price"], 1.5)
        held = set(attachments._attached)
        assert held == {s.shm_name for s in second.segments}
    finally:
        attachments.close()
        registry.close()
