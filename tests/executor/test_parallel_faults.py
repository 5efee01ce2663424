"""Fault injection for the process-parallel scan path.

Contract: worker death is survived (respawn + retry, same answer);
shared-memory failures degrade to in-process execution with a warning —
never a wrong answer, never an orphaned /dev/shm segment (the autouse
``no_shm_leaks`` fixture checks every test here).
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.executor.parallel import PoolUnavailable, WorkerPool
from repro.storage.shm import ColumnSegment, ShmError, TablePayload
from tests.conftest import build_mini_db


def _engine(engine_factory) -> Engine:
    config = EngineConfig.with_jits(s_max=0.4, sample_size=150)
    config.scan_workers = 2
    engine = engine_factory(build_mini_db(200, 600, seed=7), config)
    engine.parallel.threshold_rows = 64
    return engine


QUERY = "SELECT id, price FROM car WHERE year >= 2000 AND make = 'Toyota'"


def test_sigkill_mid_task_respawns_and_retries():
    """A worker killed while its task sleeps is detected, respawned, and
    the task re-runs to completion on the fresh worker."""
    pool = WorkerPool(workers=2, task_timeout=30.0)
    pool.start()
    victim = pool.pids()[0]
    tasks = [("sleep", None, dict(duration=0.4)) for _ in range(4)]

    def kill_soon():
        time.sleep(0.15)  # land inside the first sleep round
        os.kill(victim, signal.SIGKILL)

    killer = threading.Thread(target=kill_soon)
    killer.start()
    try:
        results = pool.run_tasks(tasks)
    finally:
        killer.join()
        pool.close()
    assert results == [0.4] * 4
    assert pool.respawns >= 1
    assert victim not in pool.pids()


def test_torn_result_message_recycles_worker_not_caller():
    """A worker SIGKILLed mid-``put`` leaves a half-written message on
    its result pipe; the deserialization failure must recycle the worker
    (fresh channels, resend) instead of failing the caller's query."""
    pool = WorkerPool(workers=1, task_timeout=30.0)
    pool.start()
    victim = pool.pids()[0]
    # Inject undecodable bytes directly on the result channel, exactly
    # what a torn pickle from a killed worker looks like to the parent.
    pool._result_qs[0]._writer.send_bytes(b"\x80\x04 torn pickle")
    try:
        assert pool.run_tasks(
            [("sleep", None, dict(duration=0.01))]
        ) == [0.01]
    finally:
        pool.close()
    assert pool.respawns >= 1
    assert victim not in pool.pids()


def test_sigkill_idle_worker_engine_query_still_correct(engine_factory):
    """Killing a pooled worker between statements: the next scan detects
    the death at dispatch, respawns, and returns the right rows."""
    par = _engine(engine_factory)
    seq = engine_factory(
        build_mini_db(200, 600, seed=7),
        EngineConfig.with_jits(s_max=0.4, sample_size=150),
    )
    want = sorted(seq.execute(QUERY).rows)
    assert sorted(par.execute(QUERY).rows) == want  # pool warm
    os.kill(par.parallel.pool.pids()[0], signal.SIGKILL)
    time.sleep(0.05)
    assert sorted(par.execute(QUERY).rows) == want
    snap = par.stats_snapshot()["parallel"]
    assert snap["worker_respawns"] >= 1
    assert snap["fallbacks"] == 0
    assert snap["process_path"] == "enabled"


def test_attach_failure_falls_back_with_warning(engine_factory):
    """Workers failing to attach (bogus segment names) must not poison
    the answer: the engine warns once and recomputes in-process."""
    par = _engine(engine_factory)
    seq = engine_factory(
        build_mini_db(200, 600, seed=7),
        EngineConfig.with_jits(s_max=0.4, sample_size=150),
    )
    want = sorted(seq.execute(QUERY).rows)

    table = par.database.table("car")
    bogus = TablePayload(
        table="car",
        n_rows=table.row_count,
        segments=tuple(
            ColumnSegment(
                column=c.lower(),
                shm_name=f"rjits-no-such-{i}",
                dtype="<f8",
                length=table.row_count,
            )
            for i, c in enumerate(table.schema.column_names())
        ),
    )
    original = par.parallel.registry.export
    par.parallel.registry.export = lambda t: (
        bogus if t.name.lower() == "car" else original(t)
    )
    try:
        with pytest.warns(RuntimeWarning, match="fell back to in-process"):
            got = par.execute(QUERY)
        assert sorted(got.rows) == want
        assert par.stats_snapshot()["parallel"]["fallbacks"] >= 1
    finally:
        par.parallel.registry.export = original


def test_export_failure_falls_back_with_warning(engine_factory):
    par = _engine(engine_factory)

    def broken_export(table):
        raise ShmError("simulated /dev/shm exhaustion")

    par.parallel.registry.export = broken_export
    with pytest.warns(RuntimeWarning, match="fell back to in-process"):
        result = par.execute(QUERY)
    assert result.rows is not None
    snap = par.stats_snapshot()["parallel"]
    assert snap["fallbacks"] >= 1
    assert snap["inline_calls"] >= 1
    # ShmError is transient, not sticky: the pool stays available.
    assert snap["process_path"] == "enabled"


def test_dead_pool_disables_process_path_stickily(engine_factory):
    """A pool that cannot make progress (closed underneath the manager)
    triggers exactly one warned fallback, then the engine runs inline
    without re-probing the dead pool."""
    par = _engine(engine_factory)
    par.execute(QUERY)  # warm
    par.parallel.pool.close()
    with pytest.warns(RuntimeWarning, match="fell back to in-process"):
        first = par.execute(QUERY)
    assert first.rows is not None
    snap = par.stats_snapshot()["parallel"]
    assert snap["process_path"] == "disabled"
    fallbacks = snap["fallbacks"]
    # Subsequent statements go straight inline: correct, no new warning.
    import warnings as warnings_mod

    with warnings_mod.catch_warnings():
        warnings_mod.simplefilter("error", RuntimeWarning)
        second = par.execute(QUERY)
    assert second.rows is not None
    assert par.stats_snapshot()["parallel"]["fallbacks"] == fallbacks


def test_worker_kernel_error_is_not_fatal():
    """A kernel raising inside a worker surfaces as WorkerError and the
    pool keeps serving subsequent tasks on live workers."""
    from repro.executor.parallel import WorkerError

    pool = WorkerPool(workers=2)
    try:
        with pytest.raises(WorkerError):
            pool.run_tasks([("no-such-kernel", None, {})])
        assert pool.run_tasks(
            [("sleep", None, dict(duration=0.01))]
        ) == [0.01]
    finally:
        pool.close()


def test_sigkill_mid_scan_of_old_snapshot_reattaches_same_epoch():
    """SIGKILL a worker while a batch over an *old* pinned generation is
    in flight: the respawned worker must re-attach that generation's
    segments and the scan must still see the old generation's values."""
    from repro.storage.shm import ShmRegistry

    db = build_mini_db(60, 200, seed=11)
    table = db.live_table("car")
    pinned = table.pin_current()
    old_max = float(np.max(pinned.column_data("price")))
    # Move the live table ahead so the pinned generation is historical.
    table.update_rows(
        np.arange(table.row_count), {"price": old_max * 10.0}
    )
    assert table.version > pinned.version

    registry = ShmRegistry()
    pool = WorkerPool(workers=2, task_timeout=30.0)
    pool.start()
    try:
        payload = registry.export(pinned)
        victim = pool.pids()[0]
        stats_kwargs = dict(
            column="price",
            rows=None,
            integral=False,
            scale=1.0,
            n_buckets=8,
            n_frequent=4,
        )
        tasks = [("sleep", None, dict(duration=0.4)) for _ in range(3)] + [
            ("column_stats", payload, stats_kwargs)
        ]

        def kill_soon():
            time.sleep(0.15)  # land inside the first sleep round
            os.kill(victim, signal.SIGKILL)

        killer = threading.Thread(target=kill_soon)
        killer.start()
        try:
            results = pool.run_tasks(tasks)
        finally:
            killer.join()
        assert pool.respawns >= 1
        # The retried stats task attached the pinned generation's
        # segments: it reports the OLD maximum, not the live table's.
        assert results[-1]["max_value"] == pytest.approx(old_max)
        assert float(np.max(table.column_data("price"))) > old_max
        # The same segments, no re-export happened.
        assert registry.export(pinned) == payload
        assert registry.exports == len(pinned.schema.column_names())
    finally:
        pool.close()
        registry.close()
        pinned.release()


def test_as_of_scan_after_worker_death_reuses_epoch_export(engine_factory):
    """Engine-level: an AS OF statement pinned to a historical generation
    survives a worker SIGKILL — respawn, re-attach, same rows, and no
    extra export of the old generation."""
    par = _engine(engine_factory)
    seq = engine_factory(
        build_mini_db(200, 600, seed=7),
        EngineConfig.with_jits(s_max=0.4, sample_size=150),
    )
    want_old = sorted(seq.execute(QUERY).rows)
    assert sorted(par.execute(QUERY).rows) == want_old  # warm export
    stamp = par.database.live_table("car").snapshot_stamp
    par.execute("UPDATE car SET price = price + 100000 WHERE year >= 1990")
    as_of = f"{QUERY} AS OF {stamp}"
    assert sorted(par.execute(as_of).rows) == want_old
    exports_before = par.parallel.registry.exports
    os.kill(par.parallel.pool.pids()[0], signal.SIGKILL)
    time.sleep(0.05)
    assert sorted(par.execute(as_of).rows) == want_old
    snap = par.stats_snapshot()["parallel"]
    assert snap["worker_respawns"] >= 1
    assert snap["segments_exported"] == exports_before
    assert snap["fallbacks"] == 0


def test_drop_create_pinned_read_never_serves_new_tables_arrays():
    """DROP + CREATE while a reader stays pinned to the old generation:
    even when the re-created table's epoch numbering collides with the
    pinned epoch, the pinned reader's export is its own generation's
    segments, never the new table's (segments belong to column
    generations, not to a table name and epoch)."""
    from repro.storage.shm import ShmRegistry, WorkerAttachments

    db = build_mini_db(60, 200, seed=13)
    old = db.live_table("car")
    pinned = old.pin_current()
    old_prices = np.array(pinned.column_data("price"), copy=True)

    registry = ShmRegistry()
    attachments = WorkerAttachments()
    try:
        old_payload = registry.export(pinned)
        schema = old.schema
        db.drop_table("car")

        new = db.create_table(schema)
        new.insert_rows(
            [
                {
                    "id": i,
                    "ownerid": 0,
                    "make": "Lada",
                    "model": "2101",
                    "year": 1970,
                    "price": -1.0,
                }
                for i in range(8)
            ]
        )
        # Epoch numbering restarted: drive the new table to the pinned
        # generation's epoch so a (name, epoch) keyed cache would alias.
        while new.version < pinned.version:
            new.update_rows(np.array([0]), {"price": -1.0})
        assert new.version == pinned.version

        new_payload = registry.export(new)
        old_names = {seg.shm_name for seg in old_payload.segments}
        assert old_names.isdisjoint(
            seg.shm_name for seg in new_payload.segments
        )
        np.testing.assert_array_equal(
            attachments.arrays(new_payload)["price"], -1.0
        )
        # The pinned reader exporting *after* the new table gets its own
        # generation back, not the colliding-epoch new export.
        again = registry.export(pinned)
        assert again == old_payload
        assert again.n_rows == pinned.row_count != new.row_count
        arrays = attachments.arrays(again)
        np.testing.assert_array_equal(arrays["price"], old_prices)
    finally:
        attachments.close()
        registry.close()
        pinned.release()


def test_respawned_pool_reuses_shared_memory(engine_factory):
    """After a crash + respawn the fresh worker re-attaches to the same
    exported epoch (no extra export)."""
    par = _engine(engine_factory)
    par.execute(QUERY)
    exports = par.parallel.registry.exports
    os.kill(par.parallel.pool.pids()[-1], signal.SIGKILL)
    time.sleep(0.05)
    par.execute(QUERY)
    assert par.parallel.registry.exports == exports
    assert par.parallel.pool.respawns >= 1
