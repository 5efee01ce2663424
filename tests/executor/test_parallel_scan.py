"""Process-parallel scan execution: differential and lifecycle tests.

The core assertion everywhere: sharding a scan across worker processes
is purely an execution strategy — results, final table state and
collected statistics are byte-identical to the sequential engine.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.catalog import SystemCatalog
from repro.catalog.runstats import run_runstats
from repro.engine import Engine, EngineConfig
from repro.executor import run_reference
from repro.executor.parallel import ParallelScanManager
from repro.predicates import LocalPredicate, PredOp, group_mask
from repro.sql import build_query_graph, parse_select
from tests.conftest import build_mini_db
from tests.harness.differential import (
    MODES,
    run_differential,
    stats_fingerprint,
)

# Seeded mixed workload: interleaved scans, joins, aggregates and DML on
# both tables. This is also the CI ``scan_workers=4`` smoke workload.
MIXED_WORKLOAD = [
    "SELECT id, price FROM car WHERE price > 20000 AND year >= 2000",
    "SELECT make, model, COUNT(*) FROM car GROUP BY make, model",
    "SELECT id FROM car WHERE model IN ('Camry', 'Civic', 'F150')",
    "SELECT o.name, c.id FROM car c, owner o "
    "WHERE c.ownerid = o.id AND c.make = 'Honda'",
    "UPDATE car SET price = price * 1.05 WHERE year > 2001",
    "SELECT AVG(price) FROM car WHERE make = 'Ford'",
    "SELECT id, year FROM car WHERE year BETWEEN 1998 AND 2004 ORDER BY id",
    "DELETE FROM car WHERE price < 4000",
    "SELECT COUNT(*) FROM car WHERE price <= 30000",
    "UPDATE owner SET salary = salary + 100 WHERE city = 'Ottawa'",
    "SELECT o.city, COUNT(*) FROM owner o, car c "
    "WHERE c.ownerid = o.id GROUP BY o.city",
    "INSERT INTO car (id, ownerid, make, model, year, price) "
    "VALUES (9001, 3, 'Toyota', 'Camry', 2006, 31000.0)",
    "SELECT id, make FROM car WHERE make = 'Toyota'",
    "SELECT id FROM owner WHERE salary BETWEEN 3000 AND 9000",
    "DELETE FROM owner WHERE id > 9000",
    "SELECT COUNT(*) FROM owner",
]


def _build_db():
    return build_mini_db(n_owners=200, n_cars=600, seed=7)


def _base_config():
    return EngineConfig.with_jits(s_max=0.4, sample_size=150)


def _parallel_engine(
    engine_factory, scan_workers: int = 4, threshold_rows: int = 64
) -> Engine:
    config = _base_config()
    config.scan_workers = scan_workers
    engine = engine_factory(_build_db(), config)
    engine.parallel.threshold_rows = threshold_rows
    return engine


def test_differential_mixed_workload_across_all_modes():
    """sequential / threaded / process engines agree statement-by-
    statement and end in byte-identical state (the CI smoke check)."""
    engines = run_differential(
        MIXED_WORKLOAD, _build_db, _base_config, modes=MODES
    )
    try:
        par = engines["process"].stats_snapshot()["parallel"]
        assert par["parallel_calls"] > 0, "process mode never went parallel"
        assert par["fallbacks"] == 0
        assert par["process_path"] == "enabled"
    finally:
        for engine in engines.values():
            engine.shutdown()


def test_parallel_selects_match_reference(engine_factory):
    engine = _parallel_engine(engine_factory)
    for sql in [s for s in MIXED_WORKLOAD if s.startswith("SELECT")]:
        result = engine.execute(sql)
        block = build_query_graph(parse_select(sql), engine.database)
        assert sorted(result.rows) == sorted(
            run_reference(block, engine.database)
        ), sql
    assert engine.stats_snapshot()["parallel"]["parallel_calls"] > 0


def test_parallel_dml_targets_same_rows(engine_factory):
    par = _parallel_engine(engine_factory)
    seq = engine_factory(_build_db(), _base_config())
    for sql in MIXED_WORKLOAD:
        r_par, r_seq = par.execute(sql), seq.execute(sql)
        if r_par.rows is None:
            assert r_par.affected_rows == r_seq.affected_rows, sql
    for name in par.database.table_names():
        t_par, t_seq = par.database.table(name), seq.database.table(name)
        assert t_par.row_count == t_seq.row_count, name
        assert t_par.fetch_rows(
            None, t_par.schema.column_names()
        ) == t_seq.fetch_rows(None, t_seq.schema.column_names()), name


def test_export_reused_until_epoch_changes(engine_factory):
    """Read-only scans reuse one export; DML bumps the table epoch and
    forces exactly one re-export on the next scan."""
    engine = _parallel_engine(engine_factory)
    query = "SELECT id FROM car WHERE price > 20000"
    engine.execute(query)
    exports_after_first = engine.parallel.registry.exports
    engine.execute(query)
    engine.execute(query)
    assert engine.parallel.registry.exports == exports_after_first
    engine.execute("UPDATE car SET price = price + 1 WHERE year > 2003")
    engine.execute(query)
    assert engine.parallel.registry.exports > exports_after_first


def test_drop_create_same_epoch_workers_see_new_data(engine_factory):
    """DROP + CREATE under the same name restarts the epoch counter, so
    both table generations can reach the same epoch number; workers must
    attach the new table's segments (new column generations, new names),
    not serve the dropped table's cached arrays."""
    engine = _parallel_engine(engine_factory, scan_workers=2)

    def build(value: float):
        engine.execute("CREATE TABLE gen (id INT, v FLOAT)")
        table = engine.database.table("gen")
        n = 200
        table.insert_columns(
            {
                "id": np.arange(n, dtype=np.int64),
                "v": np.full(n, value),
            }
        )
        return table

    query = "SELECT COUNT(*) FROM gen WHERE v >= 2.0"
    first = build(1.0)
    assert engine.execute(query).rows[0][0] == 0  # warm worker caches
    engine.execute("DROP TABLE gen")
    second = build(5.0)
    assert second.version == first.version  # same epoch, new generation
    assert engine.execute(query).rows[0][0] == 200
    snap = engine.stats_snapshot()["parallel"]
    assert snap["parallel_calls"] >= 2
    assert snap["fallbacks"] == 0


def test_runstats_parallel_matches_sequential(engine_factory):
    """The sharded per-column RUNSTATS pass lands identical catalog
    statistics (histograms included) to the sequential pass."""
    engine = _parallel_engine(engine_factory)
    cat_par, cat_seq = SystemCatalog(), SystemCatalog()
    run_runstats(
        engine.database, cat_par, "car", now=5, parallel=engine.parallel
    )
    run_runstats(engine.database, cat_seq, "car", now=5)
    assert engine.stats_snapshot()["parallel"]["parallel_calls"] > 0
    table = engine.database.table("car")
    for column in table.schema.column_names():
        s_par = cat_par.column_stats("car", column)
        s_seq = cat_seq.column_stats("car", column)
        assert s_par.n_distinct == s_seq.n_distinct, column
        assert s_par.min_value == s_seq.min_value, column
        assert s_par.max_value == s_seq.max_value, column
        assert s_par.row_count == s_seq.row_count, column
        assert s_par.frequent_values == s_seq.frequent_values, column
        assert repr(s_par.histogram) == repr(s_seq.histogram), column


def test_engine_runstats_entry_point_uses_pool(engine_factory):
    engine = _parallel_engine(engine_factory)
    engine.collect_general_statistics()
    snap = engine.stats_snapshot()
    assert snap["parallel"]["parallel_calls"] > 0
    for name in engine.database.table_names():
        stats = engine.catalog.table_stats(name)
        assert stats is not None
        assert stats.cardinality == float(
            engine.database.table(name).row_count
        )


def test_jits_collection_stats_identical(engine_factory):
    """Fragment and scan feedback from the pool leaves JITS state
    (archive, history, residual store) identical to the sequential
    engine's."""
    par = _parallel_engine(engine_factory)
    seq = engine_factory(_build_db(), _base_config())
    for sql in [s for s in MIXED_WORKLOAD if s.startswith("SELECT")] * 2:
        par.execute(sql)
        seq.execute(sql)
    assert stats_fingerprint(par, full=True) == stats_fingerprint(
        seq, full=True
    )
    assert par.jits.total_collections > 0


def test_shutdown_unlinks_all_segments():
    from repro.storage.shm import list_segments

    before = set(list_segments())
    db = _build_db()
    config = _base_config()
    config.scan_workers = 2
    engine = Engine(db, config)
    engine.parallel.threshold_rows = 64
    engine.execute("SELECT id FROM car WHERE price > 10000")
    engine.execute("SELECT id FROM owner WHERE salary > 2000")
    assert set(list_segments()) - before, "scans should have exported"
    engine.shutdown()
    assert set(list_segments()) - before == set()
    engine.shutdown()  # idempotent


def test_below_threshold_stays_inline(engine_factory):
    engine = _parallel_engine(engine_factory, threshold_rows=10_000)
    engine.execute("SELECT id FROM car WHERE price > 20000")
    snap = engine.stats_snapshot()["parallel"]
    assert snap["parallel_calls"] == 0
    assert snap["segments_exported"] == 0


_CAR_PREDICATES = [
    LocalPredicate("car", "price", PredOp.GT, (20000.0,)),
    LocalPredicate("car", "year", PredOp.GE, (2000,)),
]


def test_workers_zero_runs_kernels_inline():
    """A pool-less manager runs the same kernels in-process over a single
    shard: identical rows, counted as an inline call."""
    table = _build_db().table("car")
    manager = ParallelScanManager(workers=0, threshold_rows=64)
    try:
        rows = manager.scan_rows(table, _CAR_PREDICATES)
        np.testing.assert_array_equal(
            rows, np.flatnonzero(group_mask(table, _CAR_PREDICATES))
        )
        stats = manager.stats()
        assert stats["inline_calls"] == 1
        assert stats["parallel_calls"] == 0
    finally:
        manager.close()


def test_inline_call_counter_survives_concurrent_sessions():
    """Session threads dispatch concurrently; every inline dispatch must
    be counted (``+=`` on shared state is not atomic by language rule, so
    the counters are bumped under a lock)."""
    table = _build_db().table("car")
    manager = ParallelScanManager(workers=0, threshold_rows=64)
    n_threads, per_thread = 4, 300
    start = threading.Barrier(n_threads)

    def dispatch():
        start.wait(timeout=10)
        for _ in range(per_thread):
            manager.scan_rows(table, _CAR_PREDICATES)

    threads = [threading.Thread(target=dispatch) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        manager.close()
    assert not any(t.is_alive() for t in threads)
    assert manager.stats()["inline_calls"] == n_threads * per_thread


def test_two_registries_in_one_process_do_not_collide():
    """Two engines in one interpreter export segments with distinct
    names (process-global sequence), so neither falls back."""
    from repro.storage.shm import ShmRegistry

    table = _build_db().table("car")
    r1, r2 = ShmRegistry(), ShmRegistry()
    try:
        names1 = {s.shm_name for s in r1.export(table).segments}
        names2 = {s.shm_name for s in r2.export(table).segments}
        assert names1 and names2 and not (names1 & names2)
    finally:
        r1.close()
        r2.close()


def test_pool_shm_round_trip_property():
    """Raw pool + registry round-trip: sharded kernel results through
    worker processes equal the same kernels run on the live arrays."""
    from repro.executor.parallel import WorkerPool
    from repro.executor.parallel.kernels import scan_shard
    from repro.predicates.physical import encode_predicates
    from repro.storage.shm import ShmRegistry

    db = _build_db()
    table = db.table("car")
    predicates = [
        LocalPredicate("car", "price", PredOp.GT, (15000.0,)),
        LocalPredicate("car", "year", PredOp.GE, (2000,)),
    ]
    phys = encode_predicates(table, predicates)
    assert phys is not None
    arrays = {
        name.lower(): table.column_data(name)
        for name in table.schema.column_names()
    }
    n = table.row_count
    bounds = [(i * n // 4, (i + 1) * n // 4) for i in range(4)]
    want = np.concatenate(
        [scan_shard(arrays, phys, s, t) for s, t in bounds]
    )

    registry = ShmRegistry()
    pool = WorkerPool(workers=2)
    try:
        payload = registry.export(table)
        tasks = [
            ("scan", payload, dict(preds=phys, start=s, stop=t))
            for s, t in bounds
        ]
        got = np.concatenate(pool.run_tasks(tasks))
    finally:
        pool.close()
        registry.close()
    np.testing.assert_array_equal(got, want)
