"""Concurrency stress tests: many client sessions on one engine.

The contract under test (see the README's concurrency model):

* concurrent SELECTs return exactly the rows a sequential reference
  execution returns — row *content* is plan-independent, so comparisons
  sort rows unless the query carries a total ORDER BY;
* DML serialized between concurrent SELECT phases leaves the database,
  UDI counters and catalog in the same state a fully sequential engine
  reaches;
* per-client streams are order-stable: each session observes its own
  statements in order, and rerunning the same concurrent workload
  produces the same per-client row sets.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro import Engine, EngineConfig
from repro.executor import run_reference
from repro.sql import build_query_graph, parse_select
from repro.storage import DEFAULT_CHUNK_ROWS
from tests.conftest import build_mini_db
from tests.harness.differential import (
    assert_same_final_state,
    run_torture_schedule,
)

WORKERS = 6

SELECTS = [
    "SELECT id, make FROM car WHERE make = 'Toyota'",
    "SELECT id, price FROM car WHERE price > 20000 AND year >= 2000",
    "SELECT make, model, COUNT(*) FROM car GROUP BY make, model",
    "SELECT o.name, c.id FROM car c, owner o WHERE c.ownerid = o.id "
    "AND c.make = 'Honda'",
    "SELECT id FROM car WHERE model IN ('Camry', 'Civic', 'F150')",
    "SELECT id, year FROM car WHERE year BETWEEN 1998 AND 2004 "
    "ORDER BY id",
    "SELECT AVG(price) FROM car WHERE make = 'Ford'",
    "SELECT o.city, COUNT(*) FROM owner o, car c "
    "WHERE c.ownerid = o.id GROUP BY o.city",
]


def fastpath_engine(seed: int = 13) -> Engine:
    db = build_mini_db(n_owners=80, n_cars=240, seed=seed)
    config = EngineConfig.with_jits(
        s_max=0.3, sample_size=120, migration_interval=5,
        plan_cache_enabled=True,
    )
    return Engine(db, config)


def reference_rows(engine: Engine, sql: str):
    block = build_query_graph(parse_select(sql), engine.database)
    return sorted(run_reference(block, engine.database))


def test_concurrent_selects_match_reference():
    engine = fastpath_engine()
    statements = SELECTS * 6  # repeats exercise the shared plan cache
    results = engine.execute_many(statements, workers=WORKERS)
    assert len(results) == len(statements)
    for sql, result in zip(statements, results):
        assert sorted(result.rows) == reference_rows(engine, sql), sql


def test_execute_many_results_align_with_input_order():
    engine = fastpath_engine()
    statements = [
        f"SELECT COUNT(*) FROM car WHERE year >= {year}"
        for year in range(1995, 2008)
    ]
    results = engine.execute_many(statements, workers=4)
    sequential = [
        engine.execute(sql).rows for sql in statements
    ]
    assert [r.rows for r in results] == sequential


def test_mixed_dml_phases_match_sequential_engine():
    """Concurrent SELECT phases with serialized DML between them end in
    the same state a fully sequential engine reaches."""
    concurrent = fastpath_engine(seed=21)
    sequential = fastpath_engine(seed=21)

    dml_phases = [
        "UPDATE car SET price = price * 1.1 WHERE year > 2000",
        "DELETE FROM car WHERE price < 4000",
        "INSERT INTO car (id, ownerid, make, model, year, price) "
        "VALUES (9001, 3, 'Toyota', 'Camry', 2006, 31000.0)",
        "UPDATE owner SET salary = salary + 100 WHERE city = 'Ottawa'",
    ]

    for dml in dml_phases:
        results = concurrent.execute_many(SELECTS, workers=WORKERS)
        for sql, result in zip(SELECTS, results):
            assert sorted(result.rows) == reference_rows(concurrent, sql), sql
        for sql in SELECTS:
            sequential.execute(sql)

        r_con = concurrent.execute(dml)
        r_seq = sequential.execute(dml)
        assert r_con.affected_rows == r_seq.affected_rows, dml

    # Final data (content-hashed) and accounting state must agree exactly.
    assert_same_final_state(concurrent, sequential)
    # RUNSTATS (the write-locked catalog path) lands identical catalog
    # cardinalities because the data states are identical.
    concurrent.collect_general_statistics()
    sequential.collect_general_statistics()
    for name in concurrent.database.table_names():
        stats_con = concurrent.catalog.table_stats(name)
        stats_seq = sequential.catalog.table_stats(name)
        assert stats_con is not None and stats_seq is not None, name
        assert stats_con.cardinality == stats_seq.cardinality, name
        assert stats_con.cardinality == float(
            concurrent.database.table(name).row_count
        ), name
    # Same rows at the end, through both engines.
    final = "SELECT id, make, price FROM car ORDER BY id"
    assert (
        concurrent.execute(final).rows == sequential.execute(final).rows
    )


def test_streams_are_order_stable_and_deterministic():
    """Each client stream sees its own statements in order; rerunning the
    workload on a fresh engine reproduces every per-client row set."""
    streams = [
        ["SELECT COUNT(*) FROM car WHERE make = 'Toyota'"] + SELECTS[:4],
        SELECTS[2:6] + ["SELECT COUNT(*) FROM owner"],
        SELECTS[4:] + SELECTS[:2],
    ]

    def run_once():
        engine = fastpath_engine(seed=5)
        out = engine.execute_streams(streams, workers=len(streams))
        return engine, out

    engine_a, run_a = run_once()
    _, run_b = run_once()
    assert len(run_a) == len(streams)
    for stream, results_a, results_b in zip(streams, run_a, run_b):
        assert len(results_a) == len(stream)
        for sql, ra, rb in zip(stream, results_a, results_b):
            # Read-only workload: content must match the reference and be
            # reproducible across runs.
            want = reference_rows(engine_a, sql)
            assert sorted(ra.rows) == want, sql
            assert sorted(rb.rows) == want, sql


def test_sessions_count_their_own_statements():
    engine = fastpath_engine()
    s1, s2 = engine.session(), engine.session()
    s1.execute(SELECTS[0])
    s1.execute(SELECTS[1])
    s2.execute(SELECTS[2])
    assert s1.statements_executed == 2
    assert s2.statements_executed == 1
    assert engine.statements_executed == 3
    assert s1.session_id != s2.session_id


def test_cached_plan_execution_uses_private_nodes():
    """Two executions of one cached plan must not share actual_* slots."""
    engine = fastpath_engine()
    sql = SELECTS[0]
    first = engine.execute(sql)
    second = engine.execute(sql)
    assert second.jits_report is not None
    assert second.jits_report.plan_cache_hit
    assert first.plan is not None and second.plan is not None
    assert first.plan is not second.plan
    assert first.plan.actual_rows == second.plan.actual_rows
    # The archived (cached) copy stays un-annotated for the next client.
    template = repr(parse_select(sql))
    cached = engine.plan_cache._entries[template].optimized
    assert cached.root.actual_rows is None


def test_mixed_readers_and_writer_complete_without_deadlock():
    """A writer-preferring lock must drain a read-heavy mix cleanly."""
    engine = fastpath_engine()
    statements = SELECTS * 4 + ["DELETE FROM car WHERE price < 3000"]
    results = engine.execute_many(statements, workers=WORKERS)
    assert len(results) == len(statements)
    # The delete ran exclusively against a consistent table; afterwards
    # no row below the cutoff survives.
    after = engine.execute("SELECT COUNT(*) FROM car WHERE price < 3000")
    assert after.rows == [(0,)]


@pytest.mark.parametrize("workers", [1, 4])
def test_explain_concurrent_with_selects(workers):
    engine = fastpath_engine()
    done = []

    def explain_loop():
        for _ in range(5):
            text = engine.explain(SELECTS[1])
            assert "rows=" in text
        done.append(True)

    t = threading.Thread(target=explain_loop)
    t.start()
    engine.execute_many(SELECTS * 2, workers=workers)
    t.join(timeout=30)
    assert done == [True]


# ----------------------------------------------------------------------
# Per-table write locks: disjoint-table DML truly runs concurrently,
# and must land exactly the sequential outcome.
# ----------------------------------------------------------------------
CAR_DML = [
    "UPDATE car SET price = price * 1.02 WHERE year >= 2000",
    "UPDATE car SET price = price + 250 WHERE make = 'Toyota'",
    "DELETE FROM car WHERE price < 4200",
    "INSERT INTO car (id, ownerid, make, model, year, price) "
    "VALUES (9100, 5, 'Honda', 'Civic', 2005, 18500.0)",
    "UPDATE car SET year = year + 1 WHERE model = 'Civic'",
    "DELETE FROM car WHERE price > 90000",
]
OWNER_DML = [
    "UPDATE owner SET salary = salary + 100 WHERE city = 'Ottawa'",
    "UPDATE owner SET salary = salary * 1.01 WHERE salary > 5000",
    "UPDATE owner SET salary = salary - 50 WHERE city = 'Toronto'",
    "INSERT INTO owner (id, name, salary, city) "
    "VALUES (9200, 'owner_9200', 6500.0, 'Waterloo')",
    "UPDATE owner SET salary = salary + 1 WHERE name = 'owner_9200'",
]
def test_disjoint_table_dml_streams_match_sequential():
    """CAR-only and OWNER-only DML streams run under per-table write
    locks; the final data, UDI accounting, clock and RUNSTATS catalog
    must equal a fully sequential execution of the same streams."""
    concurrent = fastpath_engine(seed=31)
    sequential = fastpath_engine(seed=31)
    streams = [list(CAR_DML), list(OWNER_DML)]

    out = concurrent.execute_streams(streams, workers=2)
    seq_out = [[sequential.execute(sql) for sql in s] for s in streams]

    # Each table is touched by exactly one stream, so per-statement
    # affected-row counts are interleaving-independent.
    for got_stream, want_stream, stream in zip(out, seq_out, streams):
        for got, want, sql in zip(got_stream, want_stream, stream):
            assert got.affected_rows == want.affected_rows, sql

    assert_same_final_state(concurrent, sequential)

    # RUNSTATS (database-exclusive) lands identical catalog state.
    concurrent.collect_general_statistics()
    sequential.collect_general_statistics()
    for name in concurrent.database.table_names():
        stats_con = concurrent.catalog.table_stats(name)
        stats_seq = sequential.catalog.table_stats(name)
        assert stats_con is not None and stats_seq is not None, name
        assert stats_con.cardinality == stats_seq.cardinality, name


def test_multi_table_dml_with_migration_stress():
    """DML on both tables + SELECT streams + frequent migration ticks,
    all concurrent: must drain without deadlock and leave the sequential
    data state."""

    def build() -> Engine:
        db = build_mini_db(n_owners=80, n_cars=240, seed=31)
        config = EngineConfig.with_jits(
            s_max=0.3, sample_size=120, migration_interval=2,
            plan_cache_enabled=True,
        )
        return Engine(db, config)

    streams = [
        list(CAR_DML),
        list(OWNER_DML),
        list(SELECTS),
        list(reversed(SELECTS)),
    ]
    concurrent = build()
    holder = {}

    def run():
        holder["out"] = concurrent.execute_streams(streams, workers=4)

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive(), "concurrent workload deadlocked"
    assert [len(batch) for batch in holder["out"]] == [
        len(stream) for stream in streams
    ]

    sequential = build()
    for stream in streams:
        for sql in stream:
            sequential.execute(sql)
    assert_same_final_state(concurrent, sequential)
    # The JITS pipeline actually ran during the stress.
    assert concurrent.jits.total_collections > 0


# ----------------------------------------------------------------------
# Snapshot-isolation torture schedules: N writer threads hammer the
# tables with chunk-local DML while M reader threads SELECT (and run
# RUNSTATS) on pinned MVCC snapshots; every reader result is validated
# against a sequential replay at its pinned publish stamps.
# ----------------------------------------------------------------------
#: CI sets REPRO_TORTURE_SCHEDULES=200 for the stress sweep; the default
#: keeps local runs quick.
TORTURE_SCHEDULES = int(os.environ.get("REPRO_TORTURE_SCHEDULES", "8"))

TORTURE_READS = [
    "SELECT id, price FROM car WHERE price > 15000",
    "SELECT id, make FROM car WHERE make = 'Toyota'",
    "SELECT COUNT(*) FROM car",
    "SELECT make, COUNT(*) FROM car GROUP BY make",
    "SELECT id, year FROM car WHERE year BETWEEN 1998 AND 2004",
    "SELECT id, salary FROM owner WHERE salary > 5000",
    "SELECT city, COUNT(*) FROM owner GROUP BY city",
    "SELECT o.name, c.id FROM car c, owner o WHERE c.ownerid = o.id "
    "AND c.price > 25000",
]


def _torture_writer_streams(rng: random.Random, n_writers: int,
                            dml_per_writer: int, n_cars: int,
                            n_owners: int):
    """Seeded single-table, chunk-local DML streams (one per writer)."""
    streams = []
    fresh_id = 50_000
    for w in range(n_writers):
        stream = []
        for _ in range(dml_per_writer):
            kind = rng.randrange(5)
            if kind == 0:
                lo = rng.randrange(n_cars)
                stream.append(
                    "UPDATE car SET price = price + "
                    f"{rng.randrange(1, 500)} "
                    f"WHERE id BETWEEN {lo} AND {lo + rng.randrange(4, 24)}"
                )
            elif kind == 1:
                lo = rng.randrange(n_owners)
                stream.append(
                    "UPDATE owner SET salary = salary + "
                    f"{rng.randrange(1, 90)} "
                    f"WHERE id BETWEEN {lo} AND {lo + rng.randrange(2, 12)}"
                )
            elif kind == 2:
                lo = rng.randrange(n_cars)
                stream.append(
                    f"DELETE FROM car WHERE id BETWEEN {lo} AND {lo + 1}"
                )
            elif kind == 3:
                fresh_id += 1
                stream.append(
                    "INSERT INTO car (id, ownerid, make, model, year, price)"
                    f" VALUES ({fresh_id}, {rng.randrange(n_owners)}, "
                    f"'Toyota', 'Camry', {1995 + rng.randrange(12)}, "
                    f"{rng.randrange(5_000, 40_000)}.0)"
                )
            else:
                year = 1995 + rng.randrange(12)
                stream.append(
                    "UPDATE car SET year = year + 1 "
                    f"WHERE year = {year} AND id < {rng.randrange(40, n_cars)}"
                )
        streams.append(stream)
    return streams


def _run_torture(
    seed: int, scan_workers: int = 0, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> None:
    n_owners, n_cars = 80, 240
    rng = random.Random(seed)
    streams = _torture_writer_streams(
        rng, n_writers=3, dml_per_writer=5, n_cars=n_cars, n_owners=n_owners
    )

    def base_config() -> EngineConfig:
        config = EngineConfig.with_jits(s_max=0.3, sample_size=100)
        config.scan_workers = scan_workers
        return config

    report = run_torture_schedule(
        build_db=lambda: build_mini_db(
            n_owners=n_owners, n_cars=n_cars, seed=7, chunk_rows=chunk_rows
        ),
        base_config=base_config,
        writer_streams=streams,
        reader_pool=TORTURE_READS,
        seed=seed,
        n_readers=3,
        reads_per_reader=7,
        runstats_every=4,
    )
    assert report.dml_executed == sum(len(s) for s in streams)
    assert report.reads_validated > 0
    assert report.runstats_passes > 0
    assert (report.parallel_calls > 0) == bool(scan_workers)


@pytest.mark.parametrize("seed", range(TORTURE_SCHEDULES))
def test_snapshot_isolation_torture_threaded(seed):
    """Readers on pinned snapshots must equal sequential replay at their
    pinned publish stamps while writers run concurrently."""
    _run_torture(seed)


@pytest.mark.parametrize("seed", range(TORTURE_SCHEDULES))
def test_snapshot_isolation_torture_tiny_chunks(seed):
    """The threaded schedules on 16-row chunks: 240 cars span 15
    copy-on-write chunks, so a write copies some chunks of a column and
    shares the rest, and generations share some ColumnSnapshots (and
    their cached indexes) and not others."""
    _run_torture(seed, chunk_rows=16)


@pytest.mark.parametrize("seed", range(max(1, TORTURE_SCHEDULES // 4)))
def test_snapshot_isolation_torture_process(seed):
    """Same isolation contract with the process-parallel scan pool in
    the loop: reader shards dispatch against per-epoch shm exports."""
    _run_torture(seed + 1000, scan_workers=2)


def test_stats_snapshot_consistent_under_concurrent_writes():
    """stats_snapshot() must never return a torn view while another
    session keeps publishing new archive/history/catalog epochs."""
    engine = fastpath_engine(seed=3)
    stop = threading.Event()

    def writer():
        session = engine.session()
        i = 0
        while not stop.is_set():
            session.execute(SELECTS[i % len(SELECTS)])
            i += 1

    t = threading.Thread(target=writer)
    t.start()
    last_statements = -1
    try:
        for _ in range(30):
            snap = engine.stats_snapshot()
            jits = snap["jits"]
            # Internal consistency: every histogram carries at least one
            # cell, so a snapshot mixing two epochs' archive fields would
            # eventually break this invariant.
            if jits["archive_histograms"] > 0:
                assert jits["archive_cells"] >= jits["archive_histograms"]
            statements = snap["engine"]["statements_executed"]
            assert statements >= last_statements
            last_statements = statements
    finally:
        stop.set()
        t.join(timeout=60)
    assert not t.is_alive()
