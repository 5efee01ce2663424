"""Morsel-driven plan fragments: differential and fallback tests.

The invariant throughout: pushing whole plan fragments (fused
aggregates, shard-local distinct) onto the worker pool is purely an
execution strategy — results, statistics feedback and final state are
byte-identical to the sequential operators, and any pool failure
degrades to in-process execution, never to a wrong answer. Joins and
sorts are not fragments; the workload keeps them so their sharded
scans face the same checks.
"""

from __future__ import annotations

import warnings

import pytest

from repro.engine import Engine, EngineConfig
from repro.executor import run_reference
from repro.server import ReproServer, connect
from repro.sql import build_query_graph, parse_select
from tests.conftest import build_mini_db
from tests.harness.differential import run_differential

# Fragment-heavy workload: plain SeqScan leaves under Aggregate /
# Distinct roots, plus joins and sorts over sharded scans.
FRAGMENT_WORKLOAD = [
    # Hash joins over sharded scans
    "SELECT o.name, c.model FROM car c, owner o "
    "WHERE c.ownerid = o.id AND c.year >= 2000",
    "SELECT o.city, c.make FROM car c, owner o "
    "WHERE c.ownerid = o.id AND c.price > 15000",
    # Fused grouped aggregates (multi-key, HAVING, keyless extremes)
    "SELECT make, model, COUNT(*) FROM car GROUP BY make, model",
    "SELECT make, COUNT(*), AVG(year) FROM car "
    "GROUP BY make HAVING COUNT(*) >= 5",
    "SELECT city, COUNT(*), MIN(salary) FROM owner GROUP BY city",
    "SELECT MIN(year), MAX(price), COUNT(*) FROM car WHERE price > 10000",
    # Exact float SUM/AVG partials and string MIN/MAX over rank arrays
    "SELECT make, SUM(price), AVG(price) FROM car GROUP BY make",
    "SELECT city, MIN(name), MAX(name), SUM(salary) FROM owner GROUP BY city",
    "SELECT SUM(salary), AVG(salary), MIN(city), MAX(city) FROM owner",
    # Sorts over sharded scans (numeric DESC and dictionary strings)
    "SELECT year, price FROM car WHERE make = 'Toyota' ORDER BY year DESC",
    "SELECT model FROM car WHERE year >= 1998 ORDER BY model",
    # Shard-local distinct
    "SELECT DISTINCT make FROM car",
    "SELECT DISTINCT city FROM owner WHERE salary >= 3000",
]

FRAGMENT_KINDS = ("aggregate", "distinct")


def _build_db():
    return build_mini_db(n_owners=200, n_cars=600, seed=7)


def _base_config():
    return EngineConfig.with_jits(s_max=0.4, sample_size=150)


def _parallel_engine(engine_factory) -> Engine:
    config = _base_config()
    config.scan_workers = 4
    engine = engine_factory(_build_db(), config)
    engine.parallel.threshold_rows = 64
    return engine


def test_fragment_differential_sequential_vs_process():
    """Every fragment kind dispatches, and per-statement results, final
    state and the full statistics fingerprint (scan feedback included)
    match the sequential engine byte-for-byte."""
    engines = run_differential(
        FRAGMENT_WORKLOAD, _build_db, _base_config,
        modes=("sequential", "process"),
    )
    try:
        par = engines["process"].stats_snapshot()["parallel"]
        for kind in FRAGMENT_KINDS:
            assert par["fragments"].get(kind), f"no {kind} fragment ran"
        assert par["fallbacks"] == 0
        assert par["process_path"] == "enabled"
    finally:
        for engine in engines.values():
            engine.shutdown()


def test_fragment_results_match_reference(engine_factory):
    engine = _parallel_engine(engine_factory)
    for sql in FRAGMENT_WORKLOAD:
        result = engine.execute(sql)
        block = build_query_graph(parse_select(sql), engine.database)
        assert sorted(result.rows) == sorted(
            run_reference(block, engine.database)
        ), sql
    fragments = engine.stats_snapshot()["parallel"]["fragments"]
    for kind in FRAGMENT_KINDS:
        assert fragments.get(kind), f"no {kind} fragment ran"


def test_float_and_string_aggregates_fuse(engine_factory):
    """Float SUM/AVG and string MIN/MAX no longer decline fragment
    dispatch, and the fused float sums are exactly rounded."""
    import math

    engine = _parallel_engine(engine_factory)
    sequential = engine_factory(_build_db(), _base_config())
    queries = [
        "SELECT make, SUM(price), AVG(price) FROM car GROUP BY make",
        "SELECT SUM(salary), MIN(city), MAX(city) FROM owner",
        # Zero matching rows: the empty-group global path, dictionary
        # columns included.
        "SELECT SUM(price), MIN(model) FROM car WHERE year > 3000",
    ]
    for sql in queries:
        assert repr(engine.execute(sql).rows) == repr(
            sequential.execute(sql).rows
        ), sql
    fragments = engine.stats_snapshot()["parallel"]["fragments"]
    assert fragments.get("aggregate", 0) >= len(queries)

    table = engine.database.table("owner")
    expected = math.fsum(
        float(v) for v in table.column_data("salary").astype("float64")
    )
    total = engine.execute("SELECT SUM(salary) FROM owner").rows[0][0]
    assert total == expected


def test_fragment_pool_failure_falls_back_in_process(engine_factory):
    """Killing the pool mid-session: the next fragment warns once, falls
    back in-process with identical results, and the process path stays
    disabled (silent inline fragments) afterwards."""
    engine = _parallel_engine(engine_factory)
    expected = [engine.execute(sql).rows for sql in FRAGMENT_WORKLOAD]
    before = dict(engine.stats_snapshot()["parallel"]["fragments"])

    engine.parallel.pool.close()
    with pytest.warns(RuntimeWarning, match="fell back to in-process"):
        rows = engine.execute(FRAGMENT_WORKLOAD[0]).rows
    assert rows == expected[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # sticky disable: no more warnings
        for sql, want in zip(FRAGMENT_WORKLOAD[1:], expected[1:]):
            assert engine.execute(sql).rows == want, sql
    par = engine.stats_snapshot()["parallel"]
    assert par["process_path"] == "disabled"
    assert par["fallbacks"] >= 1
    for kind in FRAGMENT_KINDS:  # fragments still run, just inline
        assert par["fragments"][kind] > before[kind], kind


def test_fragment_stats_surface_through_server_wire():
    """Pool and fragment counters ride the server's stats frame (the
    ``engine.stats_snapshot()`` passthrough)."""
    db = build_mini_db(n_owners=200, n_cars=600, seed=7)
    config = _base_config()
    config.scan_workers = 2
    engine = Engine(db, config)
    engine.parallel.threshold_rows = 64
    srv = ReproServer(engine, port=0).start_in_thread()
    try:
        with connect(port=srv.port) as client:
            for sql in FRAGMENT_WORKLOAD[:4]:
                client.execute(sql)
            stats = client.stats()
        par = stats["parallel"]
        assert par["fragments"].get("aggregate")
        assert par["parallel_calls"] > 0
        assert par["fallbacks"] == 0
    finally:
        srv.stop_from_thread()
        engine.shutdown()
