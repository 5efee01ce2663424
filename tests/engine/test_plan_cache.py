"""Engine plan cache + compilation fast path end-to-end behavior."""

import dataclasses
import gc
import weakref

import pytest

from repro import Engine, EngineConfig
from repro.errors import ConfigError
from repro.jits import JITSConfig

from ..conftest import build_mini_db

SQL = "SELECT COUNT(*) FROM car WHERE price < 20000 AND year > 1999"


def fastpath_engine(**kwargs):
    return Engine(build_mini_db(), EngineConfig.with_jits(plan_cache_enabled=True, **kwargs))


def test_repeat_template_hits_plan_cache():
    engine = fastpath_engine()
    first = engine.execute(SQL)
    second = engine.execute(SQL)
    third = engine.execute(SQL)
    assert not first.jits_report.plan_cache_hit
    assert second.jits_report.plan_cache_hit
    assert third.jits_report.plan_cache_hit
    assert first.rows == second.rows == third.rows
    assert engine.plan_cache.hits == 2
    assert engine.plan_cache.misses == 1


def test_literal_change_is_a_different_template():
    engine = fastpath_engine()
    engine.execute(SQL)
    other = engine.execute(SQL.replace("20000", "30000"))
    assert not other.jits_report.plan_cache_hit
    assert len(engine.plan_cache) == 2


def test_heavy_churn_invalidates_cached_plan():
    engine = fastpath_engine()
    engine.execute(SQL)
    assert engine.execute(SQL).jits_report.plan_cache_hit
    # A whole-table UPDATE moves the table's UDI epoch past any staleness
    # threshold; the cached plan must be recompiled, not reused.
    engine.execute("UPDATE car SET price = price * 2")
    refreshed = engine.execute(SQL)
    assert not refreshed.jits_report.plan_cache_hit
    assert engine.plan_cache.invalidations >= 1


def test_small_dml_keeps_plan_cached():
    engine = fastpath_engine()
    engine.execute(SQL)
    # One row out of 600 stays under the 5% staleness epoch step.
    engine.execute("DELETE FROM car WHERE id = 0")
    assert engine.execute(SQL).jits_report.plan_cache_hit


def test_ddl_invalidates_plans():
    engine = fastpath_engine()
    engine.execute(SQL)
    engine.execute("SELECT COUNT(*) FROM owner WHERE salary > 5000")
    assert len(engine.plan_cache) == 2
    engine.execute("DROP TABLE owner")
    assert len(engine.plan_cache) == 1  # only the owner plan is gone
    engine.execute("CREATE INDEX car_year ON car (year)")
    assert len(engine.plan_cache) == 0  # new access path: clear everything


def test_drop_table_clears_jits_state():
    engine = fastpath_engine()
    engine.execute(SQL)
    sample, hit = engine.jits.sample_cache.get(engine.database.table("car"))
    assert hit
    ref = weakref.ref(sample)
    del sample
    gc.disable()
    try:
        engine.execute("DROP TABLE car")
        assert ref() is None  # the sample went with the table object
    finally:
        gc.enable()
    assert not engine.jits.archive.has("car", ["price", "year"])
    # A table created under the same name starts without a sample.
    engine.execute("CREATE TABLE car (id INT, price FLOAT, year INT)")
    engine.execute("INSERT INTO car VALUES (1, 10000.0, 2001)")
    _, hit = engine.jits.sample_cache.get(engine.database.table("car"))
    assert not hit


def test_plan_cache_off_by_default():
    engine = Engine(build_mini_db(), EngineConfig.with_jits())
    assert engine.plan_cache is None
    result = engine.execute(SQL)
    assert not result.jits_report.plan_cache_hit


def test_fastpath_results_match_traditional_engine():
    # The plan cache and JITS's cached samples change plans, never rows:
    # a repeat served from the plan cache answers what a plain optimizer
    # without statistics collection answers.
    queries = [
        SQL,
        "SELECT COUNT(*) FROM car WHERE year > 2002",
        "SELECT make, COUNT(*) FROM car WHERE price < 25000 GROUP BY make",
        SQL,  # repeat: served from the plan cache on the fast engine
    ]
    fast = fastpath_engine()
    plain = Engine(build_mini_db(), EngineConfig.traditional())
    for sql in queries:
        a = fast.execute(sql)
        b = plain.execute(sql)
        assert sorted(map(tuple, a.rows)) == sorted(map(tuple, b.rows))
    assert fast.plan_cache.hits >= 1


def test_engine_config_surface_stays_small():
    """The knob diet holds: removed knobs are gone as keywords (not
    silently ignored) and the field count does not creep back up."""
    assert len(dataclasses.fields(EngineConfig)) == 4
    for removed in (
        "fetch_overhead",
        "commit_latency",
        "scan_cost_per_row",
        "lock_granularity",
        "stream_vectors",
        "plan_cache_size",
        "plan_staleness",
        "observe_fingerprints",
        "observe",
        "zone_map_rows",
        "auto_index",
        "auto_index_budget",
        "auto_index_interval",
        "auto_index_threshold",
        "auto_index_drop_threshold",
        "reopt",
        "reopt_threshold",
        "reopt_max_rounds",
        "mvcc",
        "chunk_rows",
        "snapshot_retention",
        "default_workers",
        "parallel_threshold_rows",
    ):
        with pytest.raises(TypeError):
            EngineConfig(**{removed: 1})
        with pytest.raises(AttributeError):
            setattr(EngineConfig(), removed, 1)


def test_jits_config_validation():
    with pytest.raises(ConfigError):
        JITSConfig(sample_size=0)
    with pytest.raises(ConfigError):
        JITSConfig(s_max=1.5)
    with pytest.raises(ConfigError):
        JITSConfig(migration_interval=-1)


def test_jits_config_surface_stays_small():
    """Removed JITS knobs are gone as keywords, not silently ignored."""
    assert len(dataclasses.fields(JITSConfig)) == 7
    for removed in (
        "sample_cache_enabled",
        "mask_cache_enabled",
        "deferred_calibration",
        "feedback_enabled",
        "maxent_calibration",
        "cell_budget",
        "sample_staleness",
        "mask_cache_size",
    ):
        with pytest.raises(TypeError):
            JITSConfig(**{removed: 1})
