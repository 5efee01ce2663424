"""Engine edge cases: empty tables, single rows, degenerate queries."""

import pytest

from repro import Engine, EngineConfig


@pytest.fixture
def empty_engine():
    engine = Engine(config=EngineConfig.traditional())
    engine.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, name STRING, v FLOAT)"
    )
    return engine


def test_select_from_empty_table(empty_engine):
    result = empty_engine.execute("SELECT id, name FROM t WHERE v > 1")
    assert result.rows == []


def test_aggregate_empty_table(empty_engine):
    result = empty_engine.execute("SELECT COUNT(*), SUM(v) FROM t")
    assert result.rows == [(0, 0)]


def test_int_average_over_no_rows(empty_engine):
    """AVG over an INT column with nothing to average is 0.0 (and an
    empty group set), not a numpy casting error."""
    assert empty_engine.execute("SELECT AVG(id) FROM t").rows == [(0.0,)]
    assert empty_engine.execute(
        "SELECT name, AVG(id), AVG(DISTINCT id) FROM t GROUP BY name"
    ).rows == []


def test_group_by_empty_table(empty_engine):
    result = empty_engine.execute(
        "SELECT name, COUNT(*) FROM t GROUP BY name"
    )
    assert result.rows == []


def test_join_with_empty_table(empty_engine):
    empty_engine.execute("CREATE TABLE u (id INT PRIMARY KEY, tid INT)")
    empty_engine.execute("INSERT INTO u VALUES (1, 1), (2, 2)")
    result = empty_engine.execute(
        "SELECT u.id FROM u, t WHERE u.tid = t.id"
    )
    assert result.rows == []


def test_runstats_on_empty_table(empty_engine):
    elapsed = empty_engine.collect_general_statistics(tables=["t"])
    assert elapsed >= 0
    stats = empty_engine.catalog.table_stats("t")
    assert stats.cardinality == 0


def test_jits_on_empty_table():
    engine = Engine(config=EngineConfig.with_jits(always_collect=True))
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
    result = engine.execute("SELECT id FROM t WHERE v > 1 AND id < 5")
    assert result.rows == []


def test_update_delete_empty_table(empty_engine):
    assert empty_engine.execute("UPDATE t SET v = v + 1").affected_rows == 0
    assert empty_engine.execute("DELETE FROM t").affected_rows == 0


def test_single_row_table(empty_engine):
    empty_engine.execute("INSERT INTO t VALUES (1, 'only', 3.5)")
    empty_engine.collect_general_statistics(tables=["t"])
    result = empty_engine.execute(
        "SELECT name FROM t WHERE v BETWEEN 3 AND 4"
    )
    assert result.rows == [("only",)]
    agg = empty_engine.execute("SELECT MIN(v), MAX(v), AVG(v) FROM t")
    assert agg.rows == [(3.5, 3.5, 3.5)]


def test_order_by_empty_result(empty_engine):
    result = empty_engine.execute(
        "SELECT id, v FROM t WHERE v > 100 ORDER BY v DESC LIMIT 3"
    )
    assert result.rows == []


def test_distinct_empty(empty_engine):
    result = empty_engine.execute("SELECT DISTINCT name FROM t")
    assert result.rows == []


def test_select_all_rows_deleted(empty_engine):
    empty_engine.execute("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0)")
    empty_engine.execute("DELETE FROM t WHERE id >= 1")
    result = empty_engine.execute("SELECT COUNT(*) FROM t")
    assert result.rows == [(0,)]
