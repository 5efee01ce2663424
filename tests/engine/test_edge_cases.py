"""Engine edge cases: empty tables, single rows, degenerate queries."""

import warnings

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


# ----------------------------------------------------------------------
# Aggregates that once disagreed between paths and with the reference
# ----------------------------------------------------------------------
def _float_table(values):
    return [
        "CREATE TABLE t (id INT PRIMARY KEY, g INT, f FLOAT)",
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 2}, {v!r})" for i, v in enumerate(values)),
    ]


#: 1e308 * 10 overflows to inf; inf - inf is NaN (SQL has no NaN literal).
NAN_TABLE = _float_table([1.0, 0.0, -0.0, 2.0, 1e308, 1e308, 3.0, 4.0]) + [
    "UPDATE t SET f = f * 10 - f * 10 WHERE id = 4"
]
SIGNED_ZERO_TABLE = _float_table([0.0, 5.0, -0.0, 5.0, 1.0, 7.0, 1.0, 7.0])
#: 2**53 + 1 is the first integer float64 cannot hold.
BIG_INT_TABLE = [
    "CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)",
    "INSERT INTO t VALUES (1, 0, 9007199254740993), (2, 0, 0), "
    "(3, 1, 9007199254740993), (4, 1, 2)",
]

AGGREGATE_CASES = {
    "nan-global": (NAN_TABLE, "SELECT MIN(f), MAX(f), COUNT(*) FROM t"),
    "nan-grouped": (NAN_TABLE, "SELECT g, MIN(f), MAX(f) FROM t GROUP BY g"),
    "signed-zero": (SIGNED_ZERO_TABLE, "SELECT MIN(f), MAX(f) FROM t WHERE f < 1"),
    "int-sum-one-row": (
        BIG_INT_TABLE,
        "SELECT SUM(v) FROM t WHERE g = 0 AND v > 1",
    ),
    "int-sum-grouped": (
        BIG_INT_TABLE,
        "SELECT g, SUM(v), AVG(v) FROM t GROUP BY g",
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("case", sorted(AGGREGATE_CASES))
def test_aggregate_matches_reference(case, workers):
    """NaN, signed zeros and INT sums past 2**53 give the reference's
    answer in-process and through the pooled fused aggregate: MIN/MAX
    use one total order (-0.0 < +0.0 < ... < +inf < NaN) and INT SUM
    stays in int64. Rows compare through ``repr``: ``sorted`` over
    tuples holding NaN depends on input order."""
    from repro.executor import run_reference
    from repro.sql import build_query_graph, parse_select

    setup, sql = AGGREGATE_CASES[case]
    config = EngineConfig.traditional()
    config.scan_workers = workers
    engine = Engine(config=config)
    if workers:
        engine.parallel.threshold_rows = 4
    try:
        for statement in setup:
            engine.execute(statement)
        got = engine.execute(sql).rows
        block = build_query_graph(parse_select(sql), engine.database)
        want = run_reference(block, engine.database)
        assert repr(sorted(map(repr, got))) == repr(sorted(map(repr, want)))
        if workers:
            fragments = engine.stats_snapshot()["parallel"]["fragments"]
            assert fragments.get("aggregate") == 1, "the fragment declined"
    finally:
        engine.shutdown()


@pytest.mark.parametrize("workers", [0, 2])
def test_int_sum_past_int64_raises(workers):
    """An INT SUM whose total leaves int64 is a typed error on both
    paths, never a wrapped number; large values that cancel still sum."""
    from repro.errors import ExecutionError

    config = EngineConfig.traditional()
    config.scan_workers = workers
    engine = Engine(config=config)
    if workers:
        engine.parallel.threshold_rows = 4
    big = 1 << 62
    try:
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
        engine.execute(
            f"INSERT INTO t VALUES (1, 0, {big}), (2, 0, {big}), "
            f"(3, 1, {big}), (4, 1, -{big}), (5, 1, {big})"
        )
        assert engine.execute(
            "SELECT g, SUM(v) FROM t WHERE g = 1 GROUP BY g"
        ).rows == [(1, big)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # worker fallback
            with pytest.raises(ExecutionError, match="INT range"):
                engine.execute("SELECT SUM(v) FROM t WHERE g = 0")
    finally:
        engine.shutdown()
