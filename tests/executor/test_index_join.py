"""Index nested-loop joins: the batched probe against a hash join and the
reference executor, and the key-type rules every equi-join shares."""

import numpy as np
import pytest

from repro import Database, DataType, Engine, EngineConfig, make_schema
from repro.engine.config import StatsMode
from repro.errors import ExecutionError
from repro.executor import run_reference
from repro.optimizer import HashJoin, IndexNLJoin
from repro.sql import build_query_graph, parse_select

N_OUTER = 8
N_INNER = 4000


def engine_over(tables, indexes=()):
    """A GENERAL-statistics engine over ``{name: (columns, data)}``."""
    db = Database()
    for name, (columns, data) in tables.items():
        db.create_table(make_schema(name, columns))
        db.table(name).insert_columns(data)
    for table, column in indexes:
        db.create_hash_index(table, column)
    engine = Engine(db, EngineConfig.traditional())
    engine.apply_stats_mode(StatsMode.GENERAL)
    return engine


def join_tables():
    """A small outer ``a`` with duplicate, missing and negative keys; an
    inner ``b`` whose every ``k`` repeats four times."""
    keys = [(7 * i) % (N_INNER // 4 + 3) - 2 for i in range(N_OUTER)]
    keys[-1] = keys[0]  # a duplicate outer key
    return {
        "a": (
            [("id", DataType.INT), ("k", DataType.INT), ("s", DataType.STRING)],
            {
                "id": np.arange(N_OUTER),
                "k": np.array(keys),
                "s": [f"n{i % 9}" for i in range(N_OUTER)],
            },
        ),
        "b": (
            [("id", DataType.INT), ("k", DataType.INT), ("name", DataType.STRING)],
            {
                "id": np.arange(N_INNER),
                "k": np.arange(N_INNER) % (N_INNER // 4),
                "name": [f"n{i % 7}" for i in range(N_INNER)],
            },
        ),
    }


def plan_nodes(record, kind):
    return [n for n in record.plan.walk() if isinstance(n, kind)]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a.id, b.id FROM a, b WHERE a.k = b.k",
        # A second join predicate across two dictionaries, plus an inner
        # local predicate.
        "SELECT a.id, b.id, b.name FROM a, b "
        "WHERE a.k = b.k AND a.s = b.name AND b.id > 100",
        # A string probe key: outer codes translated into the inner
        # dictionary, 'n7' and 'n8' missing from it.
        "SELECT a.id, b.id FROM a, b WHERE a.s = b.name AND b.k < 40",
    ],
)
def test_index_nl_join_matches_hash_join_and_reference(sql):
    indexed = engine_over(join_tables(), [("b", "k"), ("b", "name")])
    plain = engine_over(join_tables())

    inl = indexed.execute(sql)
    (join,) = plan_nodes(inl, IndexNLJoin)
    assert join.actual_probes == join.outer.actual_rows == N_OUTER
    hashed = plain.execute(sql)
    assert plan_nodes(hashed, HashJoin) and not plan_nodes(hashed, IndexNLJoin)

    block = build_query_graph(parse_select(sql), indexed.database)
    want = run_reference(block, indexed.database)
    assert want, "the differential needs a non-empty answer"
    assert inl.rows == want
    assert hashed.rows == want


def string_and_int_tables():
    return {
        "a": (
            [("id", DataType.INT), ("k", DataType.INT)],
            {"id": np.array([1, 2, 3]), "k": np.array([0, 1, 2])},
        ),
        "b": (
            [("id", DataType.INT), ("v", DataType.INT), ("name", DataType.STRING)],
            {
                "id": np.arange(N_INNER),
                "v": np.arange(N_INNER),
                "name": [f"n{i}" for i in range(N_INNER)],
            },
        ),
    }


@pytest.mark.parametrize(
    "sql, index",
    [
        # The probe key: a number looking up string codes.
        ("SELECT a.id, b.id FROM a, b WHERE a.k = b.name", "name"),
        # A non-probe join predicate: a number compared with codes.
        ("SELECT a.id, b.id FROM a, b WHERE a.k = b.v AND a.id = b.name", "v"),
    ],
)
def test_index_nl_join_refuses_string_against_number(sql, index):
    engine = engine_over(string_and_int_tables(), [("b", index)])
    assert "IndexNLJoin" in engine.explain(sql)
    with pytest.raises(ExecutionError, match="string and numeric"):
        engine.execute(sql)


def float_key_engine():
    return engine_over(
        {
            "a": (
                [("id", DataType.INT), ("k", DataType.FLOAT)],
                {
                    "id": np.array([1, 2, 3, 4]),
                    "k": np.array([0.0, 1.5, 2.0, 1e308]),
                },
            ),
            "b": ([("v", DataType.INT)], {"v": np.arange(20_000)}),
        },
        [("b", "v")],
    )


@pytest.mark.parametrize(
    "update",
    [
        "UPDATE a SET k = k * 10 WHERE id = 4",  # 1e308 * 10 = inf
        "UPDATE a SET k = -k * 10 WHERE id = 4",  # -inf
    ],
)
def test_non_finite_float_keys_probe_int_index(update):
    engine = float_key_engine()
    sql = "SELECT a.id, b.v FROM a, b WHERE a.k = b.v"
    assert "IndexNLJoin" in engine.explain(sql)
    assert engine.execute(sql).rows == [(1, 0), (3, 2)]
    with np.errstate(over="ignore"):
        engine.execute(update)
    assert engine.execute(sql).rows == [(1, 0), (3, 2)]


def test_nan_float_key_probes_int_index():
    engine = float_key_engine()
    with np.errstate(over="ignore", invalid="ignore"):
        engine.execute("UPDATE a SET k = k * 10 WHERE id = 4")
        engine.execute("UPDATE a SET k = k - k WHERE id = 4")  # inf - inf
    assert np.isnan(engine.execute("SELECT k FROM a WHERE id = 4").rows[0][0])
    sql = "SELECT a.id, b.v FROM a, b WHERE a.k = b.v"
    assert "IndexNLJoin" in engine.explain(sql)
    assert engine.execute(sql).rows == [(1, 0), (3, 2)]
