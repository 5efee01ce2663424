"""Session edge cases the network server relies on.

The server maps every connection to a session, keeps serving after a
statement fails, and calls ``execute_many``/``execute_streams``-shaped
paths with whatever the clients send — including nothing at all.
"""

import pytest

from repro import (
    CatalogError,
    ConfigError,
    Engine,
    EngineConfig,
    ReproError,
    SqlSyntaxError,
)
from tests.conftest import build_mini_db


def make_engine(seed: int = 9) -> Engine:
    return Engine(
        build_mini_db(n_owners=40, n_cars=120, seed=seed),
        EngineConfig.traditional(),
    )


def test_execute_many_empty_statement_list():
    engine = make_engine()
    assert engine.execute_many([]) == []
    assert engine.execute_many([], workers=4) == []
    assert engine.statements_executed == 0


def test_execute_streams_empty_and_uneven():
    engine = make_engine()
    assert engine.execute_streams([]) == []
    streams = [
        [],
        ["SELECT COUNT(*) FROM car"],
        [],
        [
            "SELECT COUNT(*) FROM owner",
            "SELECT COUNT(*) FROM car WHERE year >= 2000",
            "SELECT id FROM owner WHERE id < 3",
        ],
    ]
    results = engine.execute_streams(streams, workers=4)
    assert [len(r) for r in results] == [0, 1, 0, 3]
    assert results[1][0].rows == [(120,)]
    assert results[3][0].rows == [(40,)]


def test_execute_streams_all_empty():
    engine = make_engine()
    results = engine.execute_streams([[], [], []], workers=3)
    assert results == [[], [], []]
    assert engine.statements_executed == 0


def test_invalid_worker_counts_raise_config_error():
    engine = make_engine()
    with pytest.raises(ConfigError):
        engine.execute_many(["SELECT COUNT(*) FROM car"] * 2, workers=0)


def test_error_mid_stream_leaves_session_usable():
    engine = make_engine()
    session = engine.session()
    assert session.execute("SELECT COUNT(*) FROM car").rows == [(120,)]
    with pytest.raises(SqlSyntaxError):
        session.execute("SELECT COUNT(* FROM car")
    with pytest.raises(CatalogError):
        session.execute("INSERT INTO nosuch (id) VALUES (1)")
    with pytest.raises(ReproError):
        session.execute("SELECT nosuchcolumn FROM car")
    # The session keeps serving reads and writes after every failure...
    result = session.execute("DELETE FROM car WHERE price < 4000")
    assert result.statement_type == "delete"
    assert session.execute("SELECT COUNT(*) FROM car").rows == [
        (120 - result.affected_rows,)
    ]
    # ...and its failed statements left no pending UDI deltas behind.
    assert len(session.shard) == 0


def test_failed_write_does_not_leak_udi_into_next_statement():
    engine = make_engine()
    session = engine.session()
    table = engine.database.table("car")
    before = table.udi_total
    with pytest.raises(ReproError):
        session.execute("UPDATE car SET nosuch = 1 WHERE id < 5")
    assert table.udi_total == before
    deleted = session.execute("DELETE FROM car WHERE id < 5").affected_rows
    assert table.udi_total == before + deleted


def test_closed_session_rejects_statements():
    engine = make_engine()
    session = engine.session()
    session.close()
    with pytest.raises(ReproError, match="closed"):
        session.execute("SELECT COUNT(*) FROM car")
    with pytest.raises(ReproError, match="closed"):
        session.explain("SELECT COUNT(*) FROM car")
    # Other sessions on the same engine are unaffected.
    assert engine.execute("SELECT COUNT(*) FROM car").rows == [(120,)]
