"""Values a column cannot hold are rejected at write time, typed.

A value of the wrong type, or text with a lone surrogate (which UTF-8,
and so the wire, cannot carry), raises :class:`InvalidValueError` naming
the column, and the statement leaves the table as it was.
"""

from __future__ import annotations

import pytest

from repro import Database, Engine, EngineConfig, InvalidValueError, ReproError
from repro.server import ReproServer, connect


def _engine() -> Engine:
    engine = Engine(Database(), EngineConfig.with_jits())
    engine.execute("CREATE TABLE t (s STRING, i INT)")
    engine.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
    return engine


def _lengths(engine):
    table = engine.database.live_table("t")
    return {name: len(column) for name, column in table.columns.items()}


@pytest.mark.parametrize(
    "sql, column",
    [
        ("INSERT INTO t VALUES (1, 1)", "s"),
        ("INSERT INTO t VALUES ('c', 'x')", "i"),
        ("INSERT INTO t VALUES ('c', 3), (4, 4)", "s"),
        ("INSERT INTO t VALUES ('c', 3), ('d', 2.5)", "i"),
        ("INSERT INTO t VALUES ('c', 99999999999999999999)", "i"),
        ("INSERT INTO t VALUES ('\ud800', 1)", "s"),
        ("INSERT INTO t VALUES ('ok', 3), ('x\udfff', 4)", "s"),
        ("UPDATE t SET s = '\ud801'", "s"),
        ("UPDATE t SET s = '\ud801' WHERE i = 2", "s"),
    ],
)
def test_write_rejects_a_value_its_column_cannot_hold(sql, column):
    engine = _engine()
    before = engine.execute("SELECT s, i FROM t ORDER BY i").rows
    with pytest.raises(InvalidValueError) as excinfo:
        engine.execute(sql)
    assert excinfo.value.column == column
    assert f"column {column!r}" in str(excinfo.value)
    # Nothing of the statement landed: equal-length columns, same rows.
    assert _lengths(engine) == {"s": 2, "i": 2}
    assert engine.execute("SELECT s, i FROM t ORDER BY i").rows == before
    engine.execute("INSERT INTO t VALUES ('c', 3)")
    assert engine.execute("SELECT COUNT(*) FROM t").rows == [(3,)]


def test_projected_surrogate_literal_is_a_typed_error():
    engine = _engine()
    with pytest.raises(InvalidValueError):
        engine.execute("SELECT '\ud802', i FROM t")
    # Text that UTF-8 can carry, non-ASCII included, is stored as given.
    engine.execute("INSERT INTO t VALUES ('é✓\U0001f600', 3)")
    assert engine.execute("SELECT s FROM t WHERE i = 3").rows == [
        ("é✓\U0001f600",)
    ]


def test_invalid_values_are_typed_errors_over_the_wire():
    server = ReproServer(_engine(), port=0).start_in_thread()
    try:
        with connect(port=server.port) as client:
            for sql in (
                "INSERT INTO t VALUES (1, 1)",
                "INSERT INTO t VALUES ('\ud800', 1)",
                "UPDATE t SET s = '\ud801'",
            ):
                with pytest.raises(InvalidValueError, match="column 's'"):
                    client.execute(sql)
            with pytest.raises(ReproError):
                client.execute("SELECT '\ud802', i FROM t")
            # Nothing was stored, so every row still streams.
            assert client.execute("SELECT s, i FROM t ORDER BY i").rows == [
                ("a", 1),
                ("b", 2),
            ]
    finally:
        server.stop_from_thread()


HUGE = "99999999999999999999"  # past int64
HUGE_LITERALS = [
    (f"UPDATE t SET i = {HUGE}", "i"),
    (f"SELECT {HUGE} FROM t", None),
    (f"SELECT i FROM t WHERE i + 0 = {HUGE}", None),
    (f"SELECT i FROM t WHERE i + 0 IN ({HUGE})", None),
]


@pytest.mark.parametrize("sql, column", HUGE_LITERALS)
def test_int_literal_past_int64_is_a_typed_error(sql, column):
    engine = _engine()
    with pytest.raises(InvalidValueError, match="64 bits") as excinfo:
        engine.execute(sql)
    assert excinfo.value.column == column
    assert engine.execute("SELECT s, i FROM t ORDER BY i").rows == [
        ("a", 1),
        ("b", 2),
    ]


def test_int_literal_past_int64_matches_no_stored_row():
    engine = _engine()
    for sql in (
        f"SELECT i FROM t WHERE i = {HUGE}",
        f"SELECT i FROM t WHERE i IN ({HUGE})",
        f"SELECT i FROM t WHERE i IN (-{HUGE})",
    ):
        assert engine.execute(sql).rows == []
    assert engine.execute(f"SELECT i FROM t WHERE i IN ({HUGE}, 2)").rows == [
        (2,)
    ]


def test_int_literal_past_int64_is_a_typed_error_over_the_wire():
    server = ReproServer(_engine(), port=0).start_in_thread()
    try:
        with connect(port=server.port) as client:
            for sql, _ in HUGE_LITERALS:
                with pytest.raises(InvalidValueError, match="64 bits"):
                    client.execute(sql)
            with pytest.raises(InvalidValueError, match="column 'i'"):
                client.execute(f"UPDATE t SET i = {HUGE} WHERE i = 2")
            assert client.execute("SELECT s, i FROM t ORDER BY i").rows == [
                ("a", 1),
                ("b", 2),
            ]
    finally:
        server.stop_from_thread()
