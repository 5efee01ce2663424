"""Engine DML and DDL statements."""

import pytest

from repro import Engine, EngineConfig
from repro.errors import BindingError, CatalogError, ExecutionError


def count(engine, sql):
    return engine.execute(sql).rows[0][0]


def test_insert_rows(plain_engine):
    before = count(plain_engine, "SELECT COUNT(*) FROM owner")
    result = plain_engine.execute(
        "INSERT INTO owner (id, name, salary, city) VALUES "
        "(9001, 'neo', 999.0, 'Zion'), (9002, 'trinity', 998.0, 'Zion')"
    )
    assert result.statement_type == "insert"
    assert result.affected_rows == 2
    assert count(plain_engine, "SELECT COUNT(*) FROM owner") == before + 2
    rows = plain_engine.execute(
        "SELECT name FROM owner WHERE city = 'Zion'"
    ).rows
    assert sorted(rows) == [("neo",), ("trinity",)]


def test_insert_schema_order(plain_engine):
    plain_engine.execute(
        "INSERT INTO owner VALUES (9100, 'morpheus', 1000.0, 'Zion')"
    )
    assert count(
        plain_engine, "SELECT COUNT(*) FROM owner WHERE id = 9100"
    ) == 1


def test_insert_arity_mismatch(plain_engine):
    with pytest.raises(BindingError):
        plain_engine.execute("INSERT INTO owner (id, name) VALUES (1, 'x', 3)")


def test_update_constant(plain_engine):
    result = plain_engine.execute(
        "UPDATE owner SET city = 'Kanata' WHERE city = 'Ottawa'"
    )
    assert result.statement_type == "update"
    assert result.affected_rows > 0
    assert count(
        plain_engine, "SELECT COUNT(*) FROM owner WHERE city = 'Ottawa'"
    ) == 0


def test_update_expression_per_row(plain_engine):
    before = plain_engine.execute(
        "SELECT salary FROM owner WHERE id = 0"
    ).rows[0][0]
    plain_engine.execute("UPDATE owner SET salary = salary * 2 WHERE id = 0")
    after = plain_engine.execute(
        "SELECT salary FROM owner WHERE id = 0"
    ).rows[0][0]
    assert after == pytest.approx(before * 2)


def test_update_int_column_rounds(plain_engine):
    plain_engine.execute("UPDATE car SET year = year + 1 WHERE id = 0")
    # Still an integer value.
    year = plain_engine.execute("SELECT year FROM car WHERE id = 0").rows[0][0]
    assert isinstance(year, int)


def test_update_without_where_touches_all(plain_engine):
    n = count(plain_engine, "SELECT COUNT(*) FROM owner")
    result = plain_engine.execute("UPDATE owner SET salary = salary + 1")
    assert result.affected_rows == n


def test_update_unknown_column(plain_engine):
    with pytest.raises(BindingError):
        plain_engine.execute("UPDATE owner SET ghost = 1")


def test_update_type_mismatch(plain_engine):
    with pytest.raises(ExecutionError):
        plain_engine.execute("UPDATE owner SET name = 5 WHERE id = 0")


def test_update_bumps_udi(plain_engine, mini_db):
    before = mini_db.table("owner").udi_total
    plain_engine.execute("UPDATE owner SET salary = salary WHERE id < 10")
    assert mini_db.table("owner").udi_total == before + 10


def test_delete(plain_engine):
    before = count(plain_engine, "SELECT COUNT(*) FROM car")
    result = plain_engine.execute("DELETE FROM car WHERE make = 'Honda'")
    assert result.statement_type == "delete"
    assert result.affected_rows > 0
    assert count(plain_engine, "SELECT COUNT(*) FROM car") == (
        before - result.affected_rows
    )
    assert count(
        plain_engine, "SELECT COUNT(*) FROM car WHERE make = 'Honda'"
    ) == 0


def test_delete_with_or_residual(plain_engine):
    result = plain_engine.execute(
        "DELETE FROM owner WHERE id = 1 OR id = 2"
    )
    assert result.affected_rows == 2


def test_create_insert_select_roundtrip():
    engine = Engine(config=EngineConfig.traditional())
    engine.execute(
        "CREATE TABLE pets (id INT PRIMARY KEY, name STRING, age INT)"
    )
    engine.execute("INSERT INTO pets VALUES (1, 'rex', 4), (2, 'milo', 2)")
    rows = engine.execute("SELECT name FROM pets WHERE age > 3").rows
    assert rows == [("rex",)]


def test_create_duplicate_table():
    engine = Engine(config=EngineConfig.traditional())
    engine.execute("CREATE TABLE t (id INT)")
    with pytest.raises(CatalogError):
        engine.execute("CREATE TABLE t (id INT)")


def test_drop_table_clears_state(jits_engine, mini_db):
    jits_engine.execute("SELECT id FROM car WHERE make = 'Toyota'")
    jits_engine.execute("DROP TABLE car")
    assert not mini_db.has_table("car")
    with pytest.raises(BindingError):
        jits_engine.execute("SELECT id FROM car")


def test_create_index_statement(plain_engine, mini_db):
    plain_engine.execute("CREATE INDEX iy ON car (year)")
    assert mini_db.indexes("car").hash_on("year") is not None
    plain_engine.execute("CREATE INDEX iy2 ON car (year) USING SORTED")
    assert mini_db.indexes("car").sorted_on("year") is not None


def test_index_created_after_a_read_is_planned():
    """A read caches its generation's index set; an index created after
    it must still reach the planner before the table's next write."""
    engine = Engine(config=EngineConfig.traditional())
    engine.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT)")
    engine.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, {i % 500})" for i in range(5000))
    )
    engine.collect_general_statistics()
    sql = "SELECT id FROM t WHERE k = 5"
    assert len(engine.execute(sql).rows) == 10
    assert "SeqScan" in engine.explain(sql)
    engine.execute("CREATE HASH INDEX ik ON t (k)")
    assert "IndexScan(hash)" in engine.explain(sql)
    assert len(engine.execute(sql).rows) == 10
