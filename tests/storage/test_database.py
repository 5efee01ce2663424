"""Database: DDL surface and index registry."""

import pytest

from repro import Database, DataType, make_schema
from repro.errors import CatalogError


def schema(name="t"):
    return make_schema(name, [("id", DataType.INT)], primary_key="id")


def test_create_and_lookup():
    db = Database()
    table = db.create_table(schema())
    assert db.has_table("t")
    assert db.has_table("T")  # case-insensitive
    assert db.table("T") is table


def test_duplicate_table_raises():
    db = Database()
    db.create_table(schema())
    with pytest.raises(CatalogError):
        db.create_table(schema())


def test_drop_table():
    db = Database()
    db.create_table(schema())
    db.drop_table("t")
    assert not db.has_table("t")
    with pytest.raises(CatalogError):
        db.table("t")


def test_drop_missing_raises():
    db = Database()
    with pytest.raises(CatalogError):
        db.drop_table("ghost")


def test_primary_key_gets_hash_index():
    db = Database()
    db.create_table(schema())
    assert db.table("t").indexes == {("hash", "id")}
    assert db.indexes("t").hash_on("id") is not None


def test_create_indexes_idempotent():
    db = Database()
    db.create_table(schema())
    db.create_hash_index("t", "id")
    db.create_hash_index("T", "ID")
    assert db.table("t").indexes == {("hash", "id")}


def test_index_on_unknown_column():
    db = Database()
    db.create_table(schema())
    with pytest.raises(Exception):
        db.create_hash_index("t", "nope")


def test_table_names_and_total_rows():
    db = Database()
    db.create_table(schema("a"))
    db.create_table(schema("b"))
    db.table("a").insert_row({"id": 1})
    assert sorted(db.table_names()) == ["a", "b"]
    assert db.total_rows() == 1


def test_schema_validation():
    with pytest.raises(CatalogError):
        make_schema("t", [])
    with pytest.raises(CatalogError):
        make_schema("t", [("a", DataType.INT), ("a", DataType.INT)])
    with pytest.raises(CatalogError):
        make_schema("t", [("a", DataType.INT)], primary_key="missing")
