"""Tables, indexes, the Database engine, and the transaction log."""

import pytest

from repro.database.engine import Database, DatabaseError
from repro.database.expr import col, lit
from repro.database.schema import ColumnType, TableSchema
from repro.database.table import DuplicateKeyError, MissingRowError, Table


def schema():
    return TableSchema.build(
        "people",
        [("id", ColumnType.INT), ("city", ColumnType.TEXT),
         ("age", ColumnType.INT)],
        primary_key=["id"],
        indexes=["city"],
    )


def filled_table():
    table = Table(schema())
    table.insert({"id": 1, "city": "paris", "age": 30})
    table.insert({"id": 2, "city": "rome", "age": 40})
    table.insert({"id": 3, "city": "paris", "age": 50})
    return table


def test_insert_get_len():
    table = filled_table()
    assert len(table) == 3
    assert table.get((2,))["city"] == "rome"
    assert table.get((9,)) is None
    assert (1,) in table


def test_duplicate_key_rejected():
    table = filled_table()
    with pytest.raises(DuplicateKeyError):
        table.insert({"id": 1, "city": "x", "age": 1})


def test_upsert_replaces():
    table = filled_table()
    table.upsert({"id": 1, "city": "lyon", "age": 31})
    assert table.get((1,))["city"] == "lyon"
    assert len(table) == 3


def test_update_row_returns_images():
    table = filled_table()
    before, after = table.update_row((1,), {"age": 31})
    assert before["age"] == 30 and after["age"] == 31


def test_update_missing_row():
    with pytest.raises(MissingRowError):
        filled_table().update_row((99,), {"age": 1})


def test_update_key_collision():
    table = filled_table()
    with pytest.raises(DuplicateKeyError):
        table.update_row((1,), {"id": 2})


def test_update_can_move_key():
    table = filled_table()
    table.update_row((1,), {"id": 10})
    assert table.get((1,)) is None
    assert table.get((10,))["age"] == 30


def test_delete():
    table = filled_table()
    row = table.delete((2,))
    assert row["city"] == "rome"
    with pytest.raises(MissingRowError):
        table.delete((2,))


def test_indexed_lookup_and_maintenance():
    table = filled_table()
    assert {r["id"] for r in table.lookup("city", "paris")} == {1, 3}
    table.update_row((1,), {"city": "rome"})
    assert {r["id"] for r in table.lookup("city", "paris")} == {3}
    assert {r["id"] for r in table.lookup("city", "rome")} == {1, 2}
    table.delete((3,))
    assert table.lookup("city", "paris") == []


def test_unindexed_lookup_scans():
    table = filled_table()
    assert len(table.lookup("age", 40)) == 1


def test_scan_with_predicate():
    table = filled_table()
    rows = list(table.scan(col("age") > lit(35)))
    assert {r["id"] for r in rows} == {2, 3}


def test_scan_returns_copies():
    table = filled_table()
    row = next(table.scan())
    row["age"] = 999
    assert table.get((row["id"],))["age"] != 999


def test_aggregates():
    table = filled_table()
    assert table.aggregate(None, "COUNT") == 3
    assert table.aggregate("age", "SUM") == 120
    assert table.aggregate("age", "AVG") == 40
    assert table.aggregate("age", "MIN") == 30
    assert table.aggregate("age", "MAX") == 50
    assert table.aggregate("age", "SUM", col("city").eq(lit("paris"))) == 80


def test_aggregate_empty_and_errors():
    table = Table(schema())
    assert table.aggregate("age", "SUM") == 0
    assert table.aggregate("age", "AVG") is None
    with pytest.raises(Exception):
        table.aggregate(None, "SUM")
    with pytest.raises(Exception):
        table.aggregate("age", "MEDIAN")


# -- Database engine ----------------------------------------------------------

def make_db():
    db = Database("test")
    db.create_table(schema())
    return db


def test_database_mutations_return_row_images():
    db = make_db()
    inserted = db.insert("people", {"id": 1, "city": "a", "age": 10})
    assert inserted == {"id": 1, "city": "a", "age": 10}
    assert db.update("people", (1,), {"age": 11})["age"] == 11
    assert db.table("people").get((1,))["age"] == 11
    assert db.delete("people", (1,))["age"] == 11
    assert db.table("people").get((1,)) is None
    assert not hasattr(db, "log")  # the WAL and the ledger are the journals


def test_database_duplicate_table():
    db = make_db()
    with pytest.raises(DatabaseError):
        db.create_table(schema())


def test_database_missing_table():
    with pytest.raises(DatabaseError):
        make_db().table("nope")


def test_select_projection():
    db = make_db()
    db.insert("people", {"id": 1, "city": "a", "age": 10})
    rows = db.select("people", columns=["city"])
    assert rows == [{"city": "a"}]


def test_group_by():
    db = make_db()
    for i, (city, age) in enumerate(
        [("a", 10), ("a", 20), ("b", 30)], start=1
    ):
        db.insert("people", {"id": i, "city": city, "age": age})
    groups = db.group_by("people", ["city"], "SUM", "age")
    assert groups == {("a",): 30, ("b",): 30}
    counts = db.group_by("people", ["city"], "COUNT")
    assert counts == {("a",): 2, ("b",): 1}


def test_join():
    db = make_db()
    db.create_table(
        TableSchema.build(
            "cities",
            [("city", ColumnType.TEXT), ("country", ColumnType.TEXT)],
            primary_key=["city"],
        )
    )
    db.insert("people", {"id": 1, "city": "paris", "age": 10})
    db.insert("people", {"id": 2, "city": "oslo", "age": 20})
    db.insert("cities", {"city": "paris", "country": "fr"})
    joined = db.join("people", "cities", "city", "city")
    assert len(joined) == 1
    assert joined[0]["country"] == "fr"
