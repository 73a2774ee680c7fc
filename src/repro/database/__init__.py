"""Relational database substrate.

PReVer is a framework *over* databases, so the reproduction needs a
real (if small) relational engine to regulate: typed schemas, tables
with primary keys and secondary indexes, an expression AST shared with
the constraint language, and aggregate queries with grouping.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.database.schema import Column, ColumnType, TableSchema
    from repro.database.expr import (
        Expr,
        Col,
        Lit,
        UpdateField,
        BinOp,
        Not,
        FuncCall,
        col,
        lit,
        update_field,
    )
    from repro.database.table import Table
    from repro.database.engine import Database

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.database.schema": ("Column", "ColumnType", "TableSchema"),
    "repro.database.expr": (
        "Expr", "Col", "Lit", "UpdateField", "BinOp", "Not", "FuncCall", "col",
        "lit", "update_field",
    ),
    "repro.database.table": ("Table",),
    "repro.database.engine": ("Database",),
})

__all__ = [
    "Column",
    "ColumnType",
    "TableSchema",
    "Expr",
    "Col",
    "Lit",
    "UpdateField",
    "BinOp",
    "Not",
    "FuncCall",
    "col",
    "lit",
    "update_field",
    "Table",
    "Database",
]
