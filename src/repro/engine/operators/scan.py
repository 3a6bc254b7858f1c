"""Leaf row sources: full table scans and literal row sources.

A :class:`TableScan` returns rows in the table's stored order — the paper's
adversarial arguments depend on scan order being exactly the storage order,
so no reordering ever happens here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.operators.base import SCAN, LeafOperator
from repro.storage.schema import Schema
from repro.storage.table import Row, Table


class TableScan(LeafOperator):
    """Sequential scan of a heap table, in stored row order.

    ``alias`` re-qualifies the output schema, so the same table can appear
    twice in a plan under different names.
    """

    kind = SCAN

    def __init__(self, table: Table, alias: Optional[str] = None) -> None:
        qualifier = alias or table.name
        super().__init__(table.schema.qualified(qualifier))
        self.table = table
        self.alias = qualifier
        self._cursor = 0

    @property
    def name(self) -> str:
        return "TableScan"

    def describe(self) -> str:
        return "TableScan(%s as %s)" % (self.table.name, self.alias)

    def _open(self) -> None:
        self._cursor = 0

    def _next(self) -> Optional[Row]:
        if self._cursor >= len(self.table):
            return None
        row = self.table[self._cursor]
        self._cursor += 1
        return row

    def base_cardinality(self) -> int:
        """Exact input size — 'accurately available from the catalogs'."""
        return len(self.table)


class RowSource(LeafOperator):
    """A leaf that yields a fixed list of rows (tests and VALUES clauses)."""

    kind = SCAN

    def __init__(self, schema: Schema, rows: Sequence[Row]) -> None:
        super().__init__(schema)
        self.rows = [tuple(row) for row in rows]
        self._cursor = 0

    @property
    def name(self) -> str:
        return "RowSource"

    def describe(self) -> str:
        return "RowSource(%d rows)" % (len(self.rows),)

    def _open(self) -> None:
        self._cursor = 0

    def _next(self) -> Optional[Row]:
        if self._cursor >= len(self.rows):
            return None
        row = self.rows[self._cursor]
        self._cursor += 1
        return row

    def base_cardinality(self) -> int:
        return len(self.rows)
