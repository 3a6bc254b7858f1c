"""Auxiliary operators: LIMIT, UNION ALL, DISTINCT.

These round out the operator set so the SQL front end can cover the TPC-H
query shapes; none of them changes the progress-estimation story (all are
linear, and only DISTINCT's dedup state is worth a remark — it streams,
emitting a row on first sight, so it does not end a pipeline).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.engine.operators.base import (
    DISTINCT,
    LIMIT,
    UNION,
    Operator,
    UnaryOperator,
)
from repro.errors import PlanError
from repro.storage.table import Row


class Limit(UnaryOperator):
    """Return at most ``limit`` rows, after skipping ``offset``."""

    kind = LIMIT

    def __init__(self, child: Operator, limit: int, offset: int = 0) -> None:
        if limit < 0 or offset < 0:
            raise PlanError("limit and offset must be non-negative")
        super().__init__(child.schema, child)
        self.limit = limit
        self.offset = offset
        self._skipped = 0
        self._returned = 0

    @property
    def name(self) -> str:
        return "Limit"

    def describe(self) -> str:
        if self.offset:
            return "Limit(%d offset %d)" % (self.limit, self.offset)
        return "Limit(%d)" % (self.limit,)

    def _open(self) -> None:
        self._skipped = 0
        self._returned = 0

    def _next(self) -> Optional[Row]:
        while self._skipped < self.offset:
            if self.child.get_next() is None:
                return None
            self._skipped += 1
        if self._returned >= self.limit:
            return None
        row = self.child.get_next()
        if row is None:
            return None
        self._returned += 1
        return row


class UnionAll(Operator):
    """Concatenate any number of schema-compatible inputs, in order."""

    kind = UNION

    def __init__(self, *children: Operator) -> None:
        if len(children) < 2:
            raise PlanError("UNION ALL needs at least two inputs")
        first = children[0].schema
        for child in children[1:]:
            if len(child.schema) != len(first):
                raise PlanError("UNION ALL inputs must have the same arity")
        super().__init__(first, list(children))
        self._current = 0

    @property
    def name(self) -> str:
        return "UnionAll"

    def describe(self) -> str:
        return "UnionAll(%d inputs)" % (len(self.children),)

    def _open(self) -> None:
        self._current = 0

    def _next(self) -> Optional[Row]:
        while self._current < len(self.children):
            row = self.children[self._current].get_next()
            if row is not None:
                return row
            self._current += 1
        return None


class Distinct(UnaryOperator):
    """Streaming duplicate elimination (emit each distinct row once)."""

    kind = DISTINCT

    def __init__(self, child: Operator) -> None:
        super().__init__(child.schema, child)
        self._seen: Set[Tuple[object, ...]] = set()

    @property
    def name(self) -> str:
        return "Distinct"

    def _open(self) -> None:
        self._seen = set()

    def _next(self) -> Optional[Row]:
        while True:
            row = self.child.get_next()
            if row is None:
                return None
            if row not in self._seen:
                self._seen.add(row)
                return row

    def _close(self) -> None:
        self._seen = set()
