"""Filter (σ): keep rows whose predicate evaluates to exactly TRUE."""

from __future__ import annotations

from typing import Optional

from repro.engine.expressions import BoundFn, Expression
from repro.engine.operators.base import Operator, UnaryOperator
from repro.storage.table import Row


class Filter(UnaryOperator):
    """Relational selection with SQL semantics (NULL predicate drops rows)."""

    def __init__(self, child: Operator, predicate: Expression) -> None:
        super().__init__(child.schema, child)
        self.predicate = predicate
        self._bound: Optional[BoundFn] = None

    @property
    def name(self) -> str:
        return "Filter"

    def describe(self) -> str:
        return "Filter(%r)" % (self.predicate,)

    def _open(self) -> None:
        self._bound = self.predicate.bind(self.child.schema)

    def _next(self) -> Optional[Row]:
        assert self._bound is not None
        while True:
            row = self.child.get_next()
            if row is None:
                return None
            if self._bound(row) is True:
                return row

    def _close(self) -> None:
        self._bound = None
