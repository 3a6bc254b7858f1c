"""Nested-loops join (⋈NL): rescan the inner input once per outer row.

Every rescan's getnext calls on the inner subtree are counted work — this is
precisely why ⋈NL is excluded from the paper's scan-based class (§5.4): the
work per outer tuple is unbounded and depends on data the statistics cannot
reveal.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.expressions import BoundFn, Expression
from repro.engine.operators.base import BinaryOperator, Operator
from repro.storage.table import Row


class NestedLoopsJoin(BinaryOperator):
    """Tuple-at-a-time nested loops; left is the outer input.

    ``predicate`` may be None for a cross product.  Linearity is *not*
    assumed; pass ``linear=True`` only when a key constraint guarantees
    output ≤ max(input) (the planner does this for FK joins).
    """

    is_nested_iteration = True

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        predicate: Optional[Expression] = None,
        linear: bool = False,
    ) -> None:
        super().__init__(outer.schema.concat(inner.schema), outer, inner)
        self.predicate = predicate
        self.is_linear = linear
        self._bound: Optional[BoundFn] = None
        self._outer_row: Optional[Row] = None

    @property
    def name(self) -> str:
        return "NestedLoopsJoin"

    def describe(self) -> str:
        return "NestedLoopsJoin(%r)" % (self.predicate,)

    def _open(self) -> None:
        self._bound = (
            self.predicate.bind(self.schema) if self.predicate is not None else None
        )
        self._outer_row = None

    def _next(self) -> Optional[Row]:
        while True:
            if self._outer_row is None:
                self._outer_row = self.left.get_next()
                if self._outer_row is None:
                    return None
                self.right.rewind()
            inner_row = self.right.get_next()
            if inner_row is None:
                self._outer_row = None
                continue
            joined = self._outer_row + inner_row
            if self._bound is None or self._bound(joined) is True:
                return joined

    def _close(self) -> None:
        self._bound = None
