"""Index nested-loops join (⋈INL): per outer row, look up the inner index.

The inner side is an *access path* (a hash or sorted index on the inner
table), not a plan operator — matching the work-model calibration in
DESIGN.md §4: the lookups themselves do not tick the monitor; only the join's
own output rows count.  This is exactly the operator the paper's lower bound
(§3, Example 1) is built around: a single outer tuple can silently trigger an
enormous number of inner matches.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.engine.expressions import BoundFn, ColumnRef, Expression
from repro.engine.operators.base import INL_JOIN, Operator, UnaryOperator
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import Row

InnerIndex = Union[HashIndex, SortedIndex]


class IndexNestedLoopsJoin(UnaryOperator):
    """Equality ⋈INL driven by the outer child.

    ``outer_key`` is evaluated per outer row and looked up in ``index``;
    matching inner rows are concatenated to the outer row.  An optional
    ``residual`` predicate filters the joined row.  The output schema is the
    outer schema plus the inner table's schema qualified by ``inner_alias``.
    """

    kind = INL_JOIN
    is_nested_iteration = True

    def __init__(
        self,
        outer: Operator,
        index: InnerIndex,
        outer_key: Expression,
        inner_alias: Optional[str] = None,
        residual: Optional[Expression] = None,
        linear: bool = False,
    ) -> None:
        qualifier = inner_alias or index.table.name
        inner_schema = index.table.schema.qualified(qualifier)
        super().__init__(outer.schema.concat(inner_schema), outer)
        self.index = index
        self.outer_key = outer_key
        self.inner_alias = qualifier
        self.residual = residual
        self.is_linear = linear
        self._key_fn: Optional[BoundFn] = None
        self._residual_fn: Optional[BoundFn] = None
        self._outer_row: Optional[Row] = None
        self._matches: List[Row] = []
        self._match_cursor = 0

    @property
    def name(self) -> str:
        return "IndexNestedLoopsJoin"

    def describe(self) -> str:
        return "IndexNestedLoopsJoin(%r = %s.%s)" % (
            self.outer_key,
            self.inner_alias,
            self.index.column,
        )

    @property
    def outer(self) -> Operator:
        return self.child

    def _open(self) -> None:
        self._outer_row = None
        self._matches = []
        self._match_cursor = 0

    def _bind(self) -> None:
        self._key_fn = self.outer_key.bind(self.child.schema)
        self._residual_fn = (
            self.residual.bind(self.schema) if self.residual is not None else None
        )

    def _next(self) -> Optional[Row]:
        if self._key_fn is None:
            self._bind()
        while True:
            while self._match_cursor < len(self._matches):
                assert self._outer_row is not None
                joined = self._outer_row + self._matches[self._match_cursor]
                self._match_cursor += 1
                if self._residual_fn is None or self._residual_fn(joined) is True:
                    return joined
            self._outer_row = self.child.get_next()
            if self._outer_row is None:
                return None
            key = self._key_fn(self._outer_row)
            # NULL keys never match (SQL equality semantics).
            self._matches = [] if key is None else self.index.lookup(key)
            self._match_cursor = 0

    def _close(self) -> None:
        self._key_fn = self._residual_fn = None
        self._matches = []
