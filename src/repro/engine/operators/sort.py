"""Sort: a blocking operator that materializes and orders its input.

Sorting ends a pipeline in the paper's decomposition: the child's getnext
calls all happen before the sort's first output row, after which the sort
drives a new pipeline with an exactly known cardinality (its input count) —
which is why bounds become tight the moment a sort finishes consuming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.engine.expressions import Expression
from repro.engine.operators.base import SORT, Operator, UnaryOperator
from repro.errors import PlanError
from repro.storage.table import Row


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY term: an expression plus a direction."""

    expression: Expression
    descending: bool = False


def _null_first_key(value: object):
    """Sort key wrapper placing NULLs first and avoiding mixed-type compares."""
    return (value is not None, value)


def sort_rows(
    rows: List[Row], key: Callable[[Row], object], descending: bool = False
) -> List[Row]:
    """``rows`` in ORDER BY ``key`` order; the list given may be reordered.

    The one ordering kernel of all three engines, and the one statement of
    the NULL order: the sort is stable, NULLs come first ascending and last
    descending, and among themselves stay in arrival order — exactly what
    ``sorted(rows, key=lambda r: _null_first_key(key(r)), reverse=descending)``
    gives, without a tuple per row: NULLs are partitioned off (a C-speed
    scan finds out whether there are any) and the rest is sorted on the bare
    value.  Several keys are applied least significant first.  (With ``nan``
    in the column ``<`` is not an order and both forms return whatever
    timsort makes of it; they still agree when the column has no NULL.)
    """
    if None in map(key, rows):
        nulls = [row for row in rows if key(row) is None]
        rows = [row for row in rows if key(row) is not None]
        rows.sort(key=key, reverse=descending)
        return rows + nulls if descending else nulls + rows
    rows.sort(key=key, reverse=descending)
    return rows


class Sort(UnaryOperator):
    """Full in-memory sort over one or more keys, in :func:`sort_rows` order."""

    kind = SORT
    is_blocking = True

    def __init__(self, child: Operator, keys: Sequence[SortKey]) -> None:
        if not keys:
            raise PlanError("sort needs at least one key")
        super().__init__(child.schema, child)
        self.keys = list(keys)
        self._rows: Optional[List[Row]] = None
        self._cursor = 0

    @property
    def name(self) -> str:
        return "Sort"

    def describe(self) -> str:
        terms = ", ".join(
            "%r%s" % (key.expression, " DESC" if key.descending else "")
            for key in self.keys
        )
        return "Sort(%s)" % (terms,)

    def _open(self) -> None:
        self._rows = None
        self._cursor = 0

    def _rewind(self) -> None:
        # Keep the materialized sort (spool semantics on ⋈NL rescans).
        self._cursor = 0

    def _materialize(self) -> None:
        rows: List[Row] = []
        while True:
            row = self.child.get_next()
            if row is None:
                break
            rows.append(row)
        self._rows = self._order(rows)

    def _order(self, rows: List[Row]) -> List[Row]:
        """``rows`` of the child's schema under all keys: a stable sort per
        key, from the least to the most significant."""
        for key in reversed(self.keys):
            rows = sort_rows(
                rows, key.expression.bind(self.child.schema), key.descending
            )
        return rows

    def _next(self) -> Optional[Row]:
        if self._rows is None:
            self._materialize()
        assert self._rows is not None
        if self._cursor >= len(self._rows):
            return None
        row = self._rows[self._cursor]
        self._cursor += 1
        return row

    def _close(self) -> None:
        self._rows = None

    def materialized_count(self) -> Optional[int]:
        """Exact output cardinality once the input is consumed, else None.

        The progress layer uses this: the moment a sort finishes consuming,
        the cardinality of the pipeline it drives becomes exactly known.
        """
        return None if self._rows is None else len(self._rows)
