"""Top-N: the fused sort+limit operator real optimizers emit for
``ORDER BY ... LIMIT n``.

Blocking like a sort (it must see every input row), but it only ever
buffers ``limit`` rows, and its output cardinality is *known in advance* to
be ``min(limit, |input|)`` — which makes its bounds the tightest of any
blocking operator and is why the planner prefers it for top-k queries.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.engine.operators.base import Operator, UnaryOperator
from repro.engine.operators.sort import SortKey, _null_first_key
from repro.errors import PlanError
from repro.storage.table import Row


class _OrderedRow:
    """A row wrapped with its sort key; comparable per the key spec."""

    __slots__ = ("key", "row")

    def __init__(self, key: Tuple, row: Row) -> None:
        self.key = key
        self.row = row

    def __lt__(self, other: "_OrderedRow") -> bool:
        return self.key < other.key


class TopN(UnaryOperator):
    """Keep the ``limit`` first rows of :func:`~repro.engine.operators.sort.sort_rows`
    order under the given sort keys — the same rows ``Sort`` + ``Limit``
    would return, NULL order and stability included.

    A descending key is compared through the :class:`_Inverted` wrapper,
    whatever its type.
    """

    is_blocking = True

    def __init__(self, child: Operator, keys: Sequence[SortKey], limit: int) -> None:
        if not keys:
            raise PlanError("TopN needs at least one sort key")
        if limit < 0:
            raise PlanError("TopN limit must be non-negative")
        super().__init__(child.schema, child)
        self.keys = list(keys)
        self.limit = limit
        self._buffer: Optional[List[_OrderedRow]] = None
        self._cursor = 0

    @property
    def name(self) -> str:
        return "TopN"

    def describe(self) -> str:
        terms = ", ".join(
            "%r%s" % (key.expression, " DESC" if key.descending else "")
            for key in self.keys
        )
        return "TopN(%d by %s)" % (self.limit, terms)

    def _open(self) -> None:
        self._buffer = None
        self._cursor = 0

    def _rewind(self) -> None:
        # Spool semantics: keep the materialized top-N on rescans.
        self._cursor = 0

    def _key_functions(self):
        return [
            (key.expression.bind(self.child.schema), key.descending)
            for key in self.keys
        ]

    def _row_key(self, row: Row, functions) -> Tuple:
        parts = []
        for fn, descending in functions:
            base = _null_first_key(fn(row))
            parts.append(_Inverted(base) if descending else base)
        return tuple(parts)

    def _materialize(self) -> None:
        functions = self._key_functions()
        buffer: List[_OrderedRow] = []
        while True:
            row = self.child.get_next()
            if row is None:
                break
            self._offer(buffer, functions, row)
        self._buffer = buffer

    def _offer(self, buffer: List[_OrderedRow], functions, row: Row) -> None:
        """Keep ``row`` if it is among the ``limit`` smallest seen so far.

        Once the buffer is full nearly every row loses on its first key
        alone; that is decided on the bare values before a key tuple, an
        ``_Inverted`` or an ``_OrderedRow`` exists.  The test is strict — a
        tie on the first key, a NULL or a ``nan`` goes on to the full
        comparison, which stays the only arbiter of what is kept.
        """
        limit = self.limit
        if len(buffer) < limit:
            bisect.insort(buffer, _OrderedRow(self._row_key(row, functions), row))
            return
        if limit == 0:
            return  # the child is still drained (blocking contract)
        fn, descending = functions[0]
        value, worst = fn(row), buffer[-1].key[0]
        if descending:
            low, high = value, worst.value[1]
        else:
            low, high = worst[1], value
        # ``low`` strictly precedes ``high`` in ascending NULL-first order:
        # the row comes after the worst kept one
        if high is not None and (low is None or low < high):
            return
        entry = _OrderedRow(self._row_key(row, functions), row)
        if entry < buffer[-1]:
            bisect.insort(buffer, entry)
            buffer.pop()

    def _next(self) -> Optional[Row]:
        if self._buffer is None:
            self._materialize()
        assert self._buffer is not None
        if self._cursor >= len(self._buffer):
            return None
        row = self._buffer[self._cursor].row
        self._cursor += 1
        return row

    def _close(self) -> None:
        self._buffer = None

    def materialized_count(self) -> Optional[int]:
        """Exact output cardinality once the input is drained, else None."""
        return None if self._buffer is None else len(self._buffer)


class _Inverted:
    """Reverses the ordering of any comparable value (for DESC keys)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Inverted") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Inverted) and self.value == other.value
