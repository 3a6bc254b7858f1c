"""Merge join (⋈merge): equality join over inputs sorted on the join keys.

Each input is consumed exactly once (duplicate key groups on the right are
buffered), so merge join belongs to the paper's scan-based class when fed by
sorts or ordered scans (§5.4, "if the join operator is a sort-merge join
where each input is sorted, we obtain a similar result").
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.expressions import BoundFn, Expression
from repro.engine.operators.base import BinaryOperator, Operator
from repro.errors import ExecutionError
from repro.storage.table import Row


class MergeJoin(BinaryOperator):
    """Sorted-input equality join; verifies input order as it consumes."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: Expression,
        right_key: Expression,
        linear: bool = False,
    ) -> None:
        super().__init__(left.schema.concat(right.schema), left, right)
        self.left_key = left_key
        self.right_key = right_key
        self.is_linear = linear
        self._left_fn: Optional[BoundFn] = None
        self._right_fn: Optional[BoundFn] = None
        self._left_row: Optional[Row] = None
        self._right_row: Optional[Row] = None
        self._right_group: List[Row] = []
        self._group_key: Optional[object] = None
        self._group_cursor = 0
        self._left_started = False
        self._last_left_key: Optional[object] = None
        self._last_right_key: Optional[object] = None

    @property
    def name(self) -> str:
        return "MergeJoin"

    def describe(self) -> str:
        return "MergeJoin(%r = %r)" % (self.left_key, self.right_key)

    def _open(self) -> None:
        self._left_fn = self.left_key.bind(self.left.schema)
        self._right_fn = self.right_key.bind(self.right.schema)
        self._left_row = None
        self._right_row = None
        self._right_group = []
        self._group_key = None
        self._group_cursor = 0
        self._left_started = False
        self._last_left_key = None
        self._last_right_key = None

    def _advance_left(self) -> Optional[object]:
        assert self._left_fn is not None
        while True:
            self._left_row = self.left.get_next()
            if self._left_row is None:
                return None
            key = self._left_fn(self._left_row)
            if key is None:
                continue  # NULLs never join
            if self._last_left_key is not None and key < self._last_left_key:  # type: ignore[operator]
                raise ExecutionError("merge join: left input not sorted on key")
            self._last_left_key = key
            return key

    def _advance_right(self) -> Optional[object]:
        assert self._right_fn is not None
        while True:
            self._right_row = self.right.get_next()
            if self._right_row is None:
                return None
            key = self._right_fn(self._right_row)
            if key is None:
                continue
            if self._last_right_key is not None and key < self._last_right_key:  # type: ignore[operator]
                raise ExecutionError("merge join: right input not sorted on key")
            self._last_right_key = key
            return key

    def _load_right_group(self, key: object) -> None:
        """Buffer all right rows equal to ``key``; leaves cursor past them."""
        self._right_group = []
        assert self._right_fn is not None
        while self._right_row is not None and self._right_fn(self._right_row) == key:
            self._right_group.append(self._right_row)
            self._advance_right()
        self._group_key = key

    def _next(self) -> Optional[Row]:
        assert self._left_fn is not None and self._right_fn is not None
        if not self._left_started:
            self._left_started = True
            if self._advance_left() is None:
                return None
            self._advance_right()
        while True:
            if self._left_row is None:
                return None
            left_key = self._left_fn(self._left_row)
            # Emit buffered matches for the current left row.
            if self._group_key is not None and left_key == self._group_key:
                if self._group_cursor < len(self._right_group):
                    joined = self._left_row + self._right_group[self._group_cursor]
                    self._group_cursor += 1
                    return joined
                self._group_cursor = 0
                if self._advance_left() is None:
                    return None
                continue
            # Align the right side with the current left key.
            while (
                self._right_row is not None
                and self._right_fn(self._right_row) < left_key  # type: ignore[operator]
            ):
                self._advance_right()
            if self._right_row is not None and self._right_fn(
                self._right_row
            ) == left_key:
                self._load_right_group(left_key)
                self._group_cursor = 0
                continue
            # No right match for this left key.
            self._group_key = None
            self._right_group = []
            if self._advance_left() is None:
                return None

    def _close(self) -> None:
        self._left_fn = self._right_fn = None
        self._right_group = []
