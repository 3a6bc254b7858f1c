"""Index seek: an index-driven leaf access path.

``IndexSeek`` performs an equality or range lookup through a sorted index
and streams the matching base rows in key order.  It is one of the
nested-iteration operators the paper's scan-based class excludes (§5.4):
together with ⋈NL and ⋈INL it can make the amount of work per input tuple
unbounded and unobservable.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.engine.operators.base import SEEK, LeafOperator
from repro.errors import PlanError
from repro.storage.index import SortedIndex
from repro.storage.table import Row


class IndexSeek(LeafOperator):
    """Range (or equality) scan through a sorted index.

    ``low``/``high`` bound the key range; either may be None for an open
    end.  The output schema is the base table's, re-qualified by ``alias``.
    """

    kind = SEEK
    is_nested_iteration = True

    def __init__(
        self,
        index: SortedIndex,
        low: Optional[object] = None,
        high: Optional[object] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        alias: Optional[str] = None,
    ) -> None:
        if low is None and high is None and not (low_inclusive and high_inclusive):
            raise PlanError("an unbounded index seek cannot be exclusive")
        qualifier = alias or index.table.name
        super().__init__(index.table.schema.qualified(qualifier))
        self.index = index
        self.alias = qualifier
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self._iterator: Optional[Iterator[Row]] = None

    @property
    def name(self) -> str:
        return "IndexSeek"

    def describe(self) -> str:
        low = "*" if self.low is None else repr(self.low)
        high = "*" if self.high is None else repr(self.high)
        return "IndexSeek(%s.%s in %s%s, %s%s)" % (
            self.index.table.name,
            self.index.column,
            "[" if self.low_inclusive else "(",
            low,
            high,
            "]" if self.high_inclusive else ")",
        )

    def _open(self) -> None:
        self._iterator = self.index.range_scan(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )

    def _next(self) -> Optional[Row]:
        assert self._iterator is not None
        return next(self._iterator, None)

    def _close(self) -> None:
        self._iterator = None

    def exact_match_count(self) -> int:
        """Exact number of rows this seek will return (index metadata)."""
        return self.index.range_count(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )
