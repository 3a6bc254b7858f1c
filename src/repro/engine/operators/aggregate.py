"""Grouping and aggregation (γ): hash-based and stream variants.

:class:`HashAggregate` is blocking (it consumes its whole input before
emitting groups) and therefore ends a pipeline.  :class:`StreamAggregate`
requires input sorted on the grouping keys and emits each group as it
closes, staying inside the pipeline — this distinction matters to the
pipeline decomposition that the dne estimator is built on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.expressions import BoundFn, ColumnRef, Expression
from repro.engine.operators.base import Operator, UnaryOperator
from repro.errors import PlanError
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Row


class AggregateKind(enum.Enum):
    COUNT_STAR = "count(*)"
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: a kind, its argument, and an output name."""

    kind: AggregateKind
    argument: Optional[Expression]
    output_name: str

    def __post_init__(self) -> None:
        needs_argument = self.kind is not AggregateKind.COUNT_STAR
        if needs_argument and self.argument is None:
            raise PlanError("%s needs an argument" % (self.kind.value,))

    @property
    def output_type(self) -> ColumnType:
        if self.kind in (AggregateKind.COUNT_STAR, AggregateKind.COUNT):
            return ColumnType.INT
        return ColumnType.FLOAT


def count_star(output_name: str = "count") -> AggregateSpec:
    return AggregateSpec(AggregateKind.COUNT_STAR, None, output_name)


def count(argument: Expression, output_name: str = "count") -> AggregateSpec:
    return AggregateSpec(AggregateKind.COUNT, argument, output_name)


def agg_sum(argument: Expression, output_name: str = "sum") -> AggregateSpec:
    return AggregateSpec(AggregateKind.SUM, argument, output_name)


def agg_avg(argument: Expression, output_name: str = "avg") -> AggregateSpec:
    return AggregateSpec(AggregateKind.AVG, argument, output_name)


def agg_min(argument: Expression, output_name: str = "min") -> AggregateSpec:
    return AggregateSpec(AggregateKind.MIN, argument, output_name)


def agg_max(argument: Expression, output_name: str = "max") -> AggregateSpec:
    return AggregateSpec(AggregateKind.MAX, argument, output_name)


class _Accumulator:
    """Running state for all aggregates of one group."""

    __slots__ = ("count_star", "counts", "sums", "mins", "maxs")

    def __init__(self, spec_count: int) -> None:
        self.count_star = 0
        self.counts = [0] * spec_count
        self.sums: List[Optional[float]] = [None] * spec_count
        self.mins: List[object] = [None] * spec_count
        self.maxs: List[object] = [None] * spec_count

    def update(self, row: Row, argument_fns: Sequence[Optional[BoundFn]]) -> None:
        self.count_star += 1
        for i, fn in enumerate(argument_fns):
            if fn is None:
                continue
            value = fn(row)
            if value is None:
                continue  # SQL aggregates ignore NULLs
            self.counts[i] += 1
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.sums[i] = value if self.sums[i] is None else self.sums[i] + value
            if self.mins[i] is None or value < self.mins[i]:  # type: ignore[operator]
                self.mins[i] = value
            if self.maxs[i] is None or value > self.maxs[i]:  # type: ignore[operator]
                self.maxs[i] = value

    def finalize(self, specs: Sequence[AggregateSpec]) -> Tuple[object, ...]:
        values: List[object] = []
        for i, spec in enumerate(specs):
            if spec.kind is AggregateKind.COUNT_STAR:
                values.append(self.count_star)
            elif spec.kind is AggregateKind.COUNT:
                values.append(self.counts[i])
            elif spec.kind is AggregateKind.SUM:
                values.append(self.sums[i])
            elif spec.kind is AggregateKind.AVG:
                values.append(
                    None if self.counts[i] == 0 else self.sums[i] / self.counts[i]  # type: ignore[operator]
                )
            elif spec.kind is AggregateKind.MIN:
                values.append(self.mins[i])
            else:
                values.append(self.maxs[i])
        return tuple(values)


def _aggregate_schema(
    child: Operator,
    group_by: Sequence[Tuple[str, Expression]],
    aggregates: Sequence[AggregateSpec],
) -> Schema:
    columns: List[Column] = []
    for name, expression in group_by:
        if isinstance(expression, ColumnRef):
            source = child.schema.column_at(child.schema.index_of(expression.name))
            columns.append(Column(name, source.type, source.nullable))
        else:
            columns.append(Column(name, ColumnType.FLOAT, True))
    for spec in aggregates:
        columns.append(Column(spec.output_name, spec.output_type, True))
    return Schema.of(None, columns)


class _AggregateBase(UnaryOperator):
    """Shared machinery for hash and stream aggregation."""

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[Tuple[str, Expression]],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        if not group_by and not aggregates:
            raise PlanError("aggregate needs grouping columns or aggregates")
        super().__init__(_aggregate_schema(child, group_by, aggregates), child)
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self._group_fns: List[BoundFn] = []
        self._argument_fns: List[Optional[BoundFn]] = []

    def _bind(self) -> None:
        self._group_fns = [
            expression.bind(self.child.schema) for _, expression in self.group_by
        ]
        self._argument_fns = [
            spec.argument.bind(self.child.schema) if spec.argument is not None else None
            for spec in self.aggregates
        ]

    def _group_key(self, row: Row) -> Tuple[object, ...]:
        return tuple(fn(row) for fn in self._group_fns)

    def _emit(self, key: Tuple[object, ...], accumulator: _Accumulator) -> Row:
        return key + accumulator.finalize(self.aggregates)

    def _close(self) -> None:
        self._group_fns = []
        self._argument_fns = []


class HashAggregate(_AggregateBase):
    """Hash-based γ: blocking; groups emitted in first-seen order.

    With no grouping columns this is a scalar aggregate and emits exactly
    one row even over empty input (COUNT = 0, SUM/AVG/MIN/MAX = NULL).
    """

    is_blocking = True

    def __init__(self, child, group_by, aggregates) -> None:
        super().__init__(child, group_by, aggregates)
        self._groups: Dict[Tuple[object, ...], _Accumulator] = {}
        self._materialized = False
        self._output: Optional[Iterator[Row]] = None

    @property
    def name(self) -> str:
        return "HashAggregate"

    def describe(self) -> str:
        return "HashAggregate(by=%s, aggs=%s)" % (
            [name for name, _ in self.group_by],
            [spec.output_name for spec in self.aggregates],
        )

    def _open(self) -> None:
        self._bind()
        self._groups: Dict[Tuple[object, ...], _Accumulator] = {}
        self._materialized = False
        self._output: Optional[Iterator[Row]] = None

    def _rewind(self) -> None:
        # Keep the materialized groups (spool semantics on ⋈NL rescans).
        if self._materialized:
            self._output = iter(
                [self._emit(key, acc) for key, acc in self._groups.items()]
            )

    def _materialize(self) -> None:
        # Groups accumulate on self so mid-build observers (progress bound
        # refinement) can see how many groups exist so far.
        while True:
            row = self.child.get_next()
            if row is None:
                break
            key = self._group_key(row)
            accumulator = self._groups.get(key)
            if accumulator is None:
                accumulator = _Accumulator(len(self.aggregates))
                self._groups[key] = accumulator
            accumulator.update(row, self._argument_fns)
        if not self.group_by and not self._groups:
            self._groups[()] = _Accumulator(len(self.aggregates))
        self._materialized = True
        self._output = iter(
            [self._emit(key, acc) for key, acc in self._groups.items()]
        )

    def groups_seen(self) -> int:
        """Distinct groups accumulated so far (grows during the build)."""
        return len(self._groups)

    @property
    def input_consumed(self) -> bool:
        return self._materialized

    def _next(self) -> Optional[Row]:
        if self._output is None:
            self._materialize()
        assert self._output is not None
        return next(self._output, None)

    def _close(self) -> None:
        super()._close()
        self._groups = {}
        self._materialized = False
        self._output = None


class StreamAggregate(_AggregateBase):
    """Order-based γ: input must arrive sorted (clustered) by group key.

    Emits each group when the next key appears, so it does not end the
    pipeline it sits in.
    """

    @property
    def name(self) -> str:
        return "StreamAggregate"

    def describe(self) -> str:
        return "StreamAggregate(by=%s, aggs=%s)" % (
            [name for name, _ in self.group_by],
            [spec.output_name for spec in self.aggregates],
        )

    def _open(self) -> None:
        self._bind()
        self._pending_row: Optional[Row] = None
        self._started = False
        self._exhausted = False

    def _next(self) -> Optional[Row]:
        if self._exhausted:
            return None
        if not self._started:
            self._started = True
            self._pending_row = self.child.get_next()
            if self._pending_row is None:
                self._exhausted = True
                if not self.group_by:
                    return self._emit((), _Accumulator(len(self.aggregates)))
                return None
        if self._pending_row is None:
            self._exhausted = True
            return None
        key = self._group_key(self._pending_row)
        accumulator = _Accumulator(len(self.aggregates))
        while self._pending_row is not None and self._group_key(self._pending_row) == key:
            accumulator.update(self._pending_row, self._argument_fns)
            self._pending_row = self.child.get_next()
        return self._emit(key, accumulator)
