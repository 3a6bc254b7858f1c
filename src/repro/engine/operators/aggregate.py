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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.expressions import BoundFn, ColumnRef, Expression
from repro.engine.operators.base import (
    AGG_HASH,
    AGG_STREAM,
    Operator,
    UnaryOperator,
)
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


#: ``(bind, emit)`` compiled from a layout's text, by the layout's shape
#: (what the text depends on): an operator binds its update and emit at
#: open without writing or compiling the text again.  Unlocked (a lost race
#: compiles one text twice, both results the same code); cleared when full.
_KERNELS: Dict[str, Tuple[Callable, Callable]] = {}
_KERNEL_CACHE_LIMIT = 256


class GroupLayout:
    """Where one aggregate operator keeps a group's running state.

    A group is a flat list of slots, decided once from the specs: one
    ``count(*)`` slot if any spec needs it, a count slot for each
    COUNT/AVG, a sum slot for each SUM/AVG, a min or max slot for each
    MIN/MAX.  Nothing else is kept, so a spec never evaluates a comparison
    or an addition it does not read.

    The layout is written as Python text — the update of a group from one
    row and the tuple its finalize yields — and every engine runs that one
    text: the fused engine inlines it into its generated pipeline loop,
    the interpreter binds it as two functions per operator
    (:meth:`kernels`), the columnar engine makes its placeholders and its
    row fallback from it.  Semantics: NULLs are
    ignored; SUM adds only non-bool ``int``/``float`` values and keeps the
    first one as it is (an ``int`` stays an ``int``, ``-0.0`` stays
    ``-0.0``); MIN/MAX keep the first extremal value; AVG is NULL on a zero
    count.
    """

    def __init__(self, specs: Sequence["AggregateSpec"]) -> None:
        self.specs = tuple(specs)
        #: distinct argument expressions (by identity), in first-use order:
        #: each is evaluated once per row
        self.arguments: List[Expression] = []
        #: per spec, the index of its argument (None for COUNT(*)), and its slots
        self.argument_of: List[Optional[int]] = []
        self._slots: List[Tuple[int, ...]] = []
        initial: List[object] = []
        self.count_star: Optional[int] = None
        positions: Dict[int, int] = {}
        for spec in self.specs:
            kind = spec.kind
            if kind is AggregateKind.COUNT_STAR:
                if self.count_star is None:
                    self.count_star = len(initial)
                    initial.append(0)
                self.argument_of.append(None)
                self._slots.append((self.count_star,))
                continue
            position = positions.setdefault(id(spec.argument), len(self.arguments))
            if position == len(self.arguments):
                self.arguments.append(spec.argument)
            self.argument_of.append(position)
            if kind is AggregateKind.AVG:
                self._slots.append((len(initial), len(initial) + 1))
                initial += [0, None]
            else:
                self._slots.append((len(initial),))
                initial.append(0 if kind is AggregateKind.COUNT else None)
        self.initial = initial
        #: a new group as a list literal
        self.fresh_source = repr(initial)
        #: everything the update and finalize text depend on
        self.shape = ",".join([
            "%s:%s" % (spec.kind.name, argument)
            for spec, argument in zip(self.specs, self.argument_of)
        ])

    def new_group(self) -> List[object]:
        return self.initial[:]

    def update_source(self, group: str, values: Sequence[Tuple[str, str]]) -> List[str]:
        """Statements folding one row into the list named ``group``.

        ``values[a]`` is ``(name, expression)`` for argument ``a``: the
        statements assign the expression's value to the name, then update
        the slots of every spec reading it.  Nested lines are indented by
        four spaces.
        """
        lines: List[str] = []
        if self.count_star is not None:
            lines.append("%s[%d] += 1" % (group, self.count_star))
        for position, (value, expression) in enumerate(values):
            lines.append("%s = %s" % (value, expression))
            lines.append("if %s is not None:" % (value,))
            sums: List[int] = []
            for spec, argument, slots in zip(self.specs, self.argument_of, self._slots):
                if argument != position:
                    continue
                kind = spec.kind
                if kind is AggregateKind.COUNT or kind is AggregateKind.AVG:
                    lines.append("    %s[%d] += 1" % (group, slots[0]))
                if kind is AggregateKind.SUM or kind is AggregateKind.AVG:
                    sums.append(slots[-1])
                elif kind is AggregateKind.MIN or kind is AggregateKind.MAX:
                    test = "<" if kind is AggregateKind.MIN else ">"
                    lines.append("    cur = %s[%d]" % (group, slots[0]))
                    lines.append("    if cur is None or %s %s cur: %s[%d] = %s" % (
                        value, test, group, slots[0], value,
                    ))
            if sums:
                # `cls is not bool and isinstance(...)` is the bool-excluding
                # numeric guard, with the common int/float case answered by
                # two identity checks.
                lines.append("    cls = %s.__class__" % (value,))
                lines.append("    if cls is float or cls is int or (cls is not"
                             " bool and isinstance(%s, (int, float))):" % (value,))
                for slot in sums:
                    lines.append("        cur = %s[%d]" % (group, slot))
                    lines.append("        %s[%d] = %s if cur is None else cur + %s" % (
                        group, slot, value, value,
                    ))
        return lines

    def finalize_source(self, group: str) -> str:
        """The aggregate values of the list named ``group``, as a tuple."""
        values = []
        for slots in self._slots:
            if len(slots) == 2:  # AVG: count, sum
                values.append("(None if %s[%d] == 0 else %s[%d] / %s[%d])" % (
                    group, slots[0], group, slots[1], group, slots[0],
                ))
            else:
                values.append("%s[%d]" % (group, slots[0]))
        return "(%s%s)" % (", ".join(values), "," if len(values) == 1 else "")

    def kernels(self) -> Tuple[Callable, Callable]:
        """``(bind, emit)``: ``bind(*fns)`` returns ``update(group, row)``
        over :attr:`arguments` bound in order to ``fns``; ``emit(key,
        group)`` returns the group's output row."""
        kernels = _KERNELS.get(self.shape)
        if kernels is None:
            names = ["a%d" % (a,) for a in range(len(self.arguments))]
            lines = self.update_source(
                "g", [("v" + name[1:], name + "(row)") for name in names]
            ) or ["pass"]
            text = (
                "def bind(%s):\n    def update(g, row):\n%s\n    return update\n"
                "def emit(key, g):\n    return key + %s\n" % (
                    ", ".join(names), "\n".join("        " + line for line in lines),
                    self.finalize_source("g"),
                )
            )
            namespace: dict = {}
            exec(compile(text, "<aggregate>", "exec"), {}, namespace)
            if len(_KERNELS) >= _KERNEL_CACHE_LIMIT:
                _KERNELS.clear()
            kernels = _KERNELS[self.shape] = (namespace["bind"], namespace["emit"])
        return kernels


#: column types SUM/AVG reject: their values are never numbers
_NOT_SUMMABLE = frozenset((ColumnType.STR, ColumnType.DATE, ColumnType.BOOL))


def _aggregate_schema(
    child: Operator,
    group_by: Sequence[Tuple[str, Expression]],
    aggregates: Sequence[AggregateSpec],
) -> Schema:
    """The output schema; rejects SUM/AVG over a non-numeric column.

    A group key or a MIN/MAX over a plain column keeps that column's type;
    COUNT is INT; every other output is FLOAT.
    """
    columns: List[Column] = []
    for name, expression in group_by:
        if isinstance(expression, ColumnRef):
            source = child.schema.column_at(child.schema.index_of(expression.name))
            columns.append(Column(name, source.type, source.nullable))
        else:
            columns.append(Column(name, ColumnType.FLOAT, True))
    for spec in aggregates:
        column_type = spec.output_type
        if isinstance(spec.argument, ColumnRef):
            source = child.schema.column_at(child.schema.index_of(spec.argument.name))
            if spec.kind in (AggregateKind.SUM, AggregateKind.AVG) and (
                source.type in _NOT_SUMMABLE
            ):
                raise PlanError("%s(%s): a %s column cannot be summed" % (
                    spec.kind.value.upper(), spec.argument.name, source.type.name,
                ))
            if spec.kind in (AggregateKind.MIN, AggregateKind.MAX):
                column_type = source.type
        columns.append(Column(spec.output_name, column_type, True))
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
        self.layout = GroupLayout(self.aggregates)
        self._group_fns: List[BoundFn] = []
        #: one per :attr:`GroupLayout.arguments` entry
        self._argument_fns: List[BoundFn] = []
        # compiled functions: bound on the first _next, dropped at close (a
        # closed plan pickles)
        self._update: Optional[Callable[[list, Row], None]] = None
        self._emit: Optional[Callable[[Tuple[object, ...], list], Row]] = None

    def _bind(self) -> None:
        schema = self.child.schema
        self._group_fns = [expression.bind(schema) for _, expression in self.group_by]
        self._argument_fns = [argument.bind(schema) for argument in self.layout.arguments]
        bind, self._emit = self.layout.kernels()
        self._update = bind(*self._argument_fns)

    def _group_key(self, row: Row) -> Tuple[object, ...]:
        return tuple(fn(row) for fn in self._group_fns)

    def _close(self) -> None:
        self._group_fns = []
        self._argument_fns = []
        self._update = self._emit = None


class HashAggregate(_AggregateBase):
    """Hash-based γ: blocking; groups emitted in first-seen order.

    With no grouping columns this is a scalar aggregate and emits exactly
    one row even over empty input (COUNT = 0, SUM/AVG/MIN/MAX = NULL).
    ``_groups`` maps each key to its :class:`GroupLayout` list; it fills
    during the build on every engine, so mid-build observers read
    :meth:`groups_seen` at the same value everywhere.
    """

    kind = AGG_HASH
    is_blocking = True

    def __init__(self, child, group_by, aggregates) -> None:
        super().__init__(child, group_by, aggregates)
        self._groups: Dict[Tuple[object, ...], list] = {}
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
        self._groups = {}
        self._materialized = False
        self._output = None

    def _rewind(self) -> None:
        # Keep the materialized groups (spool semantics on ⋈NL rescans):
        # the next pull emits them again.
        self._output = None

    def _materialize(self) -> None:
        if self._update is None:
            self._bind()
        groups = self._groups
        get = groups.get
        update = self._update
        group_key = self._group_key
        new_group = self.layout.new_group
        child = self.child
        while True:
            row = child.get_next()
            if row is None:
                break
            key = group_key(row)
            group = get(key)
            if group is None:
                group = groups[key] = new_group()
            update(group, row)
        if not self.group_by and not groups:
            groups[()] = new_group()
        self._materialized = True

    def groups_seen(self) -> int:
        """Distinct groups accumulated so far (grows during the build)."""
        return len(self._groups)

    @property
    def input_consumed(self) -> bool:
        return self._materialized

    def _next(self) -> Optional[Row]:
        if self._output is None:
            if not self._materialized:
                self._materialize()
            emit = self._emit
            self._output = iter(
                [emit(key, group) for key, group in self._groups.items()]
            )
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

    kind = AGG_STREAM

    @property
    def name(self) -> str:
        return "StreamAggregate"

    def describe(self) -> str:
        return "StreamAggregate(by=%s, aggs=%s)" % (
            [name for name, _ in self.group_by],
            [spec.output_name for spec in self.aggregates],
        )

    def _open(self) -> None:
        self._pending_row: Optional[Row] = None
        self._started = False
        self._exhausted = False

    def _next(self) -> Optional[Row]:
        if self._exhausted:
            return None
        if not self._started:
            self._started = True
            if self._update is None:
                self._bind()
            self._pending_row = self.child.get_next()
            if self._pending_row is None:
                self._exhausted = True
                if not self.group_by:
                    return self._emit((), self.layout.new_group())
                return None
        if self._pending_row is None:
            self._exhausted = True
            return None
        key = self._group_key(self._pending_row)
        group = self.layout.new_group()
        update = self._update
        while self._pending_row is not None and self._group_key(self._pending_row) == key:
            update(group, self._pending_row)
            self._pending_row = self.child.get_next()
        return self._emit(key, group)
