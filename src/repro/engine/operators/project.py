"""Projection (π): compute named output expressions per input row."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.expressions import BoundFn, ColumnRef, Expression
from repro.engine.operators.base import Operator, UnaryOperator
from repro.errors import PlanError
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Row


def infer_output_column(
    name: str, expression: Expression, input_schema: Schema
) -> Column:
    """Best-effort output column typing.

    Plain column references keep the referenced column's type; computed
    expressions default to FLOAT (sufficient for this engine's workloads,
    and rows themselves are never re-validated downstream).
    """
    if isinstance(expression, ColumnRef):
        position = input_schema.index_of(expression.name)
        source = input_schema.column_at(position)
        return Column(name, source.type, source.nullable)
    return Column(name, ColumnType.FLOAT, True)


class Project(UnaryOperator):
    """Compute ``(name, expression)`` outputs for every input row.

    The output schema is unqualified unless ``qualifier`` is given.
    """

    def __init__(
        self,
        child: Operator,
        outputs: Sequence[Tuple[str, Expression]],
        qualifier: Optional[str] = None,
    ) -> None:
        if not outputs:
            raise PlanError("projection needs at least one output")
        columns = [
            infer_output_column(name, expression, child.schema)
            for name, expression in outputs
        ]
        super().__init__(Schema.of(qualifier, columns), child)
        self.outputs = list(outputs)
        self._bound: List[BoundFn] = []
        self._project: Optional[Callable[[Row], Row]] = None

    @property
    def name(self) -> str:
        return "Project"

    def describe(self) -> str:
        return "Project(%s)" % (", ".join(name for name, _ in self.outputs),)

    def _open(self) -> None:
        schema = self.child.schema
        self._bound = [
            expression.bind(schema) for _, expression in self.outputs
        ]
        # Specialize the whole-row projector once per open: a pure column
        # selection becomes a C-level itemgetter, small computed projections
        # an unrolled tuple build.  Both engines route rows through it.
        expressions = [expression for _, expression in self.outputs]
        if all(isinstance(e, ColumnRef) for e in expressions):
            positions = [schema.index_of(e.name) for e in expressions]
            if len(positions) == 1:
                p = positions[0]
                self._project = lambda row: (row[p],)
            else:
                self._project = itemgetter(*positions)
        elif len(self._bound) == 1:
            (f0,) = self._bound
            self._project = lambda row: (f0(row),)
        elif len(self._bound) == 2:
            f0, f1 = self._bound
            self._project = lambda row: (f0(row), f1(row))
        elif len(self._bound) == 3:
            f0, f1, f2 = self._bound
            self._project = lambda row: (f0(row), f1(row), f2(row))
        else:
            bound = self._bound
            self._project = lambda row: tuple([fn(row) for fn in bound])

    def _next(self) -> Optional[Row]:
        row = self.child.get_next()
        if row is None:
            return None
        assert self._project is not None
        return self._project(row)

    def _close(self) -> None:
        self._bound = []
        self._project = None
