"""The Volcano operator protocol and the properties the paper cares about.

Every physical operator implements ``open`` / ``get_next`` / ``close``.  The
base class owns the bookkeeping the progress-estimation layer reads:

* ``rows_produced`` — counted getnext calls on this node so far;
* ``finished`` — whether the node has returned end-of-stream;
* ``is_blocking`` — whether the node materializes its input before emitting
  (this determines pipeline boundaries, §4.1 of the paper);
* ``is_nested_iteration`` — whether the node re-iterates an input per outer
  row (⋈NL, ⋈INL, index-seek); scan-based plans exclude these (§5.4);
* ``is_linear`` — whether output cardinality is bounded by the largest input
  (σ, π, γ, sort are linear; joins only when declared, e.g. FK joins).

Operators are *re-runnable*: ``open`` fully resets state, so the same plan
object can be executed twice (the work model runs a plan once to measure
``total(Q)`` and again to trace estimators).
"""

from __future__ import annotations

import abc
import itertools
from typing import Iterator, List, Optional, Sequence

from repro.errors import ExecutionError, PlanError
from repro.engine.monitor import ExecutionMonitor
from repro.storage.schema import Schema
from repro.storage.table import Row

_operator_ids = itertools.count(1)


class ExecutionContext:
    """Everything an operator needs at runtime besides its children."""

    def __init__(self, monitor: Optional[ExecutionMonitor] = None) -> None:
        self.monitor = monitor or ExecutionMonitor()


class Operator(abc.ABC):
    """Base class for all physical operators."""

    #: whether getnext calls on this node count toward the work model
    counted: bool = True
    #: whether this node materializes input before producing output
    is_blocking: bool = False
    #: whether this node performs nested iteration (§5.4 exclusion list)
    is_nested_iteration: bool = False

    def __init__(self, schema: Schema, children: Sequence["Operator"]) -> None:
        self.operator_id = next(_operator_ids)
        self.schema = schema
        self.children: List[Operator] = list(children)
        self.rows_produced = 0
        self.finished = False
        self.is_open = False
        #: output cardinality bounded by the largest input (set by planner
        #: for joins when a key/foreign-key relationship is known)
        self.is_linear = True
        self._context: Optional[ExecutionContext] = None

    # -- identity ----------------------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short operator name for explain output, e.g. ``"HashJoin"``."""

    def label(self) -> str:
        return "%s#%d" % (self.name, self.operator_id)

    def describe(self) -> str:
        """One-line description used by explain; override to add detail."""
        return self.name

    # -- lifecycle ----------------------------------------------------------------

    def open(self, context: ExecutionContext) -> None:
        """Reset state and prepare to produce rows."""
        self._context = context
        self.rows_produced = 0
        self.finished = False
        self.is_open = True
        if self.counted:
            context.monitor.register(self.operator_id, self.label())
        for child in self.children:
            child.open(context)
        self._open()

    def get_next(self) -> Optional[Row]:
        """Return the next output row, or None at end of stream."""
        if not self.is_open:
            raise ExecutionError("%s: get_next before open" % (self.label(),))
        if self.finished:
            return None
        row = self._next()
        if row is None:
            self.finished = True
            if self._context is not None:
                self._context.monitor.record_finish(self.operator_id)
            return None
        self.rows_produced += 1
        if self.counted and self._context is not None:
            self._context.monitor.record(self.operator_id)
        return row

    def close(self) -> None:
        if not self.is_open:
            return
        self._close()
        for child in self.children:
            child.close()
        self.is_open = False
        # The context reaches the monitor and, through its observers, the
        # whole instrumentation of the run that just ended: a closed plan
        # must neither keep that alive nor fail to pickle because of it.
        self._context = None

    def rewind(self) -> None:
        """Restart this subtree from the beginning (used by ⋈NL rescans).

        Counters in the monitor keep accumulating across rewinds — each
        rescan's getnext calls are real work under the paper's model.
        """
        if self._context is None:
            raise ExecutionError("%s: rewind before open" % (self.label(),))
        self.finished = False
        self._context.monitor.record_rewind(self.operator_id)
        for child in self.children:
            child.rewind()
        self._rewind()

    def _rewind(self) -> None:
        """Reset output position for a rescan.

        Defaults to a full :meth:`_open`; blocking operators override this to
        keep their materialized state (spool semantics) so ⋈NL rescans do not
        recompute sorts or hash tables.
        """
        self._open()

    # -- subclass hooks --------------------------------------------------------------

    @abc.abstractmethod
    def _open(self) -> None:
        """Initialize per-run state; children are already open."""

    @abc.abstractmethod
    def _next(self) -> Optional[Row]:
        """Produce the next row or None; no counting concerns here."""

    def _close(self) -> None:
        """Release per-run state (optional)."""

    # -- convenience -----------------------------------------------------------------

    def iterate(self, context: Optional[ExecutionContext] = None) -> Iterator[Row]:
        """Open, stream all rows, close — the standard driver loop."""
        context = context or ExecutionContext()
        self.open(context)
        try:
            while True:
                row = self.get_next()
                if row is None:
                    break
                yield row
        finally:
            self.close()

    def run(self, context: Optional[ExecutionContext] = None) -> List[Row]:
        """Execute to completion and materialize the result."""
        return list(self.iterate(context))

    # -- tree walking ------------------------------------------------------------------

    def walk(self) -> Iterator["Operator"]:
        """Pre-order traversal of this operator subtree."""
        yield self
        for child in self.children:
            for descendant in child.walk():
                yield descendant

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`PlanError` on problems."""
        seen = set()
        for operator in self.walk():
            if operator.operator_id in seen:
                raise PlanError(
                    "operator %s appears twice in the plan" % (operator.label(),)
                )
            seen.add(operator.operator_id)

    def __repr__(self) -> str:
        return self.label()


class UnaryOperator(Operator):
    """An operator with exactly one child."""

    def __init__(self, schema: Schema, child: Operator) -> None:
        super().__init__(schema, [child])

    @property
    def child(self) -> Operator:
        return self.children[0]


class BinaryOperator(Operator):
    """An operator with exactly two children (left/outer, right/inner)."""

    def __init__(self, schema: Schema, left: Operator, right: Operator) -> None:
        super().__init__(schema, [left, right])

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]


class LeafOperator(Operator):
    """An operator with no children (scans, seeks, row sources)."""

    def __init__(self, schema: Schema) -> None:
        super().__init__(schema, [])
