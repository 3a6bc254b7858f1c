"""Fused pipeline compiler: one generated loop per pipeline.

The interpreted engine walks the Volcano tree one row at a time: every row
pays an abstract ``get_next`` per plan level, a Python frame per expression
node and two listener/observer loops inside :meth:`ExecutionMonitor.record`.
This module turns an *opened* plan into Python source by produce/consume
(:meth:`_Compiler._produce`): every operator kind contributes the code for
"a row of mine exists" and asks its parent for the body, so a maximal
non-blocking chain — scan, σ, π, ``Distinct``, the probe side of ⋈hash, the
outer side of ⋈INL, the left side of ⋈merge, stream-γ — becomes one ``for``
nest that pushes straight into the state of the blocking operator ending it
(``HashJoin._table``, ``HashAggregate._groups``, ``Sort._rows``, the ``TopN``
buffer, the result list), with predicates, keys and aggregate arguments
inlined by :func:`repro.engine.expressions.to_source`.  A plan is one
function; a subtree some consumer must *pull* from (a child of the generic
adapter, the right input of ⋈merge) is a generator function whose top
pipeline ends in ``yield``.
:func:`generated_source` shows the text.

The text depends only on plan shape and schema positions: operators,
literals, tables and helper callables reach the function through its one
argument ``K``, so :data:`_CODE` memoises text → function across plans,
runs and threads (``compile()`` costs about a millisecond per plan).

Generating and binding are two steps.  :meth:`_Compiler.program` writes
the text, compiles it (or finds it in :data:`_CODE`), collects its
constants — the operators, the :class:`_Accounting` cells and the
adapter's shims among them — once.  :meth:`_Compiler.run` then binds
that program to one run's monitor (pending cells and budget zeroed, shims
installed), calls it, and releases it (counts flushed, shims removed,
suspended iterators and the monitor dropped), so nothing of a run stays
reachable from the program afterwards.  The progress runner keeps a
plan's drained program in the plan's prepared analysis and binds it again
on every later run; ``execute()``, ``measure_total_work`` and the columnar
engine's fallback generate per run.

Accounting is batched but **tick-exact**.  A pipeline that neither yields
nor pulls from a row source counts its ticks in frame locals and runs a
local copy of the shared budget (``monitor.ticks_until_next_observer()``)
down; when that reaches zero — and before the pipeline's finish events, and
in a ``finally`` — the counts are written back to ``rows_produced`` and the
:class:`_Accounting` cells and applied via ``record_batch``.  The cumulative
total then lands *exactly* on the next cadence multiple, so every observer
fires at precisely the interpreter's tick number and sees the same
per-operator counts and live operator state (blocking operators mutate
their ordinary fields), and a failing expression still leaves the monitor
holding every tick that happened.  Pipelines that yield or pull keep their
counts in the shared cells row by row, because the code they alternate with
ticks too.  Tick events reach listeners coalesced per batch; that is exact
for the listener channel's consumers (the bounds tracker and the runner)
because their per-event work is additive or idempotent.

Operators without a translation (``Limit``, ⋈NL, ``UnionAll``, index
seeks, random-order scans, user-defined operators) run through one generic
adapter that drives the operator's own ``_next`` while its children are
temporarily shimmed to pull from their compiled generators.

Entry point: :func:`run_fused`; callers normally go through
``repro.engine.executor.execute(plan, engine="fused")``.  An instrumented
run drains instead (``keep_rows=False``): the root sink is an empty
statement, so the program builds no result list.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from repro.engine.expressions import SourceContext, reject_source, to_source
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import (
    LIMIT,
    NL_JOIN,
    UNION,
    ExecutionContext,
    Operator,
)
from repro.engine.operators.aggregate import HashAggregate, StreamAggregate
from repro.engine.operators.filter import Filter
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.index_nested_loops import IndexNestedLoopsJoin
from repro.engine.operators.misc import Distinct
from repro.engine.operators.project import Project
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort, sort_rows
from repro.errors import ExecutionError
from repro.engine.operators.topn import TopN
from repro.storage.table import Row

#: budget when no cadence observer is attached: flushes then happen at
#: finish events and, harmlessly, every 2**29 ticks (a one-digit int counts
#: down 6 ns a tick faster than 1 << 62 did)
_UNBOUNDED = 1 << 29
#: generated functions by their text, shared by every plan of that shape in
#: the process; cleared when full.  Unlocked: a lost race compiles a text
#: twice and keeps either function, and both are the same code.
_CODE_CACHE_LIMIT = 256
_CODE: Dict[str, Callable] = {}
#: join match loops one generated pipeline may nest before the chain below
#: is cut off into a generator of its own (CPython allows 20 nested blocks)
_MAX_LOOPS = 12
#: what generated functions see besides their argument
_GLOBALS = {
    "ExecutionError": ExecutionError,
    "sort_rows": sort_rows,
}


class _Accounting:
    """Pending per-operator tick counts plus the shared observer budget.

    ``budget[0]`` is the number of ticks that may still be produced before
    a cadence observer is due; generated code decrements it (or a frame
    local copy of it) and calls :meth:`flush` when it reaches zero.
    Flushing applies every pending count through ``record_batch`` — the
    batch that crosses the cadence multiple is by construction the one that
    lands exactly on it, so the observer fires at the interpreted engine's
    tick number with all counts applied.
    """

    __slots__ = ("monitor", "budget", "_cells")

    def __init__(self) -> None:
        self.monitor: Optional[ExecutionMonitor] = None  # set per run
        self.budget = [0]
        self._cells: List[tuple] = []

    def bind(self, monitor: ExecutionMonitor) -> None:
        """Count the next run on ``monitor``, from zero.

        A run that raised inside :meth:`flush` (a cancel) left the cells
        after the raising one holding counts; they belong to that run.
        """
        self.monitor = monitor
        for _, pending in self._cells:
            pending[0] = 0
        self.reset_budget()

    def cell(self, op: Operator) -> List[int]:
        pending = [0]
        self._cells.append((op.operator_id, pending))
        return pending

    def writer(self, ops: List[Operator]) -> Callable[..., None]:
        """The write-back of one pipeline's frame-local counts.

        Driver first, so a reader between two writes never sees an operator
        ahead of its input.  It cannot raise; the flush that may is a
        separate step (:meth:`refill`), taken once the locals are zeroed,
        so a cancel or a failing observer is never counted twice.
        """
        pairs = [(op, self.cell(op)) for op in ops]

        def write(*counts: int) -> None:
            for (op, pending), n in zip(pairs, counts):
                op.rows_produced += n
                pending[0] += n

        return write

    def reset_budget(self) -> None:
        headroom = self.monitor.ticks_until_next_observer()
        self.budget[0] = _UNBOUNDED if headroom is None else headroom

    def flush(self) -> None:
        record_batch = self.monitor.record_batch
        for op_id, pending in self._cells:
            n = pending[0]
            if n:
                pending[0] = 0
                record_batch(op_id, n)
        self.reset_budget()

    def refill(self) -> int:
        self.flush()
        return self.budget[0]

    def finish(self, op: Operator) -> None:
        """End-of-stream on ``op``: flush, then emit its finish event.

        The flush must come first — a pipeline-boundary finish forces an
        observer round, which has to see every tick up to this instant.
        """
        self.flush()
        op.finished = True
        self.monitor.record_finish(op.operator_id)

    def rewind(self, op: Operator) -> None:
        """Restart ``op``'s subtree for a rescan, pending ticks applied first.

        In the interpreted engine the tick that *caused* the rescan (the
        ⋈NL outer row) is recorded before the inner subtree rewinds, so
        event-stream consumers must see the same accumulation at the rewind
        instant.  ``Operator.rewind`` is the interpreter's own cascade
        (pre-order events, post-order ``_rewind``, spool semantics); called
        on the class because an adapter's child carries a shim of that name.
        """
        self.flush()
        type(op).rewind(op)


class _Node:
    """A row source: a pull iterator over one operator's output.

    ``make()`` returns a fresh single-pass iterator; it may be called again
    only after the subtree was rewound (⋈NL rescans).  ``why`` says, for
    :func:`generated_source`, why the operator is not inlined; ``gen`` holds
    the current pass's iterator for shimmed adapter children, and is
    dropped when the run is released.
    """

    __slots__ = ("op", "make", "why", "gen")

    def __init__(self, op: Operator, make: Callable[[], Iterator[Row]],
                 why: str) -> None:
        self.op = op
        self.make = make
        self.why = why
        self.gen: Optional[Iterator[Row]] = None


class _Pipeline:
    """The loop nest being emitted: who ticks in it, and how it counts."""

    __slots__ = ("head", "local", "stages", "ops", "counters", "sites")

    def __init__(self, head: int, local: bool) -> None:
        self.head = head  # index of the header line, written on close
        self.local = local  # counts in frame locals (else the shared cells)
        self.stages: List[str] = []  # what the header line will name
        self.ops: List[Operator] = []
        self.counters: List[str] = []
        self.sites: List[int] = []  # lines awaiting the write-back text


class _Gen(SourceContext):
    """One function while it is written: its lines and its constants, and
    the context :func:`repro.engine.expressions.to_source` emits against."""

    def __init__(self, acct: _Accounting) -> None:
        super().__init__([acct.budget, acct.flush, acct.finish, acct.refill])
        self.lines: List[str] = []
        self.pipelines = 0
        self.pipe: Optional[_Pipeline] = None

    def emit(self, ind: str, text: str) -> None:
        self.lines.append(ind + text)

    def sink(self, stage: str, statement: str):
        """A consume that ends the pipeline in one statement over the row,
        or in none when ``statement`` is empty."""
        def consume(row: str, ind: str) -> None:
            self.pipe.stages.append(stage)
            if statement:
                self.emit(ind, statement % (row,))
        return consume

    def value(self, expression, row: str, schema) -> str:
        self.row, self.schema = row, schema
        return to_source(expression, self)

    def reject(self, expression, row: str, schema) -> str:
        self.row, self.schema = row, schema
        return reject_source(expression, self)


class _Compiler:
    """Generates the functions that execute a plan, then binds them to one
    run at a time.

    :meth:`program` writes, compiles and collects everything once; each
    :meth:`run` binds the result to its monitor, calls it and releases
    it, so one compiler may run the same plan any number of times.
    """

    def __init__(self) -> None:
        self.acct = _Accounting()
        #: (child, its row source, get_next, rewind): what the adapter
        #: shadows a child's methods with while a run is bound
        self.shims: List[tuple] = []
        #: text of every function generated, for :func:`generated_source`
        self.sources: List[str] = []
        #: the plan's function and its argument, once :meth:`program` ran
        self.entry: Optional[tuple] = None

    # -- entry points ---------------------------------------------------------------

    def program(self, root: Operator, keep_rows: bool = True):
        """The function that runs the whole tree, and its argument.

        With ``keep_rows`` the root sink appends each row to the list the
        function returns; without it the root sink emits nothing — every
        operator, the root's own ticks and expressions included, still
        runs, but no row is kept and the function returns None.  The two
        texts differ, so :data:`_CODE` holds each once.
        """
        g = _Gen(self.acct)
        if keep_rows:
            g.emit("    ", "out = []; push = out.append")
            self._produce(g, root, "    ", g.sink("result", "push(%s)"), False)
            self.entry = self._function(g, "\n    return out"), g.consts
        else:
            self._produce(g, root, "    ", g.sink("drain", ""), False)
            self.entry = self._function(g), g.consts
        return self.entry

    def run(self, monitor: ExecutionMonitor) -> Optional[List[Row]]:
        """Execute the opened tree :meth:`program` was written for, counted
        on ``monitor``; its rows, in order, or None when the program keeps
        none."""
        function, consts = self.entry
        try:
            self.bind(monitor)
            return function(consts)
        finally:
            self.release()

    def bind(self, monitor: ExecutionMonitor) -> None:
        """Point the program at ``monitor`` and shadow the adapter's
        children, for one run."""
        self.acct.bind(monitor)
        for child, _, get_next, rewind in self.shims:
            child.get_next = get_next  # type: ignore[method-assign]
            child.rewind = rewind  # type: ignore[method-assign]

    def release(self) -> None:
        """End the bound run: nothing of it stays reachable from here."""
        try:
            # On an exception mid-batch the pending counts are still applied
            # so the monitor reflects every getnext that actually happened
            # (a partial batch can never cross a cadence multiple, so no
            # observer fires here).
            self.acct.flush()
        finally:
            self.remove_shims()
            self.acct.monitor = None

    def compile(self, op: Operator) -> _Node:
        """``op``'s subtree as a row source for a consumer that pulls."""
        node = self._source(op)
        if node is None:
            g = _Gen(self.acct)
            self._produce(g, op, "    ", g.sink("yield", "yield %s"), True)
            node = _Node(op, partial(self._function(g), g.consts), "pulled")
        return node

    def _function(self, g: _Gen, tail: str = "") -> Callable:
        """Close ``g``'s text and return its function, compiled at most once
        per text in the process (a compile costs about a millisecond)."""
        text = "def program(K):\n    B, flush, fin, refill%s = K\n%s%s" % (
            "".join(", k%d" % (i,) for i in range(4, len(g.consts))),
            "\n".join(g.lines), tail,
        )
        self.sources.append(text)
        function = _CODE.get(text)
        if function is None:
            namespace: dict = {}
            exec(compile(text, "<fused>", "exec"), _GLOBALS, namespace)
            if len(_CODE) >= _CODE_CACHE_LIMIT:
                _CODE.clear()
            function = _CODE[text] = namespace["program"]
        return function

    def _source(self, op: Operator) -> Optional[_Node]:
        """The row source ``op`` stays, or None if its code is inlined.

        The seam the columnar engine's vector islands plug into.
        """
        kind = type(op)
        if kind in _INLINED and not (
            kind is HashJoin and op.preserve_probe and op.residual is not None
        ):
            return None
        return self._compile_adapter(op)

    # -- produce / consume ---------------------------------------------------------

    def _loop(self, g: _Gen, ind: str, op, k: str, rows: str, consume,
              pulls: bool) -> None:
        """Emit one pipeline: ``for row in rows`` around ``consume``'s code.

        ``op``, bound to the constant ``k``, ticks once per row; None when
        ``rows`` is a row source (``k`` then describes it), which ticks and
        finishes on its own.  The pipeline counts in frame locals unless it
        yields or pulls; its header and the write-back text at its tick
        sites are filled in here, once every operator ticking in it is known.
        """
        g.pipelines += 1
        pipe = g.pipe = _Pipeline(len(g.lines), op is not None and not pulls)
        g.lines.append("")
        body = ind
        if pipe.local:
            g.emit(ind, "try:")
            body += "    "
        row = g.tmp()
        g.emit(body, "for %s in %s:" % (row, rows))
        loop = len(g.lines)
        if op is None:
            pipe.stages.append(k)
        else:
            self._tick(g, body + "    ", op, k)
        consume(row, body + "    ")
        if len(g.lines) == loop:  # a row source the root drains
            g.emit(body + "    ", "pass")
        head = "%s# pipeline %d: %s" % (
            ind, g.pipelines, " -> ".join(pipe.stages)
        )
        if pipe.local:
            counters = ", ".join(pipe.counters)
            zero = " = ".join(pipe.counters) + " = 0"
            writer = g.const(self.acct.writer(pipe.ops))
            g.emit(ind, "finally:")
            g.emit(body, "%s(%s)" % (writer, counters))
            spill = "%s(%s); %s; b = refill()" % (writer, counters, zero)
            for site in pipe.sites:
                g.lines[site] += spill
            head += "\n%s%s; b = B[0]" % (ind, zero)
        g.lines[pipe.head] = head
        g.pipe = None

    def _tick(self, g: _Gen, ind: str, op: Operator, k: str) -> None:
        """One counted row of ``op`` (bound to the constant ``k``)."""
        pipe = g.pipe
        pipe.stages.append(op.name)
        if pipe.local:
            counter = "n" + k[1:]
            pipe.ops.append(op)
            pipe.counters.append(counter)
            g.emit(ind, "%s += 1; b -= 1" % (counter,))
            pipe.sites.append(len(g.lines))
            g.emit(ind, "if not b: ")
        else:
            g.emit(ind, "%s.rows_produced += 1; %s[0] += 1; B[0] -= 1" % (
                k, g.const(self.acct.cell(op)),
            ))
            g.emit(ind, "if B[0] <= 0: flush()")

    def _produce(self, g: _Gen, op: Operator, ind: str, consume,
                 pulls: bool, joins: int = 0) -> None:
        """Emit, at ``ind``, the code that feeds every row of ``op`` to
        ``consume(row, ind)`` and then finishes ``op``.

        ``pulls`` says the rows end in a ``yield`` with no blocking operator
        in between, so the pipelines ``op`` takes part in alternate with
        their consumer's code and count in the shared cells.  ``joins`` is
        the number of match loops the operators above ``op`` nest inside its
        pipeline's loop.
        """
        node = self._source(op)
        if node is None and joins >= _MAX_LOOPS:
            node = self.compile(op)
        if node is not None:
            self._loop(
                g, ind, None, "[%s: %s]" % (op.name, node.why),
                g.const(node.make) + "()", consume, True,
            )
            return
        kind = type(op)
        k = g.const(op)
        child = op.children[0] if op.children else None
        if kind is TableScan or kind is RowSource:
            rows = ".table._rows" if kind is TableScan else ".rows"
            self._loop(g, ind, op, k, k + rows, consume, pulls)
        elif kind is Filter:
            def select(row: str, ind: str) -> None:
                g.emit(ind, "if %s: continue" % (
                    g.reject(op.predicate, row, child.schema),
                ))
                self._tick(g, ind, op, k)
                consume(row, ind)

            self._produce(g, child, ind, select, pulls, joins)
        elif kind is Project:
            def project(row: str, ind: str) -> None:
                out = g.tmp()
                g.emit(ind, "%s = (%s,)" % (out, ", ".join(
                    [g.value(e, row, child.schema) for _, e in op.outputs]
                )))
                self._tick(g, ind, op, k)
                consume(out, ind)

            self._produce(g, child, ind, project, pulls, joins)
        elif kind is Distinct:
            seen = g.tmp()

            def distinct(row: str, ind: str) -> None:
                g.emit(ind, "if %s in %s: continue" % (row, seen))
                g.emit(ind, "%s.add(%s)" % (seen, row))
                self._tick(g, ind, op, k)
                consume(row, ind)

            g.emit(ind, "%s = %s._seen" % (seen, k))
            self._produce(g, child, ind, distinct, pulls, joins)
        elif kind is IndexNestedLoopsJoin:
            lookup = g.tmp()

            def seek(row: str, ind: str) -> None:
                key, inner = g.tmp(), g.tmp()
                g.emit(ind, "%s = %s" % (
                    key, g.value(op.outer_key, row, child.schema)
                ))
                g.emit(ind, "if %s is None: continue" % (key,))
                g.emit(ind, "for %s in %s(%s):" % (inner, lookup, key))
                self._join(g, ind, op, k, "%s + %s" % (row, inner), consume)

            g.emit(ind, "%s = %s.index.lookup" % (lookup, k))
            self._produce(g, child, ind, seek, pulls, joins + 1)
        elif kind is HashJoin:
            table, get = g.tmp(), g.tmp()

            def build(row: str, ind: str) -> None:
                g.pipe.stages.append("build HashJoin")
                key, bucket = g.tmp(), g.tmp()
                g.emit(ind, "%s = %s" % (
                    key, g.value(op.build_key, row, child.schema)
                ))
                g.emit(ind, "if %s is None: continue" % (key,))
                g.emit(ind, "%s = %s(%s)" % (bucket, get, key))
                g.emit(ind, "if %s is None: %s[%s] = [%s]" % (
                    bucket, table, key, row
                ))
                g.emit(ind, "else: %s.append(%s)" % (bucket, row))

            def probe(row: str, ind: str) -> None:
                match = g.tmp()
                # NULL keys never join and are never stored, so looking one
                # up finds nothing; an outer join then pads the probe row.
                g.emit(ind, "for %s in %s(%s%s:" % (
                    match, get,
                    g.value(op.probe_key, row, op.right.schema),
                    ") or " + g.const((op._null_pad,))
                    if op.preserve_probe else ", ())",
                ))
                self._join(g, ind, op, k, "%s + %s" % (match, row), consume)

            # The build runs before the first probe row is pulled, exactly
            # like the interpreted engine (blocking wrt the probe pipeline).
            g.emit(ind, "%s = %s._table; %s = %s.get" % (table, k, get, table))
            g.emit(ind, "if not %s._built:" % (k,))
            self._produce(g, child, ind + "    ", build, False)
            g.emit(ind, "    %s._built = True" % (k,))
            self._produce(g, op.right, ind, probe, pulls, joins + 1)
        elif kind is HashAggregate:
            layout = op.layout
            groups, get, key, group = g.tmp(), g.tmp(), g.tmp(), g.tmp()
            fresh = "%s = %s[%s] = %s" % (
                group, groups, key if op.group_by else "()", layout.fresh_source
            )

            def accumulate(row: str, ind: str) -> None:
                g.pipe.stages.append("build HashAggregate")
                if op.group_by:
                    g.emit(ind, "%s = (%s,)" % (key, ", ".join(
                        [g.value(e, row, child.schema) for _, e in op.group_by]
                    )))
                    g.emit(ind, "%s = %s(%s)" % (group, get, key))
                # a scalar aggregate keeps its one group across rows
                g.emit(ind, "if %s is None: %s" % (group, fresh))
                self._update(g, ind, op, group, row)

            # Accumulate into op._groups in place: mid-build observers read
            # groups_seen() exactly as under the interpreted engine.
            g.emit(ind, "if not %s._materialized:" % (k,))
            g.emit(ind, "    %s = %s._groups; %s = %s.get; %s = None" % (
                groups, k, get, groups, group
            ))
            self._produce(g, child, ind + "    ", accumulate, False)
            if not op.group_by:  # one row even over empty input
                g.emit(ind, "    if %s is None: %s" % (group, fresh))
            g.emit(ind, "    %s._materialized = True" % (k,))
            # Every pass (a ⋈NL rescan too) finalizes the kept groups.
            key, group = g.tmp(), g.tmp()
            rows = "[%s + %s for %s, %s in %s._groups.items()]" % (
                key, layout.finalize_source(group), key, group, k,
            )
            self._loop(g, ind, op, k, rows, consume, pulls)
        elif kind is StreamAggregate:
            layout = op.layout
            group, cur = g.tmp(), g.tmp()

            def accumulate(row: str, ind: str) -> None:
                if op.group_by:
                    key, out = g.tmp(), g.tmp()
                    g.emit(ind, "%s = (%s,)" % (key, ", ".join(
                        [g.value(e, row, child.schema) for _, e in op.group_by]
                    )))
                    # A new key closes the open group: its row goes up
                    # before this row is accumulated (the interpreter's
                    # order).  The one-row loop keeps a ``continue`` in the
                    # parent's code from skipping the update below.
                    g.emit(ind, "if %s != %s:" % (key, cur))
                    g.emit(ind, "    if %s is not None:" % (group,))
                    g.emit(ind, "        for %s in (%s + %s,):" % (
                        out, cur, layout.finalize_source(group)
                    ))
                    self._tick(g, ind + "            ", op, k)
                    consume(out, ind + "            ")
                    g.emit(ind, "    %s = %s; %s = %s" % (
                        cur, key, group, layout.fresh_source
                    ))
                else:  # a scalar aggregate keeps its one group
                    g.emit(ind, "if %s is None: %s = %s" % (
                        group, group, layout.fresh_source
                    ))
                self._update(g, ind, op, group, row)

            g.emit(ind, "%s = %s = None" % (group, cur))
            self._produce(g, child, ind, accumulate, pulls, joins + bool(op.group_by))
            # The last group closes when the input ends — after the child's
            # finish events, in a pipeline of its own; the scalar form
            # emits its one row even over empty input.
            if op.group_by:
                last = "() if %s is None else (%s + %s,)" % (
                    group, cur, layout.finalize_source(group)
                )
            else:
                g.emit(ind, "if %s is None: %s = %s" % (
                    group, group, layout.fresh_source
                ))
                last = "(%s,)" % (layout.finalize_source(group),)
            self._loop(g, ind, op, k, last, consume, pulls)
        elif kind is MergeJoin:
            right = self.compile(op.right)
            pull = g.const(right.make)
            cursor, rrow, rkey, gkey, group = (g.tmp() for _ in range(5))
            unsorted = "raise ExecutionError('merge join: %s input not sorted on key')"

            def advance(ind: str) -> None:
                """Pull the next right row with a non-NULL key, or None."""
                key = g.tmp()
                g.emit(ind, "for %s in %s:" % (rrow, cursor))
                g.emit(ind, "    %s = %s" % (
                    key, g.value(op.right_key, rrow, op.right.schema)
                ))
                g.emit(ind, "    if %s is None: continue" % (key,))
                g.emit(ind, "    if %s is not None and %s < %s: %s" % (
                    rkey, key, rkey, unsorted % ("right",)
                ))
                g.emit(ind, "    %s = %s; break" % (rkey, key))
                g.emit(ind, "else: %s = None" % (rrow,))

            def merge(row: str, ind: str) -> None:
                key, match, joined = g.tmp(), g.tmp(), g.tmp()
                g.emit(ind, "%s = %s" % (
                    key, g.value(op.left_key, row, op.left.schema)
                ))
                g.emit(ind, "if %s is None: continue" % (key,))
                g.emit(ind, "if %s is not None and %s < %s: %s" % (
                    gkey, key, gkey, unsorted % ("left",)
                ))
                # A new left key: skip the right rows below it and buffer
                # the ones equal to it; an equal left key reuses the group.
                g.emit(ind, "if %s != %s:" % (key, gkey))
                g.emit(ind, "    %s = %s; %s = []" % (gkey, key, group))
                g.emit(ind, "    if %s is None:" % (cursor,))
                g.emit(ind, "        %s = %s()" % (cursor, pull))
                advance(ind + "        ")
                g.emit(ind, "    while %s is not None:" % (rrow,))
                g.emit(ind, "        if %s == %s: %s.append(%s)" % (
                    rkey, key, group, rrow
                ))
                g.emit(ind, "        elif not %s < %s: break" % (rkey, key))
                advance(ind + "        ")
                g.emit(ind, "for %s in %s:" % (match, group))
                g.emit(ind, "    %s = %s + %s" % (joined, row, match))
                self._tick(g, ind + "    ", op, k)
                g.pipe.stages[-1] += " <- [%s: %s]" % (op.right.name, right.why)
                consume(joined, ind + "    ")

            # The left input is pushed through the merge step, the right is
            # pulled — first at the first non-NULL left row, never again
            # once the left runs dry — so the pipeline counts in the cells.
            g.emit(ind, "%s = %s = %s = %s = None" % (cursor, rrow, rkey, gkey))
            self._produce(g, op.left, ind, merge, True, joins + 1)
        elif kind is Sort:
            rows = g.tmp()
            # _rows is only assigned after the sort, so the boundary
            # observer at the child's finish still sees
            # materialized_count() == None.
            g.emit(ind, "if %s._rows is None:" % (k,))
            g.emit(ind, "    %s = []" % (rows,))
            self._produce(
                g, child, ind + "    ",
                g.sink("build Sort", rows + ".append(%s)"), False,
            )
            # Sort._materialize's loop: least significant key first.
            for key in reversed(op.keys):
                g.emit(ind, "    %s = sort_rows(%s, %s, %r)" % (
                    rows, rows, g.const(key.expression.bind(child.schema)),
                    key.descending,
                ))
            g.emit(ind, "    %s._rows = %s" % (k, rows))
            self._loop(g, ind, op, k, k + "._rows", consume, pulls)
        else:  # TopN
            buffer, keys = g.tmp(), g.tmp()
            g.emit(ind, "if %s._buffer is None:" % (k,))
            g.emit(ind, "    %s = []; %s = %s._key_functions()" % (
                buffer, keys, k
            ))
            offer = "%s._offer(%s, %s, %%s)" % (k, buffer, keys)
            self._produce(
                g, child, ind + "    ", g.sink("build TopN", offer), False
            )
            g.emit(ind, "    %s._buffer = %s" % (k, buffer))
            self._loop(
                g, ind, op, k, "[entry.row for entry in %s._buffer]" % (k,),
                consume, pulls,
            )
        g.emit(ind, "fin(%s)" % (k,))

    def _join(self, g: _Gen, ind: str, op, k: str, pair: str, consume) -> None:
        """Inside the match loop opened at ``ind``: concatenate the pair,
        test the residual, tick, hand the joined row on."""
        ind += "    "
        joined = g.tmp()
        g.emit(ind, "%s = %s" % (joined, pair))
        if op.residual is not None:
            g.emit(ind, "if %s: continue" % (
                g.reject(op.residual, joined, op.schema),
            ))
        self._tick(g, ind, op, k)
        consume(joined, ind)

    def _update(self, g: _Gen, ind: str, op, group: str, row: str) -> None:
        """Emit the per-row update of the group list ``group`` from ``row``:
        :meth:`GroupLayout.update_source` over the inlined arguments."""
        schema = op.child.schema
        for line in op.layout.update_source(group, [
            (g.tmp(), g.value(argument, row, schema))
            for argument in op.layout.arguments
        ]):
            g.emit(ind, line)

    # -- generic adapter -------------------------------------------------------------

    def _compile_adapter(self, op: Operator) -> _Node:
        """Drive ``op``'s own ``_next`` over compiled children.

        The children's ``get_next``/``rewind`` methods are shadowed with
        instance attributes that pull from their compiled generators, so
        the operator's exact row logic runs unchanged while everything
        below it stays fused.  Used for every operator without a
        translation: ``Limit``, ⋈NL, ``UnionAll``, index seeks,
        random-order scans, user-defined operators and outer hash joins
        with a residual.
        """
        child_nodes = [self.compile(child) for child in op.children]
        for child, node in zip(op.children, child_nodes):
            self._shim(child, node)
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        counted = op.counted

        def make() -> Iterator[Row]:
            # Fresh child generators every pass: after a rescan the shims
            # must pull from the rewound state, not an exhausted iterator.
            for node in child_nodes:
                node.gen = node.make()
            produce = op._next
            while True:
                row = produce()
                if row is None:
                    break
                op.rows_produced += 1
                if counted:
                    cell[0] += 1
                    budget[0] -= 1
                    if budget[0] <= 0:
                        flush()
                yield row
            acct.finish(op)

        return _Node(op, make, _WHY.get(op.kind, "adapter"))

    def _shim(self, child: Operator, node: _Node) -> None:
        """Record the methods that make ``child`` pull from ``node``;
        :meth:`bind` installs them."""
        rewind = self.acct.rewind

        def shim_get_next() -> Optional[Row]:
            gen = node.gen
            if gen is None:
                gen = node.gen = node.make()
            return next(gen, None)

        def shim_rewind() -> None:
            rewind(child)
            node.gen = node.make()

        self.shims.append((child, node, shim_get_next, shim_rewind))

    def remove_shims(self) -> None:
        """Undo :meth:`bind`'s shadowing and drop the iterators the run's
        pulls left suspended."""
        for child, node, _, _ in self.shims:
            node.gen = None
            for attribute in ("get_next", "rewind"):
                try:
                    delattr(child, attribute)
                except AttributeError:
                    pass


#: operator kinds whose code is generated inline; every other kind is a row
#: source driven by the generic adapter
_INLINED = frozenset((
    TableScan, RowSource, Filter, Project, Distinct, IndexNestedLoopsJoin,
    HashJoin, MergeJoin, HashAggregate, StreamAggregate, Sort, TopN,
))
#: why :func:`generated_source` shows these kinds as row sources
_WHY = {
    LIMIT: "stops early",
    NL_JOIN: "rescanned inner",
    UNION: "concatenated inputs",
}


def run_fused(
    root: Operator,
    context: Optional[ExecutionContext] = None,
    keep_rows: bool = True,
    prepared=None,
) -> Optional[List[Row]]:
    """Open ``root``, execute it through the fused engine, close it.

    Tick-for-tick equivalent to ``root.run(context)``: same per-operator
    counts, same observer firing instants, same finish/rewind event stream
    (tick events are coalesced on the batch-listener channel), and — with
    ``keep_rows`` — the same rows in the same order.  Without it the root
    consumer keeps no row and None is returned: an instrumented run's
    product is its progress trace, not the answer.

    ``prepared`` is where the caller keeps ``root``'s program between
    runs (the progress runner's prepared plan, always with the same
    ``keep_rows``): its ``program`` attribute is filled on the first run
    and bound again on every later one.  Without it the program is
    generated for this run alone.
    """
    context = context or ExecutionContext()
    root.open(context)
    try:
        compiler = prepared.program if prepared is not None else None
        if compiler is None:
            compiler = _Compiler()
            compiler.program(root, keep_rows)
            if prepared is not None:
                prepared.program = compiler
        return compiler.run(context.monitor)
    finally:
        root.close()


def generated_source(plan) -> str:
    """The Python text the fused engine runs ``plan`` with, for reading.

    The plan's own function comes first, then one generator function per
    subtree that is pulled from.  Each pipeline starts with a comment
    naming, in order, the operators inlined into its loop and the blocking
    operator it builds; a ``[Kind: reason]`` entry is a row source that is
    not inlined, with the reason.  For tests, docs and debugging.
    """
    compiler = _Compiler()
    compiler.program(plan.root)
    return "\n\n".join(reversed(compiler.sources))
