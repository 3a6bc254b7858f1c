"""The monitor's event channel: tick/finish/rewind/reset listeners and
pipeline-boundary forced sampling."""

import warnings

from repro.engine.executor import execute, pipeline_boundary_operators
from repro.engine.expressions import col
from repro.engine.monitor import (
    EVENT_FINISH,
    EVENT_RESET,
    EVENT_REWIND,
    EVENT_TICK,
    ExecutionMonitor,
)
from repro.engine.operators import (
    ExecutionContext,
    HashJoin,
    NestedLoopsJoin,
    Sort,
    SortKey,
    TableScan,
)
from repro.engine.plan import Plan
from repro.storage import Table, schema_of


def make_table(name="t", n=5):
    return Table(name, schema_of(name, "k:int"), [(v,) for v in range(n)])


def collect_events(plan_root, monitor=None):
    monitor = monitor or ExecutionMonitor()
    events = []
    # The interpreter records row at a time (n == 1 per tick), so the
    # listener channel yields the per-event sequence.
    monitor.add_batch_listener(lambda op, kind, n: events.append((op, kind)))
    for _ in plan_root.iterate(ExecutionContext(monitor)):
        pass
    return events


class TestEventStream:
    def test_every_counted_row_emits_a_tick(self):
        table = make_table()
        scan = TableScan(table)
        events = collect_events(scan)
        ticks = [e for e in events if e[1] == EVENT_TICK]
        assert len(ticks) == len(table)
        assert all(op == scan.operator_id for op, _ in ticks)

    def test_end_of_stream_emits_one_finish(self):
        scan = TableScan(make_table())
        monitor = ExecutionMonitor()
        events = []
        monitor.add_batch_listener(lambda op, kind, n: events.append((op, kind)))
        context = ExecutionContext(monitor)
        scan.open(context)
        while scan.get_next() is not None:
            pass
        # Pulling past end-of-stream must not re-emit finish.
        assert scan.get_next() is None
        assert scan.get_next() is None
        scan.close()
        finishes = [e for e in events if e[1] == EVENT_FINISH]
        assert finishes == [(scan.operator_id, EVENT_FINISH)]

    def test_nested_loops_rescan_emits_rewinds(self):
        outer, inner = make_table("o", 3), make_table("i", 2)
        inner_scan = TableScan(inner)
        join = NestedLoopsJoin(TableScan(outer), inner_scan)
        events = collect_events(join)
        rewinds = [op for op, kind in events if kind == EVENT_REWIND]
        # The join rewinds its inner subtree once per outer row.
        assert rewinds.count(inner_scan.operator_id) == len(outer)

    def test_reset_emits_reset_event(self):
        monitor = ExecutionMonitor()
        events = []
        monitor.add_batch_listener(lambda op, kind, n: events.append((op, kind)))
        monitor.register(1, "x")
        monitor.record(1)
        monitor.reset()
        assert events[-1] == (0, EVENT_RESET)
        assert monitor.total_ticks == 0

    def test_remove_tick_listener(self):
        monitor = ExecutionMonitor()
        events = []
        listener = lambda op, kind, n: events.append((op, kind))
        monitor.add_batch_listener(listener)
        monitor.register(1, "x")
        monitor.record(1)
        monitor.remove_batch_listener(listener)
        monitor.record(1)
        assert len(events) == 1


class TestBatchChannel:
    def test_record_batch_coalesces_ticks_for_batch_listeners(self):
        monitor = ExecutionMonitor()
        batched = []
        monitor.add_batch_listener(lambda op, kind, n: batched.append((op, kind, n)))
        monitor.register(7, "x")
        monitor.record_batch(7, 5)
        assert batched == [(7, EVENT_TICK, 5)]
        assert monitor.count_for(7) == 5
        assert monitor.total_ticks == 5

    def test_record_batch_zero_or_negative_is_a_no_op(self):
        monitor = ExecutionMonitor()
        batched = []
        monitor.add_batch_listener(lambda op, kind, n: batched.append((op, kind, n)))
        monitor.register(7, "x")
        monitor.record_batch(7, 0)
        monitor.record_batch(7, -3)
        assert batched == []
        assert monitor.total_ticks == 0

    def test_finish_rewind_reset_arrive_with_zero_count(self):
        monitor = ExecutionMonitor()
        batched = []
        monitor.add_batch_listener(lambda op, kind, n: batched.append((op, kind, n)))
        monitor.record_finish(3)
        monitor.record_rewind(4)
        monitor.reset()
        assert batched == [
            (3, EVENT_FINISH, 0),
            (4, EVENT_REWIND, 0),
            (0, EVENT_RESET, 0),
        ]

    def test_record_batch_fires_observer_on_cadence_crossing(self):
        monitor = ExecutionMonitor()
        fired = []
        monitor.add_observer(lambda m: fired.append(m.total_ticks), every=10)
        monitor.register(1, "x")
        monitor.record_batch(1, 9)
        assert fired == []
        # Landing exactly on the multiple fires at the interpreted instant.
        monitor.record_batch(1, 1)
        assert fired == [10]
        # A batch crossing a multiple fires once, at the batch end.
        monitor.record_batch(1, 15)
        assert fired == [10, 25]

    def test_oversized_batch_fires_observer_once_per_crossed_multiple(self):
        # Regression: a batch spanning k multiples of an observer's cadence
        # used to fire it once; it must fire k times (the same number of
        # firings k row-at-a-time ticks produce), each seeing the
        # post-batch total.
        monitor = ExecutionMonitor()
        fired = []
        monitor.add_observer(lambda m: fired.append(m.total_ticks), every=10)
        monitor.register(1, "x")
        monitor.record_batch(1, 35)
        assert fired == [35, 35, 35]

    def test_coprime_cadences_each_fire_per_crossed_multiple(self):
        # Co-prime cadences: one batch can cross different numbers of
        # multiples for each observer; each fires per its own crossings.
        monitor = ExecutionMonitor()
        fired = {3: [], 5: []}
        monitor.add_observer(lambda m: fired[3].append(m.total_ticks), every=3)
        monitor.add_observer(lambda m: fired[5].append(m.total_ticks), every=5)
        monitor.register(1, "x")
        monitor.record_batch(1, 7)  # crosses 3 and 6, and 5
        assert fired == {3: [7, 7], 5: [7]}
        monitor.record_batch(1, 8)  # 7 -> 15: crosses 9, 12, 15 and 10, 15
        assert fired == {3: [7, 7, 15, 15, 15], 5: [7, 15, 15]}

    def test_min_headroom_batches_fire_every_observer_exactly_on_time(self):
        # A caller that clamps every batch to ticks_until_next_observer()
        # lands exactly on the nearest multiple and can never cross any
        # observer's cadence point mid-batch — each firing happens at a
        # multiple of its own ``every``, exactly as interpreted ticks.
        monitor = ExecutionMonitor()
        fired = {3: [], 5: []}
        monitor.add_observer(lambda m: fired[3].append(m.total_ticks), every=3)
        monitor.add_observer(lambda m: fired[5].append(m.total_ticks), every=5)
        monitor.register(1, "x")
        recorded = 0
        while recorded < 30:
            headroom = monitor.ticks_until_next_observer()
            n = min(headroom, 30 - recorded)
            monitor.record_batch(1, n)
            recorded += n
        assert fired[3] == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30]
        assert fired[5] == [5, 10, 15, 20, 25, 30]

    def test_ticks_until_next_observer_is_the_batching_headroom(self):
        monitor = ExecutionMonitor()
        assert monitor.ticks_until_next_observer() is None
        monitor.add_observer(lambda m: None, every=10)
        monitor.add_observer(lambda m: None, every=7)
        monitor.register(1, "x")
        assert monitor.ticks_until_next_observer() == 7
        monitor.record_batch(1, 6)
        assert monitor.ticks_until_next_observer() == 1
        monitor.record_batch(1, 1)  # 7 ticks: the every=7 observer just ran
        assert monitor.ticks_until_next_observer() == 3  # every=10 is next

    def test_remove_batch_listener(self):
        monitor = ExecutionMonitor()
        batched = []
        listener = lambda op, kind, n: batched.append((op, kind, n))
        monitor.add_batch_listener(listener)
        monitor.register(1, "x")
        monitor.record_batch(1, 2)
        monitor.remove_batch_listener(listener)
        monitor.record_batch(1, 2)
        assert batched == [(1, EVENT_TICK, 2)]


class TestPerTickFanoutWarning:
    """The per-tick fan-out and its warning are gone: batches are silent."""

    def test_batches_without_tick_listeners_do_not_warn(self):
        monitor = ExecutionMonitor()
        monitor.register(1, "x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monitor.record_batch(1, 100)


def accumulated_event_stream(build_plan, engine, every=None):
    """Run ``build_plan()`` under ``engine``; return the event accumulation.

    The batch channel's tick counts are folded into per-operator
    accumulators (operators keyed by pre-order position, so streams from
    two separately built plans compare); every finish/rewind event is
    recorded together with the accumulation at that instant.  Optionally a
    cadence observer snapshots ``total_ticks`` at each firing.
    """
    plan = build_plan()
    position = {
        op.operator_id: i for i, op in enumerate(plan.operators())
    }
    monitor = ExecutionMonitor()
    counts = {}
    events = []
    firings = []

    def on_event(operator_id, kind, n):
        if kind == EVENT_TICK:
            key = position[operator_id]
            counts[key] = counts.get(key, 0) + n
        else:
            events.append(
                (kind, position.get(operator_id, -1),
                 tuple(sorted(counts.items())))
            )

    monitor.add_batch_listener(on_event)
    if every is not None:
        monitor.add_observer(lambda m: firings.append(m.total_ticks), every=every)
    execute(plan, ExecutionContext(monitor), engine=engine)
    events.append(("end", -1, tuple(sorted(counts.items()))))
    return events, firings


class TestEngineEventParity:
    """⋈NL rescans: the fused engine must flush pending ticks before every
    rewind/finish event, so the accumulated counts at each event instant —
    not just the final totals — agree with the interpreter's."""

    @staticmethod
    def _nl_plan():
        join = NestedLoopsJoin(
            TableScan(make_table("o", 9)),
            TableScan(make_table("i", 6)),
            col("o.k") == col("i.k"),
        )
        return Plan(join)

    def test_nl_rescan_accumulation_is_engine_invariant(self):
        interpreted, _ = accumulated_event_stream(self._nl_plan, "interpreted")
        fused, _ = accumulated_event_stream(self._nl_plan, "fused")
        assert fused == interpreted
        # Sanity: the stream actually contains one inner rewind per outer row.
        rewinds = [e for e in interpreted if e[0] == EVENT_REWIND]
        assert len(rewinds) == 9

    def test_nl_rescan_observer_instants_are_engine_invariant(self):
        interpreted = accumulated_event_stream(
            self._nl_plan, "interpreted", every=5
        )
        fused = accumulated_event_stream(self._nl_plan, "fused", every=5)
        assert fused == interpreted
        assert fused[1]  # the cadence observer did fire

    def test_nl_cross_product_rescan_accumulation(self):
        def build():
            join = NestedLoopsJoin(
                TableScan(make_table("o", 4)), TableScan(make_table("i", 3))
            )
            return Plan(join)

        interpreted = accumulated_event_stream(build, "interpreted", every=3)
        fused = accumulated_event_stream(build, "fused", every=3)
        assert fused == interpreted


class TestPipelineBoundaries:
    def test_boundary_set_contains_blocking_ops_and_inputs(self):
        table = make_table()
        scan = TableScan(table)
        sort = Sort(scan, [SortKey(col("t.k"))])
        plan = Plan(sort)
        boundary = pipeline_boundary_operators(plan)
        assert sort.operator_id in boundary
        assert scan.operator_id in boundary

    def test_boundary_finish_forces_observer_round(self):
        table = make_table()
        scan = TableScan(table)
        sort = Sort(scan, [SortKey(col("t.k"))])
        plan = Plan(sort)
        monitor = ExecutionMonitor()
        monitor.mark_pipeline_boundaries(pipeline_boundary_operators(plan))
        observed = []
        # Cadence far above total ticks: only forced rounds can fire.
        monitor.add_observer(lambda m: observed.append(m.total_ticks), every=10_000)
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass
        # The scan feeding the sort finished (input drained) and the sort
        # itself finished: both transitions must have been sampled.
        assert len(observed) >= 2
        assert observed[0] == len(table)

    def test_non_boundary_finish_does_not_force_observers(self):
        scan = TableScan(make_table())
        monitor = ExecutionMonitor()  # no boundaries marked
        observed = []
        monitor.add_observer(lambda m: observed.append(m.total_ticks), every=10_000)
        for _ in scan.iterate(ExecutionContext(monitor)):
            pass
        assert observed == []

    def test_execute_marks_boundaries(self):
        table = make_table()
        build, probe = make_table("b", 4), make_table("p", 6)
        join = HashJoin(TableScan(build), TableScan(probe),
                        col("b.k"), col("p.k"))
        plan = Plan(join)
        monitor = ExecutionMonitor()
        observed = []
        monitor.add_observer(lambda m: observed.append(m.total_ticks), every=10_000)
        execute(plan, ExecutionContext(monitor))
        # The build side draining is a boundary transition inside execute().
        assert observed
