"""Failure injection: operators must fail cleanly and leave sane state."""

import pytest

from repro.engine.executor import execute
from repro.engine.expressions import Expression, col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    ExecutionContext,
    Filter,
    HashAggregate,
    HashJoin,
    LeafOperator,
    RowSource,
    Sort,
    SortKey,
    StreamAggregate,
    TableScan,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count,
)
from repro.engine.plan import Plan
from repro.errors import ExecutionError
from repro.storage import Table, schema_of
from repro.storage.schema import Schema


class Bomb(LeafOperator):
    """A leaf that yields ``fuse`` rows and then raises."""

    def __init__(self, schema: Schema, fuse: int) -> None:
        super().__init__(schema)
        self.fuse = fuse
        self._emitted = 0

    @property
    def name(self) -> str:
        return "Bomb"

    def _open(self) -> None:
        self._emitted = 0

    def _next(self):
        if self._emitted >= self.fuse:
            raise RuntimeError("boom")
        self._emitted += 1
        return (self._emitted,)

    def base_cardinality(self) -> int:
        return self.fuse + 100


class FailingExpression(Expression):
    """An expression that raises after N evaluations."""

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse
        self.calls = 0

    def bind(self, schema):
        def evaluate(row):
            self.calls += 1
            if self.calls > self.fuse:
                raise ValueError("expression exploded")
            return True

        return evaluate

    def references(self):
        return ()


@pytest.fixture
def schema():
    return schema_of("b", "x:int")


class TestMidStreamFailures:
    def test_leaf_failure_propagates(self, schema):
        bomb = Bomb(schema, fuse=3)
        with pytest.raises(RuntimeError, match="boom"):
            bomb.run(ExecutionContext())

    def test_failure_through_filter(self, schema):
        plan = Filter(Bomb(schema, fuse=3), col("x") > lit(0))
        with pytest.raises(RuntimeError):
            plan.run(ExecutionContext())

    def test_failure_during_sort_materialization(self, schema):
        sort = Sort(Bomb(schema, fuse=5), [SortKey(col("x"))])
        with pytest.raises(RuntimeError):
            sort.run(ExecutionContext())

    def test_failure_during_hash_build(self, schema):
        probe = TableScan(Table("p", schema_of("p", "y:int"), [(1,)]))
        join = HashJoin(Bomb(schema, fuse=2), probe, col("x"), col("y"))
        with pytest.raises(RuntimeError):
            join.run(ExecutionContext())

    def test_monitor_consistent_after_failure(self, schema):
        monitor = ExecutionMonitor()
        bomb = Bomb(schema, fuse=4)
        plan = Filter(bomb, col("x") > lit(0))
        with pytest.raises(RuntimeError):
            plan.run(ExecutionContext(monitor))
        # counted exactly the rows that were produced before the failure
        assert monitor.count_for(bomb.operator_id) == 4

    def test_rerun_after_failure_starts_clean(self, schema):
        bomb = Bomb(schema, fuse=3)
        plan = Filter(bomb, col("x") > lit(0))
        with pytest.raises(RuntimeError):
            plan.run(ExecutionContext())
        with pytest.raises(RuntimeError):
            plan.run(ExecutionContext())
        # each run produced exactly `fuse` rows before failing
        assert bomb._emitted == 3

    def test_expression_failure_propagates(self):
        table = Table("t", schema_of("t", "x:int"), [(i,) for i in range(10)])
        predicate = FailingExpression(fuse=4)
        plan = Filter(TableScan(table), predicate)
        with pytest.raises(ValueError, match="exploded"):
            plan.run(ExecutionContext())


def _run_to_failure(plan, engine, error, every=3):
    """Run ``plan`` on ``engine`` until it raises; what the monitor holds.

    Returns total ticks, per-operator counts and ``rows_produced`` in plan
    order, and the totals at which the cadence observer fired.
    """
    monitor = ExecutionMonitor()
    instants = []
    monitor.add_observer(lambda m: instants.append(m.total_ticks), every=every)
    with pytest.raises(error):
        execute(plan, ExecutionContext(monitor), engine=engine)
    operators = list(plan.operators())
    return (
        monitor.total_ticks,
        [monitor.count_for(op.operator_id) for op in operators],
        [op.rows_produced for op in operators],
        instants,
    )


#: the row engines; the batch engine's failure behaviour is pinned apart
ROW_ENGINES = ("interpreted", "fused")


class TestFailureParity:
    """A failing run leaves the monitor holding every tick that happened.

    The interpreter ticks row by row, so that is what it does by
    construction; the fused engine counts in frame locals and must write
    them back on the way out (``compiled.py``'s ``finally``).  Same plans
    as :class:`TestMidStreamFailures`, through ``execute`` on both engines
    with a cadence observer attached.
    """

    @staticmethod
    def _failing_filter():
        table = Table("t", schema_of("t", "x:int"), [(i,) for i in range(10)])
        return Plan(Filter(TableScan(table), FailingExpression(fuse=4)))

    @pytest.mark.parametrize("engine", ROW_ENGINES)
    def test_expression_failure_keeps_every_tick(self, engine):
        # Four rows pass (scan + filter tick each), the fifth is scanned
        # and then the predicate raises: 9 ticks, observer at 3, 6 and 9.
        total, counts, produced, instants = _run_to_failure(
            self._failing_filter(), engine, ValueError
        )
        assert total == 9
        assert counts == produced == [4, 5]  # Filter, TableScan
        assert instants == [3, 6, 9]

    @pytest.mark.xfail(
        strict=True,
        reason="columnar: the batch kernel raises before any replay — 0 "
        "ticks and no observer instants where the row engines read 9 "
        "ticks and 3/6/9 (docs/engine.md, ROADMAP fault matrix)",
    )
    def test_expression_failure_on_the_batch_engine(self):
        total, counts, _, instants = _run_to_failure(
            self._failing_filter(), "columnar", ValueError
        )
        assert (total, counts, instants) == (9, [4, 5], [3, 6, 9])

    def test_the_batch_engine_reads_nothing_at_the_raise(self):
        total, counts, _, instants = _run_to_failure(
            self._failing_filter(), "columnar", ValueError
        )
        assert (total, counts, instants) == (0, [0, 0], [])

    @pytest.mark.parametrize("engine", ROW_ENGINES)
    def test_monitor_consistent_after_leaf_failure(self, schema, engine):
        plan = Plan(Filter(Bomb(schema, fuse=4), col("x") > lit(0)))
        total, counts, produced, instants = _run_to_failure(
            plan, engine, RuntimeError
        )
        # counted exactly the rows that were produced before the failure
        assert (total, counts, produced) == (8, [4, 4], [4, 4])
        assert instants == [3, 6]

    @pytest.mark.parametrize("engine", ROW_ENGINES)
    def test_failure_during_hash_build(self, schema, engine):
        probe = TableScan(Table("p", schema_of("p", "y:int"), [(1,)]))
        build = Filter(Bomb(schema, fuse=5), col("x") > lit(1))
        plan = Plan(HashJoin(build, probe, col("x"), col("y")))
        total, counts, produced, instants = _run_to_failure(
            plan, engine, RuntimeError
        )
        # join, filter (rows 2..5), bomb, probe scan (never reached)
        assert (total, counts) == (9, [0, 4, 5, 0])
        assert produced == counts
        assert instants == [3, 6, 9]

    @pytest.mark.parametrize("engine", ROW_ENGINES)
    def test_failure_during_sort_materialization(self, engine):
        table = Table("t", schema_of("t", "x:int"), [(i,) for i in range(10)])
        plan = Plan(Sort(
            Filter(TableScan(table), FailingExpression(fuse=6)),
            [SortKey(col("x"))],
        ))
        total, counts, produced, instants = _run_to_failure(
            plan, engine, ValueError, every=4
        )
        assert (total, counts) == (13, [0, 6, 7])
        assert produced == counts
        assert instants == [4, 8, 12]
        assert plan.root.materialized_count() is None  # closed, never sorted


class TestProtocolViolations:
    def test_get_next_before_open(self, schema):
        with pytest.raises(ExecutionError):
            Bomb(schema, fuse=1).get_next()

    def test_rewind_before_open(self, schema):
        with pytest.raises(ExecutionError):
            Bomb(schema, fuse=1).rewind()

    def test_close_is_idempotent(self):
        table = Table("t", schema_of("t", "x:int"), [(1,)])
        scan = TableScan(table)
        scan.open(ExecutionContext())
        scan.close()
        scan.close()  # no error

    def test_close_before_open_is_noop(self):
        table = Table("t", schema_of("t", "x:int"), [(1,)])
        TableScan(table).close()

    def test_get_next_after_exhaustion_stays_none(self):
        table = Table("t", schema_of("t", "x:int"), [(1,)])
        scan = TableScan(table)
        scan.open(ExecutionContext())
        assert scan.get_next() == (1,)
        assert scan.get_next() is None
        assert scan.get_next() is None
        scan.close()


class TestBoundsUnderFailure:
    def test_tracker_usable_after_aborted_run(self, schema):
        from repro.core import BoundsTracker
        from repro.engine.plan import Plan

        bomb = Bomb(schema, fuse=3)
        plan = Plan(Filter(bomb, col("x") > lit(0)))
        tracker = BoundsTracker(plan)
        with pytest.raises(RuntimeError):
            plan.root.run(ExecutionContext())
        snapshot = tracker.snapshot()  # must not raise
        assert snapshot.lower >= 0


#: every engine, the batch one included
ENGINES = ("interpreted", "fused", "columnar")


class TestAggregateFailureParity:
    """A mixed ``str``/``int`` column (a mislabelled import, say): the
    aggregates that never compare values agree on every engine, MIN/MAX
    raise the same error everywhere."""

    ROWS = [(1, "a"), (1, 3), (2, None), (3, 4), (3, "b")]

    @classmethod
    def _plan(cls, make_spec, stream):
        source = RowSource(schema_of(None, "g:int", "x:int"), list(cls.ROWS))
        kind = StreamAggregate if stream else HashAggregate
        return Plan(kind(source, [("g", col("g"))], [make_spec(col("x"))]))

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_count_sum_avg_ignore_what_they_do_not_read(self, engine, stream):
        expected = {
            count: [(1, 2), (2, 0), (3, 2)],
            agg_sum: [(1, 3), (2, None), (3, 4)],
            agg_avg: [(1, 1.5), (2, None), (3, 2.0)],
        }
        for make_spec, rows in expected.items():
            result = execute(self._plan(make_spec, stream), engine=engine).rows
            assert repr(result) == repr(rows), make_spec.__name__

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_min_max_raise_the_same_error(self, engine, stream):
        for make_spec in (agg_min, agg_max):
            with pytest.raises(TypeError):
                execute(self._plan(make_spec, stream), engine=engine)
