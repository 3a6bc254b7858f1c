"""The incremental BoundsTracker must be indistinguishable from the oracle.

The incremental tracker answers snapshots from a dirty-set memo fed by the
monitor's event stream; :class:`ReferenceBoundsTracker` re-walks the plan
from scratch every time.  The contract is *bit-identity*: at every sampled
instant, on every plan shape — including ⋈NL rescans (rewind events),
blocking-operator freezes, LIMIT cutoffs and histogram-backed filters — the
two produce equal ``BoundsSnapshot``\\ s, float for float.
"""

import math

import pytest
from hypothesis import given, settings

from repro.core import BoundsTracker, ReferenceBoundsTracker, total_work
from repro.core.bounds import paper2005
from repro.engine.executor import run_root
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import base as operator_base
from repro.engine.operators import (
    Distinct,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    IndexSeek,
    Limit,
    MergeJoin,
    NestedLoopsJoin,
    Project,
    RowSource,
    Sort,
    SortKey,
    StreamAggregate,
    TableScan,
    TopN,
    UnaryOperator,
    UnionAll,
    count_star,
)
from repro.engine.plan import Plan, standard_flags
from repro.stats import StatisticsManager
from repro.storage import Catalog, HashIndex, Table, schema_of
from repro.workloads import build_query, generate_tpch

from tests.core.test_properties import plans


def assert_snapshots_identical(incremental, reference):
    assert incremental.curr == reference.curr
    assert incremental.lower == reference.lower
    assert incremental.upper == reference.upper
    assert incremental.per_node == reference.per_node


def run_comparing(plan, catalog=None, every=1, engine="interpreted"):
    """Execute ``plan`` on ``engine`` comparing the two trackers at every
    observer point."""
    incremental = BoundsTracker(plan, catalog)
    reference = ReferenceBoundsTracker(plan, catalog)
    monitor = ExecutionMonitor()
    incremental.attach(monitor)
    compared = [0]

    def check(m):
        assert_snapshots_identical(incremental.snapshot(), reference.snapshot())
        compared[0] += 1

    monitor.add_observer(check, every=every)
    run_root(plan.root, ExecutionContext(monitor), engine, keep_rows=False)
    # Terminal state, after close().
    assert_snapshots_identical(incremental.snapshot(), reference.snapshot())
    incremental.detach()
    return compared[0]


@settings(max_examples=80, deadline=None)
@given(plans())
def test_incremental_matches_reference_on_random_plans(plan):
    run_comparing(plan)


@settings(max_examples=40, deadline=None)
@given(plans())
def test_incremental_invariant_at_every_tick(plan):
    """Curr ≤ LB ≤ total(Q) ≤ UB, checked on the incremental tracker."""
    total = total_work(plan)
    tracker = BoundsTracker(plan)
    monitor = ExecutionMonitor()
    tracker.attach(monitor)

    def check(m):
        snapshot = tracker.snapshot()
        assert snapshot.curr == m.total_ticks
        assert snapshot.curr <= snapshot.lower + 1e-9
        assert snapshot.lower <= total + 1e-9
        assert total <= snapshot.upper + 1e-9

    monitor.add_observer(check, every=1)
    for _ in plan.root.iterate(ExecutionContext(monitor)):
        pass
    assert tracker.snapshot().curr == total


def small_tables():
    left = Table("l", schema_of("l", "k:int"),
                 [(v,) for v in [3, 1, 4, 1, 5, 9, 2, 6]])
    right = Table("r", schema_of("r", "k:int"),
                  [(v,) for v in [2, 7, 1, 8, 2, 8]])
    return left, right


class TestHandWrittenShapes:
    """Shapes the random generator under-covers: rewinds, limits, unions."""

    def test_nested_loops_rescans(self):
        left, right = small_tables()
        plan = Plan(NestedLoopsJoin(TableScan(left), TableScan(right),
                                    col("l.k") == col("r.k")))
        run_comparing(plan)

    def test_nested_loops_over_sorted_inner(self):
        # Blocking inner: spooled across rescans, rewind events still fire.
        left, right = small_tables()
        inner = Sort(TableScan(right), [SortKey(col("r.k"))])
        plan = Plan(NestedLoopsJoin(TableScan(left), inner))
        run_comparing(plan)

    def test_limit_over_sort(self):
        left, _ = small_tables()
        plan = Plan(Limit(Sort(TableScan(left), [SortKey(col("l.k"))]), 3))
        run_comparing(plan)

    def test_limit_cuts_scan_mid_stream(self):
        left, _ = small_tables()
        plan = Plan(Limit(Filter(TableScan(left), col("l.k") >= lit(2)), 2))
        run_comparing(plan)

    def test_topn(self):
        left, _ = small_tables()
        plan = Plan(TopN(TableScan(left), [SortKey(col("l.k"))], 4))
        run_comparing(plan)

    def test_merge_join(self):
        left, right = small_tables()
        plan = Plan(MergeJoin(
            Sort(TableScan(left), [SortKey(col("l.k"))]),
            Sort(TableScan(right), [SortKey(col("r.k"))]),
            col("l.k"), col("r.k"),
        ))
        run_comparing(plan)

    def test_union_all(self):
        left, right = small_tables()
        plan = Plan(UnionAll(
            TableScan(left),
            TableScan(Table("r2", schema_of("r2", "k:int"),
                            [(v,) for v in [1, 2]])),
        ))
        run_comparing(plan)

    def test_stream_aggregate_scalar(self):
        left, _ = small_tables()
        plan = Plan(StreamAggregate(TableScan(left), [], [count_star("n")]))
        run_comparing(plan)


class _Relay(UnaryOperator):
    """An operator the bounds rules do not know: the conservative rule."""

    name = "Relay"

    def __init__(self, child):
        super().__init__(child.schema, child)

    def _open(self):
        pass

    def _next(self):
        return self.child.get_next()


def analyzed_tables():
    """``small_tables`` in a catalog with statistics and a sorted index on
    ``l.k``, so range filters and index seeks take their histogram rules."""
    left, right = small_tables()
    catalog = Catalog()
    catalog.add_table(left)
    catalog.add_table(right)
    index = catalog.create_sorted_index("l", "k")
    StatisticsManager(catalog).analyze_all()
    return catalog, left, right, index


def _sorted_scan(table):
    return Sort(TableScan(table), [SortKey(col("%s.k" % (table.name,)))])


#: one operator of every ``Operator.kind`` the §5.1 rules tell apart (the
#: hash join twice: inner and probe-preserving), over the analyzed tables
KIND_SHAPES = {
    "table_scan": lambda l, r, index: TableScan(l),
    "row_source": lambda l, r, index: RowSource(
        schema_of("v", "k:int"), [(1,), (2,), (3,)]),
    "index_seek": lambda l, r, index: IndexSeek(index, low=2, high=6),
    "filter_histogram": lambda l, r, index: Filter(
        TableScan(l), col("l.k") <= lit(5)),
    "filter": lambda l, r, index: Filter(
        TableScan(l), col("l.k") % lit(2) == lit(0)),
    "project": lambda l, r, index: Project(
        TableScan(l), [("k2", col("l.k") + lit(1))]),
    "sort": lambda l, r, index: _sorted_scan(l),
    "topn": lambda l, r, index: TopN(TableScan(l), [SortKey(col("l.k"))], 3),
    "distinct": lambda l, r, index: Distinct(TableScan(l)),
    "hash_aggregate": lambda l, r, index: HashAggregate(
        TableScan(l), [("k", col("l.k"))], [count_star("n")]),
    "stream_aggregate": lambda l, r, index: StreamAggregate(
        _sorted_scan(l), [("k", col("l.k"))], [count_star("n")]),
    "hash_join": lambda l, r, index: HashJoin(
        TableScan(r), TableScan(l), col("r.k"), col("l.k")),
    "hash_join_preserve_probe": lambda l, r, index: HashJoin(
        TableScan(r), TableScan(l), col("r.k"), col("l.k"),
        preserve_probe=True),
    "merge_join": lambda l, r, index: MergeJoin(
        _sorted_scan(l), _sorted_scan(r), col("l.k"), col("r.k")),
    "index_nested_loops": lambda l, r, index: IndexNestedLoopsJoin(
        TableScan(r), HashIndex("hx", l, "k"), col("r.k")),
    "nested_loops": lambda l, r, index: NestedLoopsJoin(
        TableScan(l), TableScan(r), col("l.k") == col("r.k")),
    "limit": lambda l, r, index: Limit(TableScan(l), 4, offset=1),
    "union_all": lambda l, r, index: UnionAll(TableScan(l), TableScan(r)),
    "unknown_operator": lambda l, r, index: _Relay(TableScan(l)),
}


def under_limit(node, outer):
    return Limit(node, 3)


def as_nested_loops_inner(node, outer):
    return NestedLoopsJoin(TableScan(outer), node)


def at_root(node, outer):
    return node


class TestEveryKindUnderNonStandardContexts:
    """Below a LIMIT and inside a ⋈NL inner, the incremental tracker runs
    its general-context visitor; at the root, its standard one.  Every
    operator kind, placed in each, must stay bit-identical to the reference
    at every tick on both row engines.
    """

    def test_shapes_cover_every_rule(self):
        catalog, left, right, index = analyzed_tables()
        tags = {
            value for name, value in vars(operator_base).items()
            if name.isupper() and isinstance(value, int)
        }
        covered = {
            make(left, right, index).kind for make in KIND_SHAPES.values()
        }
        assert covered == tags
        histogram_filter = KIND_SHAPES["filter_histogram"](left, right, index)
        assert histogram_filter.kind == operator_base.FILTER
        assert paper2005._static_payload(histogram_filter, catalog) is not None

    @pytest.mark.parametrize("engine", ["interpreted", "fused"])
    @pytest.mark.parametrize(
        "place", [under_limit, as_nested_loops_inner, at_root],
        ids=["under_limit", "nested_loops_inner", "root"])
    @pytest.mark.parametrize("kind", sorted(KIND_SHAPES))
    def test_incremental_equals_reference(self, kind, place, engine):
        catalog, left, right, index = analyzed_tables()
        outer = Table("o", schema_of("o", "k:int"), [(1,), (2,), (3,)])
        plan = Plan(place(KIND_SHAPES[kind](left, right, index), outer))
        if place is not at_root:
            assert not all(standard_flags(plan.root).values())
        assert run_comparing(plan, catalog, every=1, engine=engine) > 0


class TestTpchPlans:
    """The acceptance criterion: bit-identity on the benchmark plans."""

    def test_all_tpch_queries_with_catalog(self):
        db = generate_tpch(scale=0.0005, seed=7)
        for number in range(1, 23):
            plan = build_query(db, number)
            compared = run_comparing(plan, db.catalog, every=37)
            assert compared > 0, "q%d produced no samples" % (number,)


class TestIncrementalMechanics:
    def test_unattached_tracker_recomputes_like_reference(self):
        left, _ = small_tables()
        plan = Plan(Filter(TableScan(left), col("l.k") >= lit(3)))
        incremental = BoundsTracker(plan)
        reference = ReferenceBoundsTracker(plan)
        monitor = ExecutionMonitor()
        monitor.add_observer(
            lambda m: assert_snapshots_identical(
                incremental.snapshot(), reference.snapshot()
            ),
            every=1,
        )
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass

    def test_clean_snapshot_is_memoized(self):
        left, _ = small_tables()
        plan = Plan(TableScan(left))
        tracker = BoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        first = tracker.snapshot()
        # No events since: the second snapshot must come from the memo and
        # still be equal (same object identity for the cached per-node map
        # entries is an implementation detail; equality is the contract).
        second = tracker.snapshot()
        assert first == second

    def test_monitor_reset_resets_running_curr(self):
        left, _ = small_tables()
        plan = Plan(TableScan(left))
        tracker = BoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass
        assert tracker.curr == len(left)
        monitor.reset()
        assert tracker.curr == 0

    def test_foreign_operator_events_are_ignored(self):
        left, right = small_tables()
        plan = Plan(TableScan(left))
        other = Plan(TableScan(right))
        tracker = BoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        # Run an unrelated plan on the same monitor: its ticks must not
        # count toward this plan's Curr.
        for _ in other.root.iterate(ExecutionContext(monitor)):
            pass
        assert tracker.curr == 0

    def test_snapshot_full_bypasses_memo(self):
        left, _ = small_tables()
        plan = Plan(TableScan(left))
        tracker = BoundsTracker(plan)
        reference = ReferenceBoundsTracker(plan)
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        for _ in plan.root.iterate(ExecutionContext(monitor)):
            pass
        assert_snapshots_identical(tracker.snapshot_full(), reference.snapshot())

    def test_fsum_assembly_matches_reference_exactly(self):
        # A plan wide enough that naive left-to-right summation in a
        # different node order could round differently: fsum must make the
        # totals identical regardless of accumulation order.
        tables = [
            Table("t%d" % (i,), schema_of("t%d" % (i,), "k:int"),
                  [(v,) for v in range(i + 1)])
            for i in range(7)
        ]
        root = UnionAll(*[TableScan(t) for t in tables])
        plan = Plan(root)
        run_comparing(plan)
        incremental = BoundsTracker(plan)
        reference = ReferenceBoundsTracker(plan)
        inc, ref = incremental.snapshot(), reference.snapshot()
        assert math.isclose(inc.lower, ref.lower, rel_tol=0.0, abs_tol=0.0)
        assert math.isclose(inc.upper, ref.upper, rel_tol=0.0, abs_tol=0.0)
