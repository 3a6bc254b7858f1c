"""Runtime cardinality bounds (§5.1): the LB ≤ total ≤ UB invariant."""

import pytest

from repro.core import BoundsTracker, total_work
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
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
    Sort,
    SortKey,
    TableScan,
    agg_sum,
    count_star,
)
from repro.engine.plan import Plan
from repro.stats import StatisticsManager
from repro.storage import Catalog, HashIndex, SortedIndex, Table, schema_of


def assert_invariant_throughout(plan, catalog=None, every=1):
    """Check Curr ≤ LB ≤ total ≤ UB at every tick of an execution."""
    total = total_work(plan)
    tracker = BoundsTracker(plan, catalog)
    failures = []

    def check(monitor):
        snapshot = tracker.snapshot()
        if not (
            monitor.total_ticks <= snapshot.lower + 1e-9
            and snapshot.lower <= total + 1e-9
            and total <= snapshot.upper + 1e-9
        ):
            failures.append((monitor.total_ticks, snapshot.lower, snapshot.upper))

    monitor = ExecutionMonitor()
    monitor.add_observer(check, every=every)
    for _ in plan.root.iterate(ExecutionContext(monitor)):
        pass
    assert not failures, "invariant violated (total=%d): %s" % (
        total, failures[:5],
    )
    # at the very end, bounds collapse to the exact total
    final = tracker.snapshot()
    assert final.lower == pytest.approx(total)
    assert final.upper == pytest.approx(total)


@pytest.fixture
def r1():
    return Table("r1", schema_of("r1", "a:int"), [(i,) for i in range(60)])


@pytest.fixture
def r2():
    return Table("r2", schema_of("r2", "b:int"), [(i % 6,) for i in range(48)])


class TestInvariantAcrossOperators:
    def test_scan(self, r1):
        assert_invariant_throughout(Plan(TableScan(r1)))

    def test_filter(self, r1):
        assert_invariant_throughout(
            Plan(Filter(TableScan(r1), col("a") % lit(3) == lit(0)))
        )

    def test_filter_passing_its_last_input_row(self, r1):
        # The observer fires inside the scan's get_next, before the filter
        # has seen row 59: only the in-flight +1 keeps UB >= total there.
        assert_invariant_throughout(
            Plan(Filter(TableScan(r1), col("a") % lit(3) == lit(2)))
        )

    def test_project_sort(self, r1):
        plan = Plan(Sort(Project(TableScan(r1), [("x", col("a") * lit(2))]),
                         [SortKey(col("x"), descending=True)]))
        assert_invariant_throughout(plan)

    def test_distinct(self, r2):
        assert_invariant_throughout(Plan(Distinct(TableScan(r2))))

    def test_hash_aggregate(self, r2):
        plan = Plan(HashAggregate(TableScan(r2), [("b", col("b"))],
                                  [count_star("n")]))
        assert_invariant_throughout(plan)

    def test_scalar_aggregate(self, r1):
        plan = Plan(HashAggregate(TableScan(r1), [], [agg_sum(col("a"), "s")]))
        assert_invariant_throughout(plan)

    def test_hash_join(self, r1, r2):
        plan = Plan(HashJoin(TableScan(r1), TableScan(r2),
                             col("r1.a"), col("r2.b")))
        assert_invariant_throughout(plan)

    def test_linear_hash_join(self, r1, r2):
        plan = Plan(HashJoin(TableScan(r1), TableScan(r2),
                             col("r1.a"), col("r2.b"), linear=True))
        assert_invariant_throughout(plan)

    def test_limit_over_outer_hash_join_with_an_empty_build_side(self, r1):
        # |build| x |probe| is 0, yet every probe row emits a padded row,
        # and under a LIMIT (one that never cuts) the probe's full-scan
        # lower bound is gone: only the + probe_upper term keeps UB >= total.
        empty = Table("e", schema_of("e", "k:int"), [])
        plan = Plan(Limit(
            HashJoin(TableScan(empty), TableScan(r1), col("e.k"),
                     col("r1.a"), preserve_probe=True),
            100,
        ))
        assert_invariant_throughout(plan)

    def test_merge_join(self, r1, r2):
        plan = Plan(MergeJoin(
            Sort(TableScan(r1), [SortKey(col("r1.a"))]),
            Sort(TableScan(r2), [SortKey(col("r2.b"))]),
            col("r1.a"), col("r2.b"),
        ))
        assert_invariant_throughout(plan)

    def test_inl_join(self, r1, r2):
        index = HashIndex("hx", r2, "b")
        plan = Plan(IndexNestedLoopsJoin(TableScan(r1), index, col("r1.a")))
        assert_invariant_throughout(plan)

    def test_nl_join_inner_rescans(self, r1, r2):
        plan = Plan(NestedLoopsJoin(TableScan(r2), TableScan(r1),
                                    col("r2.b") == col("r1.a")))
        assert_invariant_throughout(plan, every=13)

    def test_nl_join_with_blocking_inner(self, r2):
        small = Table("s", schema_of("s", "x:int"), [(i,) for i in range(4)])
        inner = Sort(TableScan(r2), [SortKey(col("r2.b"))])
        plan = Plan(NestedLoopsJoin(TableScan(small), inner,
                                    col("s.x") == col("r2.b")))
        assert_invariant_throughout(plan, every=7)

    def test_limit(self, r1):
        plan = Plan(Limit(TableScan(r1), 10))
        assert_invariant_throughout(plan)

    def test_limit_over_sort(self, r1):
        plan = Plan(Limit(Sort(TableScan(r1), [SortKey(col("a"))]), 5))
        assert_invariant_throughout(plan)

    def test_limit_over_join(self, r1, r2):
        plan = Plan(Limit(
            HashJoin(TableScan(r1), TableScan(r2), col("r1.a"), col("r2.b")),
            3,
        ))
        assert_invariant_throughout(plan)

    def test_limit_over_nl_join(self, r1, r2):
        plan = Plan(Limit(
            NestedLoopsJoin(TableScan(r2), TableScan(r1),
                            col("r2.b") == col("r1.a")),
            2,
        ))
        assert_invariant_throughout(plan)

    def test_index_seek_with_histogram(self):
        catalog = Catalog()
        table = Table("t", schema_of("t", "k:int"), [(i,) for i in range(200)])
        catalog.add_table(table)
        index = catalog.create_sorted_index("t", "k")
        StatisticsManager(catalog).analyze_all()
        plan = Plan(Filter(IndexSeek(index, low=20, high=119),
                           col("k") % lit(2) == lit(0)))
        assert_invariant_throughout(plan, catalog)


class TestBoundQuality:
    def test_scanned_leaves_anchor_lb(self, r1, r2):
        """LB ≥ Σ scanned-leaf cardinalities from the very first tick."""
        index = HashIndex("hx", r2, "b")
        plan = Plan(IndexNestedLoopsJoin(TableScan(r1), index, col("r1.a")))
        snapshot = BoundsTracker(plan).snapshot()
        assert snapshot.lower >= 60

    def test_linear_join_bounds_tighter(self, r1, r2):
        general = Plan(HashJoin(TableScan(r1), TableScan(r2),
                                col("r1.a"), col("r2.b")))
        linear = Plan(HashJoin(TableScan(r1), TableScan(r2),
                               col("r1.a"), col("r2.b"), linear=True))
        assert (BoundsTracker(linear).snapshot().upper
                < BoundsTracker(general).snapshot().upper)

    def test_example3_bounds(self):
        """Example 3: for a linear hash join, LB ≥ Σ|inputs| and
        UB ≤ 2·Σ|inputs| before execution starts."""
        r1 = Table("r1", schema_of("r1", "a:int"), [(i,) for i in range(40)])
        r2 = Table("r2", schema_of("r2", "b:int"), [(i,) for i in range(80)])
        plan = Plan(HashJoin(TableScan(r1), TableScan(r2),
                             col("r1.a"), col("r2.b"), linear=True))
        snapshot = BoundsTracker(plan).snapshot()
        assert snapshot.lower >= 120
        assert snapshot.upper <= 2 * 120

    def test_bounds_tighten_monotonically_enough(self, r1, r2):
        """The UB/LB ratio at the end is 1 (exactness at completion)."""
        plan = Plan(HashJoin(TableScan(r1), TableScan(r2),
                             col("r1.a"), col("r2.b")))
        tracker = BoundsTracker(plan)
        before = tracker.snapshot().ratio
        for _ in plan.root.iterate(ExecutionContext()):
            pass
        after = tracker.snapshot().ratio
        assert after == pytest.approx(1.0)
        assert before >= after

    def test_snapshot_per_node_cover_plan(self, r1):
        plan = Plan(Filter(TableScan(r1), col("a") > lit(5)))
        snapshot = BoundsTracker(plan).snapshot()
        assert set(snapshot.per_node) == {
            op.operator_id for op in plan.operators()
        }

    def test_tpch_invariants(self, tpch_db):
        from repro.workloads import build_query

        for number in (1, 4, 6, 13):
            plan = build_query(tpch_db, number)
            assert_invariant_throughout(plan, tpch_db.catalog, every=97)
