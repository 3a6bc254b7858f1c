"""Property-based tests (hypothesis) for the paper's core invariants.

Random plans over random data, with the invariants checked at *every* tick:

* ``Curr ≤ LB ≤ total(Q) ≤ UB`` (the §5.1 bounds contract);
* ``prog ≤ pmax ≤ μ·prog`` (Property 4 + Theorem 5);
* safe's ratio error ≤ √(UB/LB) pointwise;
* every estimate lies in [0, 1];
* dne is exact for uniform-work single pipelines.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import (
    BoundsTracker,
    DneEstimator,
    mu,
    run_with_estimators,
    standard_toolkit,
    total_work,
)
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    Distinct,
    ExecutionContext,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    Limit,
    Sort,
    SortKey,
    TableScan,
    count_star,
)
from repro.engine.plan import Plan
from repro.storage import HashIndex, Table, schema_of

# -- random plan generator -----------------------------------------------------

rows_strategy = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=60
)


def build_tables(left_values, right_values):
    left = Table("l", schema_of("l", "k:int"), [(v,) for v in left_values])
    right = Table("r", schema_of("r", "k:int"), [(v,) for v in right_values])
    return left, right


@st.composite
def plans(draw):
    """A random small plan mixing joins, filters, sorts and aggregates."""
    left_values = draw(rows_strategy)
    right_values = draw(rows_strategy)
    left, right = build_tables(left_values, right_values)
    shape = draw(st.sampled_from(
        ["scan", "filter", "hash_join", "inl_join", "sort", "aggregate",
         "limit", "distinct", "join_agg"]
    ))
    threshold = draw(st.integers(min_value=0, max_value=12))
    if shape == "scan":
        root = TableScan(left)
    elif shape == "filter":
        root = Filter(TableScan(left), col("l.k") >= lit(threshold))
    elif shape == "hash_join":
        # `linear` is a declared key constraint: only honest when one side's
        # join column is actually unique (misdeclaring voids the bounds).
        linear = (
            len(set(left_values)) == len(left_values)
            or len(set(right_values)) == len(right_values)
        ) and draw(st.booleans())
        root = HashJoin(TableScan(left), TableScan(right),
                        col("l.k"), col("r.k"), linear=linear)
    elif shape == "inl_join":
        index = HashIndex("hx", right, "k")
        root = IndexNestedLoopsJoin(TableScan(left), index, col("l.k"))
    elif shape == "sort":
        root = Sort(Filter(TableScan(left), col("l.k") < lit(threshold)),
                    [SortKey(col("l.k"))])
    elif shape == "aggregate":
        root = HashAggregate(TableScan(left), [("k", col("l.k"))],
                             [count_star("n")])
    elif shape == "limit":
        root = Limit(TableScan(left), draw(st.integers(0, 70)))
    elif shape == "distinct":
        root = Distinct(TableScan(left))
    else:  # join_agg
        join = HashJoin(TableScan(left), TableScan(right),
                        col("l.k"), col("r.k"), linear=False)
        root = HashAggregate(join, [("k", col("l.k"))], [count_star("n")])
    return Plan(root, "prop-%s" % (shape,))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(plans())
def test_bounds_invariant_at_every_tick(plan):
    total = total_work(plan)
    tracker = BoundsTracker(plan)
    monitor = ExecutionMonitor()

    def check(m):
        snapshot = tracker.snapshot()
        assert m.total_ticks <= snapshot.lower + 1e-9
        assert snapshot.lower <= total + 1e-9
        assert total <= snapshot.upper + 1e-9

    monitor.add_observer(check, every=1)
    for _ in plan.root.iterate(ExecutionContext(monitor)):
        pass
    final = tracker.snapshot()
    assert final.curr == total


@settings(max_examples=40, deadline=None, derandomize=True)
@given(plans())
def test_estimator_guarantees_pointwise(plan):
    total = total_work(plan)
    if total == 0:
        return
    report = run_with_estimators(plan, standard_toolkit(), target_samples=50)
    try:
        mu_value = mu(plan, total=total)
    except Exception:
        mu_value = None
    for sample in report.trace.samples:
        for value in sample.estimates.values():
            assert 0.0 <= value <= 1.0
        # Property 4: pmax over-estimates
        assert sample.estimates["pmax"] >= sample.actual - 1e-9
        # Theorem 5: pmax within mu (needs scanned leaves)
        if mu_value is not None and sample.actual > 0:
            assert sample.estimates["pmax"] <= mu_value * sample.actual + 1e-6
        # safe within sqrt(UB/LB)
        if sample.actual > 0 and sample.estimates["safe"] > 0:
            bound = math.sqrt(sample.upper_bound / max(sample.lower_bound, 1e-12))
            ratio = max(
                sample.estimates["safe"] / sample.actual,
                sample.actual / sample.estimates["safe"],
            )
            assert ratio <= bound * (1 + 1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rows_strategy)
def test_dne_exact_for_uniform_single_pipeline(values):
    """Scan-only pipeline: work per tuple is constant ⇒ dne is exact."""
    table = Table("t", schema_of("t", "k:int"), [(v,) for v in values])
    plan = Plan(TableScan(table))
    report = run_with_estimators(plan, [DneEstimator()], target_samples=50)
    for sample in report.trace.samples:
        assert sample.estimates["dne"] == sample.actual


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=50),
    st.lists(st.integers(0, 8), min_size=1, max_size=50),
)
def test_join_algorithms_agree(left_values, right_values):
    """hash ≡ INL ≡ sort-merge on arbitrary inputs."""
    left, right = build_tables(left_values, right_values)
    hash_join = HashJoin(TableScan(left), TableScan(right),
                         col("l.k"), col("r.k"))
    inl = IndexNestedLoopsJoin(
        TableScan(left), HashIndex("hx", right, "k"), col("l.k")
    )
    merge = __import__("repro.engine.operators.merge_join",
                       fromlist=["MergeJoin"]).MergeJoin(
        Sort(TableScan(left), [SortKey(col("l.k"))]),
        Sort(TableScan(right), [SortKey(col("r.k"))]),
        col("l.k"), col("r.k"),
    )
    results = [sorted(j.run(ExecutionContext())) for j in (hash_join, inl, merge)]
    assert results[0] == results[1] == results[2]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=60),
       st.integers(0, 6))
def test_sort_output_sorted_and_permutation(values, _):
    table = Table("t", schema_of("t", "k:int"), [(v,) for v in values])
    sort = Sort(TableScan(table), [SortKey(col("k"))])
    out = [row[0] for row in sort.run(ExecutionContext())]
    assert out == sorted(values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=60))
def test_aggregate_counts_partition_input(values):
    table = Table("t", schema_of("t", "k:int"), [(v,) for v in values])
    agg = HashAggregate(TableScan(table), [("k", col("k"))], [count_star("n")])
    out = agg.run(ExecutionContext())
    assert sum(row[1] for row in out) == len(values)
    assert {row[0] for row in out} == set(values)
