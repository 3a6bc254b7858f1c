"""Differential suite: the compiled engines vs the interpreted reference.

The fused engine (``repro/engine/compiled.py``) and the columnar engine
(``repro/engine/columnar.py``) share one contract: each is *observationally
identical* to the row-at-a-time Volcano reference: the same
rows in the same order, the same per-operator getnext counts, observers
firing at exactly the same total-tick instants (seeing the same per-operator
counters when they do), and — stacking all of that — bit-identical estimator
traces.  This suite asserts each of those layers, for every engine in
``executor.ENGINES``, over all 22 TPC-H plans and the adversarial join plans
of §5 (the merge/NL plans exercise the columnar engine's per-subtree
fallback: unsupported operators run through the fused adapters mid-plan).

Plans hold operator state, so every run builds a fresh plan; counts are
compared positionally over the plan's canonical pre-order traversal (labels
embed a process-wide id counter and differ between builds).
"""

from __future__ import annotations

import pytest

from repro.core.estimators.dne import DneEstimator
from repro.core.estimators.pmax import PmaxEstimator
from repro.core.estimators.safe import SafeEstimator
from repro.core.runner import run_with_estimators
from repro.engine.executor import ENGINES, execute
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import ExecutionContext
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import TableScan
from repro.engine.plan import Plan
from repro.workloads.adversarial import make_example2, make_zipfian_join
from repro.workloads.tpch.queries import build_query

#: observer cadence used for firing-instant comparisons — deliberately an
#: awkward prime so batches rarely line up with it by accident.
EVERY = 37

#: queries whose estimator traces are compared end to end (covers scans,
#: hash/INL joins, sorts, both aggregate kinds, TopN, outer joins).
TRACED_QUERIES = (1, 3, 6, 12, 13, 15, 18, 21)


def _run_differential(build_plan, every: int = EVERY):
    """Run ``build_plan()`` under every engine; return comparable traces."""
    out = {}
    for engine in ENGINES:
        plan = build_plan()
        operators = list(plan.operators())
        monitor = ExecutionMonitor()
        firings = []

        def observe(m, operators=operators, firings=firings):
            counts = m.counts()
            firings.append((
                m.total_ticks,
                tuple(counts.get(op.operator_id, 0) for op in operators),
            ))

        monitor.add_observer(observe, every=every)
        result = execute(plan, ExecutionContext(monitor), engine=engine)
        counts = monitor.counts()
        out[engine] = {
            "rows": result.rows,
            "total": monitor.total_ticks,
            "per_op": tuple(
                (op.name, counts.get(op.operator_id, 0)) for op in operators
            ),
            "firings": firings,
        }
    return out


def _assert_identical(build_plan, every: int = EVERY):
    out = _run_differential(build_plan, every=every)
    interpreted = out["interpreted"]
    for engine in ENGINES:
        if engine == "interpreted":
            continue
        compiled = out[engine]
        assert compiled["rows"] == interpreted["rows"], engine
        assert compiled["total"] == interpreted["total"], engine
        assert compiled["per_op"] == interpreted["per_op"], engine
        assert compiled["firings"] == interpreted["firings"], engine


# -- TPC-H ------------------------------------------------------------------------


@pytest.mark.parametrize("number", range(1, 23))
def test_tpch_query_identical_under_both_engines(tpch_db, number):
    _assert_identical(lambda: build_query(tpch_db, number))


@pytest.mark.parametrize("number", TRACED_QUERIES)
def test_tpch_estimator_traces_identical(tpch_db, number):
    traces = {}
    for engine in ENGINES:
        report = run_with_estimators(
            build_query(tpch_db, number),
            [DneEstimator(), PmaxEstimator(), SafeEstimator()],
            catalog=tpch_db.catalog,
            engine=engine,
        )
        traces[engine] = [
            (s.curr, s.actual, s.estimates, s.lower_bound, s.upper_bound)
            for s in report.trace.samples
        ]
        assert report.total == traces[engine][-1][0]
    for engine in ENGINES:
        assert traces[engine] == traces["interpreted"], engine


# -- adversarial joins -------------------------------------------------------------


@pytest.fixture(scope="module")
def zipf():
    return make_zipfian_join(n=2000, z=2.0, order="skew_last", seed=7)


def test_zipfian_inl_identical(zipf):
    _assert_identical(zipf.inl_plan)


def test_zipfian_inl_filtered_identical(zipf):
    _assert_identical(lambda: zipf.inl_plan(skip_top_ranks=3))


def test_zipfian_hash_identical(zipf):
    _assert_identical(zipf.hash_plan)


def test_zipfian_merge_identical(zipf):
    _assert_identical(zipf.merge_plan)


def test_example2_inl_identical():
    workload = make_example2(n=500, matches=40)
    _assert_identical(workload.inl_plan)


def test_nested_loops_rescan_identical(zipf):
    # ⋈NL rescans the inner per outer row: the hardest accounting case
    # (rewind events, spool re-emission) — run it at a smaller n.
    small = make_zipfian_join(n=60, z=1.5, order="random", seed=3)

    def build():
        outer = TableScan(small.r1)
        inner = TableScan(small.r2)
        from repro.engine.expressions import col

        join = NestedLoopsJoin(outer, inner, col("r1.a") == col("r2.b"))
        return Plan(join, "zipf-nl")

    _assert_identical(build)


def test_zipfian_estimator_traces_identical(zipf):
    traces = {}
    for engine in ENGINES:
        report = run_with_estimators(
            zipf.inl_plan(),
            [DneEstimator(), PmaxEstimator(), SafeEstimator()],
            catalog=zipf.catalog,
            engine=engine,
        )
        traces[engine] = [
            (s.curr, s.actual, s.estimates, s.lower_bound, s.upper_bound)
            for s in report.trace.samples
        ]
    for engine in ENGINES:
        assert traces[engine] == traces["interpreted"], engine


# -- cadence edge cases ------------------------------------------------------------


@pytest.mark.parametrize("every", (1, 2, 1000))
def test_observer_cadence_extremes(tpch_db, every):
    # every=1 forces a flush per tick (the batched path degenerates to the
    # interpreted one); a huge cadence means only boundary-forced rounds.
    _assert_identical(lambda: build_query(tpch_db, 6), every=every)
    _assert_identical(lambda: build_query(tpch_db, 18), every=every)


# -- the generated code: its cache, its life cycle, its text ------------------------


import gc  # noqa: E402
import itertools  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import types  # noqa: E402

from repro.core import decompose  # noqa: E402
from repro.engine import compiled  # noqa: E402
from repro.engine.expressions import col, lit  # noqa: E402
from repro.engine.operators import (  # noqa: E402
    Filter,
    LeafOperator,
    Project,
    UnaryOperator,
)
from repro.storage import Table, schema_of  # noqa: E402


def _program(plan):
    """The function the fused engine would run ``plan`` with."""
    context = ExecutionContext()
    plan.root.open(context)
    try:
        return compiled._Compiler(context.monitor).program(plan.root)[0]
    finally:
        plan.root.close()


def _small_table(name="t"):
    return Table(
        name, schema_of(name, "a:int", "b:int", "c:int", "d:int"),
        [(i, i % 3, -i, 7) for i in range(20)],
    )


def test_one_shape_is_one_code_object_whatever_the_literals_and_ids():
    def plan(table, column, cut):
        return Plan(Filter(TableScan(table), col(column) < lit(cut)))

    first = plan(_small_table(), "a", 5)
    second = plan(_small_table("other"), "a", 11)
    assert first.root.operator_id != second.root.operator_id
    assert _program(first).__code__ is _program(second).__code__
    # ...and each run is bound to its own plan's constants
    assert len(execute(first, engine="fused").rows) == 5
    assert len(execute(second, engine="fused").rows) == 11
    # a different schema position is a different text
    moved = plan(_small_table(), "c", 5)
    assert _program(moved).__code__ is not _program(first).__code__


def test_code_cache_stays_bounded_under_a_thousand_shapes():
    table = _small_table()
    shapes = itertools.islice(itertools.product("abcd", repeat=5), 1000)
    seen = set()
    for names in shapes:
        plan = Plan(Project(
            TableScan(table), [("o%d" % i, col(n)) for i, n in enumerate(names)]
        ))
        seen.add(_program(plan).__code__)
        assert len(compiled._CODE) <= compiled._CODE_CACHE_LIMIT
    assert len(seen) == 1000


def test_eight_threads_on_shared_code_equal_their_solo_runs(tpch_db):
    def trace(number):
        report = run_with_estimators(
            build_query(tpch_db, number),
            [DneEstimator(), PmaxEstimator(), SafeEstimator()],
            catalog=tpch_db.catalog, engine="fused",
        )
        return [
            (s.curr, s.actual, s.estimates, s.lower_bound, s.upper_bound)
            for s in report.trace.samples
        ]

    numbers = (3, 3, 6, 1, 3, 6, 12, 18)  # same shapes and different ones
    solo = {number: trace(number) for number in set(numbers)}
    traces = [None] * len(numbers)

    def work(slot):
        traces[slot] = trace(numbers[slot])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand over inside the generated loops
    try:
        compiled._CODE.clear()  # ...and race on the first compile
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert traces == [solo[number] for number in numbers]


class _Relay(UnaryOperator):
    """A user-defined operator: the fused engine adapts it, shimming its child."""

    name = "Relay"

    def __init__(self, child):
        super().__init__(child.schema, child)

    def _open(self):
        pass

    def _next(self):
        return self.child.get_next()


class _Fuse(LeafOperator):
    name = "Fuse"

    def __init__(self, schema, rows, fail):
        super().__init__(schema)
        self.rows, self.fail = rows, fail

    def _open(self):
        self._cursor = 0

    def _next(self):
        if self._cursor >= len(self.rows):
            if self.fail:
                raise RuntimeError("boom")
            return None
        self._cursor += 1
        return self.rows[self._cursor - 1]


def _reachable(root):
    """Every object reachable from ``root`` (by ``gc.get_referents``)."""
    seen, stack = {}, [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen[id(item)] = item
        stack.extend(gc.get_referents(item))
    return seen.values()


@pytest.mark.parametrize("fail", [False, True])
def test_a_run_leaves_nothing_generated_on_the_plan(fail):
    table = _small_table()
    schema = table.schema.qualified("t")
    plan = Plan(Filter(
        _Relay(Filter(_Fuse(schema, table._rows, fail), col("a") >= lit(2))),
        col("b") < lit(2),
    ))
    if fail:
        with pytest.raises(RuntimeError):
            execute(plan, engine="fused")
    else:
        assert len(execute(plan, engine="fused").rows) == 12
    for op in plan.operators():
        # remove_shims has nothing left to undo
        assert "get_next" not in vars(op) and "rewind" not in vars(op)
    for item in _reachable(plan):
        assert not isinstance(item, (types.GeneratorType, types.FrameType))
        if isinstance(item, types.FunctionType):
            assert item.__code__.co_filename != "<fused>"
            assert item.__module__ != compiled.__name__
    assert pickle.loads(pickle.dumps(plan)).root.name == "Filter"


def test_generated_source_pins_q3(tpch_db):
    """q3 is five pipelines — one per pipeline of the paper's decomposition,
    three of them scan-driven — with every operator inlined."""
    plan = build_query(tpch_db, 3)
    text = compiled.generated_source(plan)
    headers = [
        line.strip() for line in text.splitlines()
        if line.lstrip().startswith("# pipeline")
    ]
    assert headers == [
        "# pipeline 1: TableScan -> Filter -> build HashJoin",
        "# pipeline 2: TableScan -> Filter -> HashJoin -> build HashJoin",
        "# pipeline 3: TableScan -> Filter -> HashJoin -> build HashAggregate",
        "# pipeline 4: HashAggregate -> build TopN",
        "# pipeline 5: TopN -> result",
    ]
    assert len(headers) == len(decompose(plan))
    assert text.count("def program(") == 1 and "[" not in "".join(headers)
    assert "yield" not in text
    # asking for the text runs nothing and leaves the plan as it was
    assert all(not op.is_open for op in plan.operators())


def test_generated_source_names_row_sources_with_the_reason(zipf):
    text = compiled.generated_source(zipf.merge_plan())
    assert "# pipeline 2: Sort -> MergeJoin <- [Sort: pulled] -> result" in text
    # one `program` for the plan and one generator for the right input
    assert text.count("def program(") == 2
    assert text.count("-> yield") == 1


def test_a_chain_too_deep_for_one_loop_nest_is_cut_into_generators():
    """CPython refuses more than 20 nested blocks: past ``_MAX_LOOPS`` match
    loops the rest of the probe chain becomes a generator of its own."""
    from repro.engine.operators import HashJoin

    tables = [
        Table("t%d" % i, schema_of("t%d" % i, "a:int"),
              [(v,) for v in range(6) for _ in range(1 + (i == 3))])
        for i in range(compiled._MAX_LOOPS + 4)
    ]

    def build():
        root = TableScan(tables[0])
        for table in tables[1:]:
            root = HashJoin(
                TableScan(table), root, col(table.name + ".a"), col("t0.a")
            )
        return Plan(root, "deep")

    text = compiled.generated_source(build())
    assert text.count("def program(") == 2 and ": pulled]" in text
    _assert_identical(build, every=7)


def test_generated_source_pins_q18(tpch_db):
    """Stream-γ is inlined: the open group closes inside the sort's emit
    loop, and the last one in a one-row pipeline after the input's end."""
    text = compiled.generated_source(build_query(tpch_db, 18))
    headers = [
        line.strip() for line in text.splitlines()
        if line.lstrip().startswith("# pipeline")
    ]
    assert headers[:3] == [
        "# pipeline 1: TableScan -> build Sort",
        "# pipeline 2: Sort -> StreamAggregate -> Filter"
        + " -> IndexNestedLoopsJoin" * 3 + " -> build HashAggregate",
        "# pipeline 3: StreamAggregate -> Filter"
        + " -> IndexNestedLoopsJoin" * 3 + " -> build HashAggregate",
    ]
    assert "[StreamAggregate" not in text and "[" not in "".join(headers)
    assert "update(" not in text and "lambda" not in text
    assert text.count("def program(") == 1 and "yield" not in text


# -- the order-based operators: ⋈merge and stream-γ as emitters ---------------------

from repro.engine.monitor import EVENT_TICK  # noqa: E402
from repro.engine.operators import (  # noqa: E402
    Limit,
    MergeJoin,
    Sort,
    SortKey,
    StreamAggregate,
    agg_sum,
    count_star,
)
from repro.errors import ExecutionError  # noqa: E402
from repro.storage.schema import Column, ColumnType, Schema  # noqa: E402


def _story(build_plan, engine, every):
    """Everything an observer of one run can see, ids made positional."""
    plan = build_plan()
    operators = list(plan.operators())
    index = {op.operator_id: i for i, op in enumerate(operators)}
    monitor = ExecutionMonitor()
    instants, events = [], []

    def observe(m):
        counts = m.counts()
        instants.append((
            m.total_ticks,
            tuple(counts.get(op.operator_id, 0) for op in operators),
            tuple(op.finished for op in operators),
        ))
        # at an instant nothing is pending: the operators' own counters
        # and the monitor's agree
        assert all(
            op.rows_produced == counts.get(op.operator_id, 0) for op in operators
        )

    monitor.add_observer(observe, every=every)
    monitor.add_batch_listener(
        lambda op, kind, n: kind == EVENT_TICK
        or events.append((monitor.total_ticks, kind, index[op]))
    )
    try:
        rows = execute(plan, ExecutionContext(monitor), engine=engine).rows
    except ExecutionError as error:
        rows = str(error)
    counts = monitor.counts()
    return {
        "rows": rows,
        "total": monitor.total_ticks,
        "per_op": [(op.name, counts.get(op.operator_id, 0)) for op in operators],
        "produced": [op.rows_produced for op in operators],
        "finished": [op.finished for op in operators],
        "instants": instants,
        "events": events,
    }


def _same_story(build_plan):
    """All engines tell the interpreter's story at cadences 1, 2 and 1000;
    returns the interpreter's (cadence 1000) for pinning."""
    for every in (1, 2, 1000):
        reference = _story(build_plan, "interpreted", every)
        for engine in ENGINES:
            assert _story(build_plan, engine, every) == reference, (engine, every)
    return reference


def _nullable(name, key_type, other):
    return Schema.of(name, [
        Column("k", ColumnType.INT, nullable=True), Column(other, key_type),
    ])


def _keys(name, values):
    return Table(name, _nullable(name, ColumnType.INT, "tag"),
                 [(v, i) for i, v in enumerate(values)])


def _merge(left, right, sort_left=False, sort_right=False):
    def build():
        l, r = TableScan(left), TableScan(right)
        if sort_left:
            l = Sort(l, [SortKey(col(left.name + ".k"))])
        if sort_right:
            r = Sort(r, [SortKey(col(right.name + ".k"))])
        return Plan(
            MergeJoin(l, r, col(left.name + ".k"), col(right.name + ".k")),
            "merge",
        )

    return build


def test_merge_over_bare_scans_with_null_keys_and_duplicate_groups():
    left = _keys("l", [None, 1, 1, 2, None, 3, 3, 5, 5])
    right = _keys("r", [None, 1, 1, 3, None, 3, 4, 5, 5, 6, None])
    story = _same_story(_merge(left, right))
    assert [(row[0], row[1], row[3]) for row in story["rows"]] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
        (3, 5, 3), (3, 5, 5), (3, 6, 3), (3, 6, 5),
        (5, 7, 7), (5, 7, 8), (5, 8, 7), (5, 8, 8),
    ]
    # left ran dry on the right's lookahead row, its last row still unread
    assert story["per_op"] == [("MergeJoin", 12), ("TableScan", 9), ("TableScan", 10)]
    assert story["finished"] == [True, True, False]


def test_merge_with_an_empty_left_never_pulls_the_right():
    story = _same_story(_merge(_keys("l", []), _keys("r", [1, 2, 3])))
    assert story["rows"] == [] and story["total"] == 0
    assert story["finished"] == [True, True, False]
    assert [(kind, op) for _, kind, op in story["events"]] == [
        ("finish", 1), ("finish", 0),
    ]
    # ... and neither does a left of NULL keys only
    story = _same_story(_merge(_keys("l", [None, None]), _keys("r", [1])))
    assert story["per_op"] == [("MergeJoin", 0), ("TableScan", 2), ("TableScan", 0)]


def test_merge_with_an_empty_right_drains_the_left():
    story = _same_story(_merge(_keys("l", [1, 2, 3]), _keys("r", [])))
    assert story["rows"] == [] and story["total"] == 3
    assert [(at, kind, op) for at, kind, op in story["events"]] == [
        (1, "finish", 2), (3, "finish", 1), (3, "finish", 0),
    ]


def test_merge_whose_left_runs_dry_abandons_the_right_unfinished():
    story = _same_story(_merge(_keys("l", [1, 2]), _keys("r", [1, 2, 3, 4, 5])))
    assert len(story["rows"]) == 2
    assert story["per_op"] == [("MergeJoin", 2), ("TableScan", 2), ("TableScan", 3)]
    assert story["finished"] == [True, True, False]
    assert all(op != 2 for _, _, op in story["events"])


def test_merge_over_an_unsorted_input_raises_at_the_interpreters_tick():
    right = _same_story(_merge(
        _keys("l", [0, 1, 2, 3, 4, 5]), _keys("r", [2, 1, 3, 4, 5, 6])
    ))
    assert right["rows"] == "merge join: right input not sorted on key"
    assert right["total"] == 5
    assert right["per_op"] == [("MergeJoin", 0), ("TableScan", 3), ("TableScan", 2)]
    left = _same_story(_merge(
        _keys("l", [1, 2, 0, 3, 4, 5, 6]), _keys("r", [1, 2, 3, 4, 5, 6, 7])
    ))
    assert left["rows"] == "merge join: left input not sorted on key"
    assert left["total"] == 8
    assert left["per_op"] == [("MergeJoin", 2), ("TableScan", 3), ("TableScan", 3)]


def test_merge_under_limit_is_pulled_and_abandoned():
    left, right = _keys("l", [1, 1, 2, 3, 4]), _keys("r", [1, 1, 3, 4, 4])
    for limit, offset in ((0, 0), (3, 0), (2, 1), (99, 0)):
        def build():
            return Plan(Limit(_merge(left, right)().root, limit, offset), "lim")

        story = _same_story(build)
        assert len(story["rows"]) == min(limit, 7 - offset)
    text = compiled.generated_source(build())
    assert "[Limit: stops early]" in text
    assert "TableScan -> MergeJoin <- [TableScan: pulled] -> yield" in text


def test_merge_as_a_nested_loops_inner_rescans_and_keeps_its_spools():
    outer = _keys("o", [1, 3, 3, 7])
    left, right = _keys("l", [3, 1, 2, 3, None]), _keys("r", [3, 3, None, 1])

    def build():
        inner = _merge(left, right, sort_left=True, sort_right=True)().root
        return Plan(
            NestedLoopsJoin(TableScan(outer), inner, col("o.k") == col("l.k")),
            "nl-merge",
        )

    story = _same_story(build)
    assert len(story["rows"]) == 1 + 4 + 4
    # four passes over the merge, each sort built once
    assert dict(story["per_op"])["MergeJoin"] == 4 * 5
    assert [n for name, n in story["per_op"] if name == "TableScan"] == [4, 5, 4]
    assert sum(kind == "rewind" for _, kind, _ in story["events"]) == 4 * 5


def test_merge_with_a_sort_on_one_side_only():
    sorted_side, shuffled = _keys("a", [1, 2, 2, 4, None]), _keys("b", [4, None, 2, 1, 2])
    left_sorted = _same_story(_merge(shuffled, sorted_side, sort_left=True))
    right_sorted = _same_story(_merge(sorted_side, shuffled, sort_right=True))
    assert len(left_sorted["rows"]) == len(right_sorted["rows"]) == 6
    text = compiled.generated_source(_merge(sorted_side, shuffled, sort_right=True)())
    assert "TableScan -> MergeJoin <- [Sort: pulled] -> result" in text


def _stream(values, grouped=True, limit=None):
    table = Table("g", _nullable("g", ColumnType.FLOAT, "v"),
                  [(k, float(i)) for i, k in enumerate(values)])

    def build():
        root = StreamAggregate(
            TableScan(table),
            [("k", col("g.k"))] if grouped else [],
            [count_star("n"), agg_sum(col("g.v"), "s")],
        )
        if limit is not None:
            root = Limit(root, limit)
        return Plan(root, "stream")

    return build


def test_stream_aggregate_over_empty_input():
    grouped = _same_story(_stream([]))
    assert grouped["rows"] == [] and grouped["total"] == 0
    scalar = _same_story(_stream([], grouped=False))
    assert scalar["rows"] == [(0, None)] and scalar["total"] == 1
    # the one row comes after the child's finish, before the aggregate's
    assert scalar["events"] == [(0, "finish", 1), (1, "finish", 0)]


def test_stream_aggregate_null_keys_one_group_and_many():
    story = _same_story(_stream([None, None, 1, 1, None, 2]))
    assert story["rows"] == [
        (None, 2, 1.0), (1, 2, 5.0), (None, 1, 4.0), (2, 1, 5.0),
    ]
    assert story["events"] == [(9, "finish", 1), (10, "finish", 0)]
    assert _same_story(_stream([7, 7, 7]))["rows"] == [(7, 3, 3.0)]
    assert _same_story(_stream([7, 7, 7], grouped=False))["rows"] == [(3, 3.0)]


def test_stream_aggregate_under_limit_stops_mid_group():
    for limit in (0, 1, 2, 3, 9):
        story = _same_story(_stream([1, 1, 2, 3, 3], limit=limit))
        assert len(story["rows"]) == min(limit, 3)
    # two groups out: the scan stopped on the first row of the third
    assert story["finished"] == [True, True, True]
    story = _same_story(_stream([1, 1, 2, 3, 3], limit=2))
    assert story["per_op"] == [("Limit", 2), ("StreamAggregate", 2), ("TableScan", 4)]
    assert story["finished"] == [True, False, False]


def test_stream_aggregate_feeding_a_filter_a_merge_and_a_sort():
    """The group row's consumer is emitted twice (inside the loop and for
    the last group): a filter that rejects, a merge step with its own
    state, and a blocking sort above all stay exact."""
    left = _keys("l", [1, 1, 2, 2, 2, 4, 5, 5])
    right = _keys("r", [2, 2, 3, 5])

    def build():
        groups = StreamAggregate(
            TableScan(left), [("k", col("l.k"))], [count_star("n")]
        )
        kept = Filter(groups, col("n") > lit(1))
        join = MergeJoin(kept, TableScan(right), col("k"), col("r.k"))
        return Plan(Sort(join, [SortKey(col("r.tag"), True)]), "stack")

    story = _same_story(build)
    assert story["rows"] == [(5, 2, 5, 3), (2, 3, 2, 1), (2, 3, 2, 0)]
