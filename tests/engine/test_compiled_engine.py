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
    assert "[MergeJoin: lookahead on both inputs]" in text
    assert text.count("def program(") == 3  # the plan and ⋈merge's two inputs
    assert text.count("-> yield") == 2


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
