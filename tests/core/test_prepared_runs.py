"""Re-runs of one plan object reuse its prepared analysis, exactly.

A plan's first instrumented run stores the run-invariant analysis on the
plan (:func:`repro.core.runner.prepare`), and its first fused run the
generated program with it; later runs reuse both while the key — catalog
fingerprint, bound-provider stack, input sizes — holds, and rebuild them
when any of them moves.  Reuse must not change a single number: the second
and third runs of a plan equal a fresh copy's runs, sample for sample and
event for event, on every engine and both bound stacks, also after a run
that was cancelled or failed mid-pipeline.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re

import pytest

import repro
from repro.core.observe import MemorySink
from repro.core.estimators import standard_toolkit
from repro.core.runner import PreparedPlan, ProgressRunner, prepare
from repro.engine import compiled
from repro.engine.executor import ENGINES
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    Filter,
    HashJoin,
    Limit,
    MergeJoin,
    NestedLoopsJoin,
    Project,
    RowSource,
    Sort,
    SortKey,
    TableScan,
    UnionAll,
)
from repro.engine.plan import Plan
from repro.stats import StatisticsManager
from repro.storage import Table, schema_of
from repro.workloads.tpch.queries import build_query

STACKS = (("paper2005",), ("paper2005", "degree_seq"))
#: event fields that read the wall clock
_TIMING = ("elapsed_seconds", "ticks_per_second", "eta_seconds",
           "eta_interval_seconds")


def _digest(plan, report, sink) -> str:
    """The sealed samples plus every event, with operator ids replaced by
    pre-order positions so two copies of one plan compare equal."""
    position = {op.operator_id: i for i, op in enumerate(plan.operators())}
    records = []
    for event in sink.events:
        record = event.to_dict()
        for field in _TIMING:
            record.pop(field)
        payload = record.get("payload") or {}
        if "operator_id" in payload:
            payload["operator_id"] = position[payload["operator_id"]]
        records.append(record)
    samples = [
        (s.curr, s.actual, s.estimates, s.lower_bound, s.upper_bound)
        for s in report.trace.samples
    ]
    text = json.dumps([samples, records], sort_keys=True, default=repr)
    text = re.sub(r"#(\d+)", lambda m: "#%d" % position[int(m.group(1))], text)
    return hashlib.sha256(text.encode()).hexdigest()


def _run(session, plan, **options):
    sink = MemorySink()
    report = session.run(plan, sinks=[sink], **options)
    refined = sum(event.kind == "bound_refined" for event in sink.events)
    return _digest(plan, report, sink), refined


@pytest.mark.filterwarnings("ignore:bound provider 'degree_seq' has no opinion")
@pytest.mark.parametrize("bounds", STACKS, ids=lambda s: "+".join(s))
@pytest.mark.parametrize("engine", ENGINES)
def test_reruns_equal_a_fresh_copy(tpch_db, engine, bounds):
    session = repro.connect(catalog=tpch_db.catalog)
    refined = 0
    # q7 is the one the degree_seq overlay tightens at this size
    for number in (1, 3, 7, 10, 18, 21):
        plan = build_query(tpch_db, number)
        reruns = [
            _run(session, plan, engine=engine, bounds=bounds)
            for _ in range(3)
        ]
        prepared = plan._prepared
        assert isinstance(prepared, PreparedPlan)
        fresh = [
            _run(session, build_query(tpch_db, number),
                 engine=engine, bounds=bounds)
            for _ in range(3)
        ]
        assert reruns == fresh, number
        assert plan._prepared is prepared  # reused, never rebuilt
        refined += reruns[-1][1]
    assert (refined > 0) == ("degree_seq" in bounds)


def _bounds_trace(report):
    return [(s.curr, s.lower_bound, s.upper_bound) for s in report.trace.samples]


def _assert_sound(report):
    total = report.total
    for sample in report.trace.samples:
        assert sample.curr <= sample.lower_bound <= total <= sample.upper_bound


def _hr_sql(session):
    return session.sql(
        "SELECT name, dname FROM emp JOIN dept ON dept = did "
        "WHERE salary < 1500 ORDER BY name"
    )


def _rerun_against_fresh(session, plan, fresh_plan, **options):
    """Run ``plan`` again and a fresh plan once; both reports."""
    before = plan._prepared
    report = session.run(plan, **options)
    assert plan._prepared is not before  # rebuilt
    fresh = session.run(fresh_plan, **options)
    assert _bounds_trace(report) == _bounds_trace(fresh)
    assert report.total == fresh.total
    _assert_sound(report)
    return report


def test_unchanged_inputs_reuse_the_analysis(hr_catalog):
    session = repro.connect(catalog=hr_catalog)
    plan = _hr_sql(session)
    session.run(plan)
    prepared = plan._prepared
    tracker = prepared.tracker
    session.run(plan)
    assert plan._prepared is prepared and prepared.tracker is tracker
    assert prepare(plan, hr_catalog, ("paper2005",)) is prepared


def test_an_insert_into_a_scanned_table_rebuilds(hr_catalog):
    session = repro.connect(catalog=hr_catalog)
    plan = _hr_sql(session)
    first = session.run(plan)
    for i in range(100, 140):
        hr_catalog.table("emp").insert((i, i % 5, 1000.0 + i, "n%d" % i))
    report = _rerun_against_fresh(session, plan, _hr_sql(session))
    assert report.total > first.total


def test_a_reanalyze_rebuilds(hr_catalog):
    session = repro.connect(catalog=hr_catalog)
    plan = _hr_sql(session)
    session.run(plan)
    for i in range(100, 140):
        hr_catalog.table("emp").insert((i, i % 5, 1000.0 + i, "n%d" % i))
    session.run(plan)  # rebuilt on the stale statistics
    StatisticsManager(hr_catalog).analyze_all()
    _rerun_against_fresh(session, plan, _hr_sql(session))


def _source_plan(rows):
    source = RowSource(schema_of("s", "a:int", "b:int"), rows)
    return Plan(Filter(source, col("s.b") < lit(2))), source


def test_a_growing_row_source_rebuilds():
    rows = [(i, i % 4) for i in range(20)]
    plan, source = _source_plan(rows)
    runner = ProgressRunner(plan, standard_toolkit())
    assert runner.run().total == 20 + 10
    before = plan._prepared
    source.rows.extend((i, i % 4) for i in range(20, 60))
    report = runner.run()
    assert plan._prepared is not before
    assert plan._prepared.scanned_input == 60
    fresh = ProgressRunner(
        _source_plan(source.rows)[0], standard_toolkit()
    ).run()
    assert report.total == fresh.total == 60 + 30
    assert _bounds_trace(report) == _bounds_trace(fresh)
    _assert_sound(report)


def test_a_table_outside_the_catalog_that_grows_rebuilds(hr_catalog):
    session = repro.connect(catalog=hr_catalog)
    outside = Table(
        "outside", schema_of("outside", "k:int"), [(i,) for i in range(5)]
    )

    def build():
        return Plan(HashJoin(
            TableScan(outside), TableScan(hr_catalog.table("dept")),
            col("outside.k"), col("dept.did"),
        ))

    plan = build()
    session.run(plan)
    before = plan._prepared
    for i in range(5, 30):
        outside.insert((i % 5,))
    _rerun_against_fresh(session, plan, build())
    assert plan._prepared is not before


def test_a_changed_bound_stack_rebuilds(tpch_db):
    session = repro.connect(catalog=tpch_db.catalog)
    plan = build_query(tpch_db, 3)
    session.run(plan)
    assert plan._prepared.tracker.providers[-1].name == "paper2005"
    report = _rerun_against_fresh(
        session, plan, build_query(tpch_db, 3),
        bounds=("paper2005", "degree_seq"),
    )
    assert plan._prepared.tracker.providers[-1].name == "degree_seq"
    assert report.trace.samples


def test_a_run_plans_pickle_carries_no_memo(tpch_db):
    session = repro.connect(catalog=tpch_db.catalog)
    plan = build_query(tpch_db, 3)
    first = session.run(plan)
    assert plan._prepared is not None
    data = pickle.dumps(plan)
    clone = pickle.loads(data)
    assert "_prepared" not in clone.__dict__ and clone._prepared is None
    assert b"PreparedPlan" not in data and b"BoundsTracker" not in data
    # the original keeps its memo, and the clone builds its own
    assert plan._prepared is not None
    assert session.run(clone).total == first.total
    assert clone._prepared is not None


# -- the kept fused program: row sources, pulled inputs, aborted runs -----------------


def _scan(catalog, name):
    return TableScan(catalog.table(name))


#: plans whose fused program drives row sources through the generic adapter
#: (shimmed children, rescans) or pulls from a generator
ROW_SOURCE_PLANS = {
    "limit": lambda c: Plan(Limit(
        Filter(_scan(c, "emp"), col("emp.salary") < lit(1800.0)), 30,
    )),
    "nl_inner_rescanned": lambda c: Plan(NestedLoopsJoin(
        _scan(c, "dept"),
        Filter(_scan(c, "emp"), col("emp.id") < lit(60)),
        col("emp.dept") == col("dept.did"),
    )),
    "union_all": lambda c: Plan(UnionAll(
        Filter(_scan(c, "emp"), col("emp.dept") == lit(1)),
        Filter(_scan(c, "emp"), col("emp.salary") > lit(1500.0)),
    )),
    "merge_pulled_right": lambda c: Plan(MergeJoin(
        Sort(_scan(c, "emp"), [SortKey(col("emp.dept"))]),
        Sort(_scan(c, "dept"), [SortKey(col("dept.did"))]),
        col("emp.dept"), col("dept.did"),
    )),
    "outer_hash_residual": lambda c: Plan(HashJoin(
        _scan(c, "dept"), _scan(c, "emp"),
        col("dept.did"), col("emp.dept"),
        residual=col("emp.salary") < lit(1500.0),
        preserve_probe=True,
    )),
}


def _story(plan, catalog, engine, monitor_factory=None):
    sink = MemorySink()
    report = ProgressRunner(
        plan, standard_toolkit(), catalog, target_samples=20, sinks=[sink],
        engine=engine, monitor_factory=monitor_factory,
    ).run()
    return _digest(plan, report, sink)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", sorted(ROW_SOURCE_PLANS))
def test_row_source_reruns_equal_a_fresh_copy(hr_catalog, engine, shape):
    build = ROW_SOURCE_PLANS[shape]
    plan = build(hr_catalog)
    reruns = [_story(plan, hr_catalog, engine) for _ in range(3)]
    fresh = [_story(build(hr_catalog), hr_catalog, engine) for _ in range(3)]
    assert reruns == fresh
    assert (plan._prepared.program is not None) == (engine == "fused")


class _Cancelled(Exception):
    pass


class _CancelledAt(ExecutionMonitor):
    """Raises from its recording entry points once ``at`` ticks were
    recorded, as a service monitor does on a cancel.  A fused flush that
    raises leaves the cells after the raising one holding counts."""

    def __init__(self, at):
        super().__init__()
        self.at = at

    def record(self, operator_id):
        if self.total_ticks >= self.at:
            raise _Cancelled()
        super().record(operator_id)

    def record_batch(self, operator_id, n):
        if self.total_ticks >= self.at:
            raise _Cancelled()
        super().record_batch(operator_id, n)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", sorted(ROW_SOURCE_PLANS))
def test_a_rerun_after_a_cancel_equals_a_fresh_copy(hr_catalog, engine, shape):
    build = ROW_SOURCE_PLANS[shape]
    plan = build(hr_catalog)
    first = _story(plan, hr_catalog, engine)
    for at in (7, 41):
        with pytest.raises(_Cancelled):
            _story(plan, hr_catalog, engine, lambda: _CancelledAt(at))
        assert all(not vars(op).keys() & {"get_next", "rewind"}
                   for op in plan.operators())
        assert _story(plan, hr_catalog, engine) == first
    assert first == _story(build(hr_catalog), hr_catalog, engine)


def _deep_limit(catalog):
    """Five operators counting in the shared cells of one pulled pipeline,
    so a cancel raised at the first cell of a flush leaves some pending."""
    chain = Filter(
        Filter(_scan(catalog, "emp"), col("emp.salary") < lit(1900.0)),
        col("emp.dept") != lit(3),
    )
    return Plan(Limit(
        Project(chain, [("id", col("emp.id")), ("dept", col("emp.dept"))]),
        50,
    ))


def test_counts_a_cancel_left_pending_do_not_reach_the_next_run(hr_catalog):
    plan = _deep_limit(hr_catalog)
    first = _story(plan, hr_catalog, "fused")
    leftovers = 0
    for at in range(5, 120, 7):
        with pytest.raises(_Cancelled):
            _story(plan, hr_catalog, "fused", lambda: _CancelledAt(at))
        cells = plan._prepared.program.acct._cells
        leftovers += sum(1 for _, pending in cells if pending[0])
        assert _story(plan, hr_catalog, "fused") == first
    assert leftovers  # the case the binding step exists for did happen
    assert first == _story(_deep_limit(hr_catalog), hr_catalog, "fused")


def _fragile_plan():
    """A ``Limit`` over a filtered row source, so the filter counts in the
    shared cells; a ``str`` in column ``b`` fails the comparison."""
    source = RowSource(schema_of("s", "a:int", "b:int"),
                       [(i, i % 4) for i in range(120)])
    return Plan(Limit(Filter(source, col("s.b") < lit(2)), 40)), source


@pytest.mark.parametrize("engine", ENGINES)
def test_a_rerun_after_a_failing_expression_equals_a_fresh_copy(engine):
    plan, source = _fragile_plan()
    first = _story(plan, None, engine)
    source.rows[33] = (33, "x")  # same size: the key holds
    with pytest.raises(TypeError):
        _story(plan, None, engine)
    source.rows[33] = (33, 1)
    assert _story(plan, None, engine) == first
    assert first == _story(_fragile_plan()[0], None, engine)


def test_the_fused_program_is_generated_once_per_key(monkeypatch, hr_catalog):
    generated = []
    program = compiled._Compiler.program

    def counting(self, root, keep_rows=True):
        generated.append(root)
        return program(self, root, keep_rows)

    monkeypatch.setattr(compiled._Compiler, "program", counting)
    session = repro.connect(catalog=hr_catalog, engine="fused")
    plan = _hr_sql(session)
    for _ in range(3):
        session.run(plan)
    assert generated == [plan.root]
    kept = plan._prepared.program
    assert isinstance(kept, compiled._Compiler)
    hr_catalog.table("emp").insert((100, 1, 1000.0, "n100"))
    session.run(plan)  # the key moved: a new memo, a new program
    session.run(plan)
    assert generated == [plan.root, plan.root]
    assert plan._prepared.program is not kept
    # execute() generates a program of its own; the interpreter none
    session.execute(plan)
    session.run(plan, engine="interpreted")
    assert len(generated) == 3 and plan._prepared.program is not kept
