"""The evaluation protocol: one execution, truth labeled at completion.

A run's own final counter is the oracle ``total(Q)`` (§2.2), so nothing is
executed twice and nothing is labeled before the run ends.  Pinned here,
on every engine and every service backend: the reported ``total`` equals
the explicit oracle :func:`measure_total_work` on a fresh plan, every
sealed ``actual`` is ``min(curr / total, 1)`` with the terminal sample
exactly 1.0, each run builds exactly one monitor, live samples carry
``actual=None``, and a service's sealed trace equals the solo run's.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DneEstimator,
    HybridVarianceEstimator,
    MemorySink,
    ProgressRunner,
    standard_toolkit,
)
from repro.engine.executor import ENGINES, measure_total_work
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    Filter,
    NestedLoopsJoin,
    Sort,
    SortKey,
    TableScan,
)
from repro.engine.plan import Plan
from repro.storage import Table, schema_of
from repro.workloads.tpch import build_query


# -- plan builders (a fresh plan object per call: operators hold run state) ----


def scan_plan():
    table = Table("t", schema_of("t", "a:int"), [(i % 9,) for i in range(900)])
    return Plan(Filter(TableScan(table), col("a") % lit(3) == lit(0)),
                "proto-scan")


def rewind_plan():
    """⋈NL over a filtered inner: rewind/finish-heavy, worst for cadence."""
    left = Table("l", schema_of("l", "k:int"), [(i % 6,) for i in range(40)])
    right = Table("r", schema_of("r", "k:int"), [(i % 6,) for i in range(50)])
    inner = Filter(TableScan(right), col("r.k") > lit(1))
    return Plan(
        NestedLoopsJoin(TableScan(left), inner, col("l.k") == col("r.k")),
        "proto-rewind",
    )


def blocking_plan():
    """Sort pipeline boundary: forced observer rounds must survive sealing."""
    table = Table("t", schema_of("t", "k:int"), [(i % 11,) for i in range(400)])
    return Plan(Sort(TableScan(table), [SortKey(col("t.k"))]), "proto-sort")


ADVERSARIAL = [scan_plan, rewind_plan, blocking_plan]


def run_once(make_plan, *, engine=None, catalog=None, target_samples=25,
             sinks=(), estimators=None):
    return ProgressRunner(
        make_plan(),
        estimators if estimators is not None else standard_toolkit(),
        catalog,
        target_samples=target_samples,
        sinks=list(sinks),
        engine=engine,
    ).run()


def assert_reports_identical(a, b):
    assert a.total == b.total
    assert a.mu == b.mu
    # TraceSample is a plain dataclass: == compares curr, actual, every
    # estimator answer and both bounds bit-for-bit.
    assert a.trace.samples == b.trace.samples


def assert_labeled_from_own_counter(report, oracle_total):
    """The sealed trace is labeled by the run's own counter, which is the
    oracle's ``total(Q)``."""
    assert report.total == oracle_total
    samples = report.trace.samples
    for sample in samples[:-1]:
        assert sample.actual == min(sample.curr / report.total, 1.0)
    assert samples[-1].actual == 1.0


class TestBitIdenticalTraces:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make_plan", ADVERSARIAL,
                             ids=lambda f: f.__name__)
    def test_adversarial_plans(self, engine, make_plan):
        report = run_once(make_plan, engine=engine)
        assert_labeled_from_own_counter(
            report, measure_total_work(make_plan(), engine="interpreted")
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("number", [1, 6, 14])
    def test_tpch(self, engine, number, tpch_db):
        def make_plan():
            return build_query(tpch_db, number)

        report = run_once(make_plan, engine=engine, catalog=tpch_db.catalog)
        assert_labeled_from_own_counter(
            report, measure_total_work(make_plan(), engine="interpreted")
        )

    def test_engines_agree_under_single_pass(self):
        interpreted = run_once(rewind_plan, engine="interpreted")
        for engine in ENGINES:
            if engine != "interpreted":
                assert_reports_identical(
                    run_once(rewind_plan, engine=engine), interpreted
                )

    def test_observer_instants_identical(self):
        """Every engine fires the cadence observer at the same ticks."""
        instants = {}
        for engine in ENGINES:
            sink = MemorySink()
            run_once(blocking_plan, engine=engine, sinks=[sink])
            instants[engine] = [event.curr for event in sink.samples()]
        assert instants["fused"] == instants["interpreted"]
        assert instants["columnar"] == instants["interpreted"]

    def test_stateful_estimator_sees_identical_observations(self):
        # HybridVarianceEstimator's answer depends on its full observation
        # history; identical answers mean the engines fed it the same
        # sequence, not just the same final state.
        reports = [
            run_once(rewind_plan, engine=engine,
                     estimators=[HybridVarianceEstimator()])
            for engine in ENGINES
        ]
        for report in reports[1:]:
            assert_reports_identical(report, reports[0])


class TestExecutionCount:
    def counting_runner(self, monitors, **kwargs):
        def factory():
            monitors.append(1)
            return ExecutionMonitor()

        return ProgressRunner(scan_plan(), [DneEstimator()], target_samples=10,
                              monitor_factory=factory, **kwargs)

    def test_single_pass_executes_exactly_once(self):
        monitors = []
        runner = self.counting_runner(monitors)
        for runs in (1, 2, 3):
            runner.run()
            assert len(monitors) == runs

    def test_default_protocol_executes_once(self):
        sink = MemorySink()
        monitors = []
        report = self.counting_runner(monitors, sinks=[sink]).run()
        assert len(monitors) == 1
        # Live events are unlabeled mid-run; only the terminal instant (at
        # progress 1 by definition) may carry its eager 1.0.
        assert all(
            event.actual is None
            for event in sink.samples() if event.curr < report.total
        )


class TestLiveLabels:
    def test_single_pass_live_actual_is_none(self):
        captured = []
        ProgressRunner(
            scan_plan(), [DneEstimator()], target_samples=10,
            on_probe=lambda probe: captured.append(probe.live_sample()),
        ).run()
        assert captured[0].actual is None
        assert captured[0].curr == 0

    def test_sealed_traces_are_always_fully_labeled(self):
        report = run_once(scan_plan)
        actuals = [s.actual for s in report.trace.samples]
        assert all(actual is not None for actual in actuals)
        assert actuals == sorted(actuals)
        assert actuals[-1] == 1.0


class TestServiceParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_service_trace_equals_solo_single_pass(self, backend, tpch_db):
        from repro.service import QueryService

        solo = run_once(lambda: build_query(tpch_db, 6),
                        catalog=tpch_db.catalog, target_samples=20)
        service = QueryService(
            tpch_db.catalog, max_workers=2, queue_depth=4,
            backend=backend, target_samples=20,
        )
        try:
            handle = service.submit(build_query(tpch_db, 6), name="Q6")
            report = handle.result(timeout=120)
        finally:
            service.shutdown()
        assert_reports_identical(report, solo)
