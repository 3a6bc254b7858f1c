"""The concurrent query service: stress, cancellation, deadlines, robustness.

The load-bearing assertion is the service's core guarantee: a query that
completes under concurrency produces a trace **bit-identical** to a solo
single-threaded :class:`ProgressRunner` run of the same plan — concurrency
changes scheduling, never measurements.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import (
    MemorySink,
    ProgressRunner,
    SafeEstimator,
    TraceSample,
    standard_toolkit,
)
from repro.errors import (
    AdmissionError,
    QueryCancelled,
    QueryTimeout,
    ServiceError,
)
from repro.options import ExecutionOptions
from repro.service import QueryService, QueryState, ResilientEstimator
from repro.sql import plan_query
from repro.stats import StatisticsManager
from repro.storage import Table, schema_of
from repro.workloads import generate_tpch
from repro.workloads.tpch import build_query

#: TPC-H queries covering scans, hash joins, INL joins and aggregation
STRESS_QUERIES = [1, 3, 5, 6, 10, 12, 14, 19]
BIG_ROWS = 60000
BIG_SQL = "SELECT g, COUNT(*), SUM(x) FROM big GROUP BY g"


@pytest.fixture(scope="module")
def db():
    """A tiny TPC-H database plus one deliberately large table.

    The big table backs the cancellation/timeout targets: large enough
    that a query over it is reliably still running when the test reacts
    to its first progress sample.
    """
    database = generate_tpch(scale=0.0004, skew=2.0, seed=7)
    database.catalog.add_table(Table(
        "big",
        schema_of("big", "x:int", "g:int"),
        [(i, i % 13) for i in range(BIG_ROWS)],
    ))
    StatisticsManager(database.catalog).analyze_all()
    return database


def big_plan(db, name):
    return plan_query(BIG_SQL, db.catalog, name=name)


def solo_trace(db, number, *, engine, target_samples):
    """A fresh single-threaded run of TPC-H ``number`` for comparison."""
    report = ProgressRunner(
        build_query(db, number),
        standard_toolkit(),
        db.catalog,
        target_samples=target_samples,
        engine=engine,
    ).run()
    return report.trace.samples


class TestStress:
    def test_concurrent_tpch_with_cancel_and_timeout(self, db):
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(
                max_workers=8, queue_depth=32, target_samples=40,
            ),
        )
        try:
            handles = {
                number: service.submit(
                    build_query(db, number), name="Q%d" % (number,)
                )
                for number in STRESS_QUERIES
            }
            # High sample cadence => the first published sample arrives
            # early in the run, so the cancel below lands mid-flight.
            cancel_handle = service.submit(
                big_plan(db, "cancel-target"), target_samples=200
            )
            timeout_handle = service.submit(
                big_plan(db, "timeout-target"), deadline=0.005
            )

            # Poll every handle from this (foreign) thread while the pool
            # works: progress() must be free and answer whole samples.
            polled = {number: [] for number in STRESS_QUERIES}
            stop_polling = threading.Event()

            def poll():
                # One full round always follows the stop request, so a
                # query that started and finished between two rounds is
                # still seen (its final sample stays published).
                stopping = False
                while not stopping:
                    stopping = stop_polling.is_set()
                    for number, handle in handles.items():
                        latest = handle.progress()
                        if latest is None:
                            continue
                        assert isinstance(latest, TraceSample)
                        assert latest.lower_bound <= latest.upper_bound
                        if (
                            not polled[number]
                            or polled[number][-1] is not latest
                        ):
                            polled[number].append(latest)
                    time.sleep(0.002)

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            try:
                while cancel_handle.progress() is None and not cancel_handle.done:
                    time.sleep(0.001)
                assert cancel_handle.cancel()
                # Bounded waits throughout: a hang here is a deadlock.
                assert service.wait_all(timeout=120.0)
            finally:
                stop_polling.set()
                poller.join(timeout=10.0)

            for handle in service.handles():
                assert handle.state.terminal
            assert cancel_handle.state is QueryState.CANCELLED
            with pytest.raises(QueryCancelled):
                cancel_handle.result(timeout=0)
            assert timeout_handle.state is QueryState.TIMED_OUT
            with pytest.raises(QueryTimeout):
                timeout_handle.result(timeout=0)

            for number, handle in handles.items():
                assert handle.state is QueryState.DONE, handle
                samples = handle.result(timeout=0).trace.samples
                # The guarantee: bit-identical to a fresh solo run.
                assert samples == solo_trace(
                    db, number, engine=service.engine, target_samples=40
                )
                # And polled live samples reappear in the sealed trace —
                # live samples are unlabeled, the adaptive cadence may
                # have decimated some polled instants out of the sealed
                # trace, and a boundary-forced round can share its tick
                # with a cadence round (same curr, later bounds), so match
                # by full content among the candidates at each instant.
                assert polled[number]
                trace_by_curr = {}
                for sealed in samples:
                    trace_by_curr.setdefault(sealed.curr, []).append(sealed)
                matched = 0
                for sample in polled[number]:
                    sealed = next(
                        (candidate
                         for candidate in trace_by_curr.get(sample.curr, ())
                         if sample.estimates == candidate.estimates
                         and sample.lower_bound == candidate.lower_bound
                         and sample.upper_bound == candidate.upper_bound),
                        None,
                    )
                    if sealed is None:
                        continue
                    matched += 1
                    assert sample.actual is None or sample.actual == sealed.actual
                assert matched
                # The labeled final sample is republished at DONE.
                assert handle.progress() == samples[-1]

            stats = service.stats()
            assert stats["done"] == len(STRESS_QUERIES)
            assert stats["cancelled"] == 1
            assert stats["timed_out"] == 1
            assert stats["failed"] == 0
        finally:
            service.shutdown()

    def test_cancel_before_dequeue(self, db):
        service = QueryService(
            db.catalog, options=ExecutionOptions(max_workers=1, queue_depth=8),
        )
        try:
            first = service.submit(big_plan(db, "occupy"))
            queued = service.submit(build_query(db, 6), name="queued-q6")
            assert queued.cancel()
            assert first.wait(60.0) and queued.wait(60.0)
            assert queued.state is QueryState.CANCELLED
            assert queued.progress() is None
        finally:
            service.shutdown()


class TestAdmission:
    def test_backpressure_raises_admission_error(self, db):
        service = QueryService(
            db.catalog, options=ExecutionOptions(max_workers=1, queue_depth=1),
        )
        try:
            running = service.submit(big_plan(db, "slow"))
            while running.state is QueryState.QUEUED:
                time.sleep(0.001)
            service.submit(build_query(db, 6), name="queued")
            with pytest.raises(AdmissionError):
                service.submit(build_query(db, 1), name="rejected")
            assert service.stats()["rejected"] == 1
            service.cancel_all()
            assert service.wait_all(timeout=60.0)
        finally:
            service.shutdown()

    def test_same_plan_object_cannot_be_in_flight_twice(self, db):
        service = QueryService(
            db.catalog, options=ExecutionOptions(max_workers=1, queue_depth=4),
        )
        try:
            plan = big_plan(db, "dup")
            service.submit(plan)
            with pytest.raises(AdmissionError):
                service.submit(plan)
            service.cancel_all()
            assert service.wait_all(timeout=60.0)
        finally:
            service.shutdown()

    def test_sql_text_requires_catalog(self):
        service = QueryService(
            catalog=None, options=ExecutionOptions(max_workers=1),
        )
        try:
            with pytest.raises(AdmissionError):
                service.submit("SELECT 1 FROM big")
        finally:
            service.shutdown()

    def test_submit_after_shutdown_is_rejected(self, db):
        service = QueryService(
            db.catalog, options=ExecutionOptions(max_workers=1),
        )
        service.shutdown()
        with pytest.raises(AdmissionError):
            service.submit(build_query(db, 6))

    def test_result_timeout_raises_service_error(self, db):
        service = QueryService(
            db.catalog, options=ExecutionOptions(max_workers=1),
        )
        try:
            handle = service.submit(big_plan(db, "slow-result"))
            with pytest.raises(ServiceError):
                handle.result(timeout=0)
            handle.cancel()
            assert handle.wait(60.0)
        finally:
            service.shutdown()


class TestPreparedAnalysis:
    """A plan the service made itself (SQL text, a factory) never runs
    again, so its prepared analysis goes when the query finishes; a plan
    the caller passed in keeps it for the caller's next run."""

    SQL = "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag"

    @staticmethod
    def thread_service(db):
        return QueryService(
            db.catalog,
            options=ExecutionOptions(backend="thread", max_workers=1),
        )

    def test_a_plan_the_service_made_drops_its_analysis(self, db):
        service = self.thread_service(db)
        try:
            handles = [
                service.submit(self.SQL),
                service.submit(lambda: build_query(db, 6)),
            ]
            for handle in handles:
                assert handle.result(timeout=60.0).trace.samples
                assert handle.plan._prepared is None
        finally:
            service.shutdown()

    def test_a_plan_the_caller_passed_keeps_its_analysis(self, db):
        plan = build_query(db, 6)
        service = self.thread_service(db)
        try:
            first = service.submit(plan).result(timeout=60.0)
            prepared = plan._prepared
            assert prepared is not None
            again = service.submit(plan).result(timeout=60.0)
            assert plan._prepared is prepared
            assert again.trace.samples == first.trace.samples
        finally:
            service.shutdown()


class TestOneToolkitPerQuery:
    def test_a_default_toolkit_query_builds_one_toolkit(self, db):
        built = []

        def counting_factory():
            built.append(1)
            return standard_toolkit()

        service = QueryService(
            db.catalog,
            options=ExecutionOptions(backend="thread", max_workers=1),
            toolkit_factory=counting_factory,
        )
        try:
            service.submit(build_query(db, 6)).result(timeout=60.0)
        finally:
            service.shutdown()
        assert len(built) == 1


class _ExplodingEstimator(SafeEstimator):
    """A toolkit member that fails after its first few estimates."""

    name = "broken"

    def __init__(self, fail_after=2):
        super().__init__()
        self.calls = 0
        self.fail_after = fail_after

    def estimate(self, observation):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("boom")
        return super().estimate(observation)


class TestDegradation:
    def test_estimator_failure_degrades_instead_of_killing(self, db):
        sink = MemorySink()
        service = QueryService(
            db.catalog, sinks=(sink,),
            options=ExecutionOptions(max_workers=1, target_samples=20),
        )
        try:
            handle = service.submit(
                build_query(db, 6),
                name="degraded-q6",
                estimators=[_ExplodingEstimator(), SafeEstimator()],
            )
            report = handle.result(timeout=60.0)
        finally:
            service.shutdown()

        assert handle.state is QueryState.DONE
        assert handle.degraded == {"broken": "RuntimeError: boom"}
        kinds = [event.kind for event in sink.events]
        assert "query_degraded" in kinds
        # After the failure every "broken" sample is safe's answer.
        degraded_tail = report.trace.samples[2:]
        assert degraded_tail
        for sample in degraded_tail:
            assert sample.estimates["broken"] == sample.estimates["safe"]

    def test_service_event_stream(self, db):
        sink = MemorySink()
        service = QueryService(
            db.catalog, sinks=(sink,),
            options=ExecutionOptions(max_workers=2, target_samples=10),
        )
        try:
            handle = service.submit(build_query(db, 6), name="observed")
            assert handle.result(timeout=60.0) is not None
        finally:
            service.shutdown()
        kinds = [event.kind for event in sink.events]
        assert kinds.count("query_queued") == 1
        assert kinds.count("query_start") == 1
        assert kinds.count("query_end") == 1
        end = [e for e in sink.events if e.kind == "query_end"][0]
        assert end.payload["state"] == "done"
        assert end.payload["query"] == "observed"
        assert "profile" in end.payload
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(seqs)


class TestMonitorControl:
    """Cancellation/deadline checks cover every recording entry point."""

    def _monitor(self):
        from repro.service import ServiceExecutionMonitor
        from repro.service.handle import QueryHandle
        from repro.service.monitor import handle_control

        handle = QueryHandle(1, "controlled", plan=None)
        return handle, ServiceExecutionMonitor(
            handle_control(handle, clock=lambda: 10.0)
        )

    def test_finish_and_rewind_honour_cancel(self):
        handle, monitor = self._monitor()
        handle.cancel_requested = True
        with pytest.raises(QueryCancelled):
            monitor.record_finish(3)
        with pytest.raises(QueryCancelled):
            monitor.record_rewind(3)

    def test_finish_and_rewind_honour_deadline(self):
        handle, monitor = self._monitor()
        handle.deadline_seconds = 1.0
        handle.deadline_at = 9.0  # clock is pinned at 10.0
        with pytest.raises(QueryTimeout):
            monitor.record_finish(3)
        with pytest.raises(QueryTimeout):
            monitor.record_rewind(3)

    def test_cancel_bounded_on_rewind_heavy_nested_loops(self, db):
        """An adversarial ⋈NL plan whose inner contributes no counted
        ticks still honours a cancel promptly: the finish/rewind train is
        control-checked too."""
        from repro.engine.operators import NestedLoopsJoin, TableScan
        from repro.engine.plan import Plan

        empty = Table("empty_inner", schema_of("empty_inner", "y:int"), [])
        plan = Plan(
            NestedLoopsJoin(
                TableScan(db.catalog.table("big")), TableScan(empty)
            ),
            name="nl-rewind-storm",
        )
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(max_workers=1, target_samples=400),
        )
        try:
            handle = service.submit(plan)
            while handle.progress() is None and not handle.done:
                time.sleep(0.001)
            cancelled_at = time.monotonic()
            handle.cancel()
            assert handle.wait(30.0)
            latency = time.monotonic() - cancelled_at
        finally:
            service.shutdown()
        assert handle.state is QueryState.CANCELLED
        # Bounded: worst case is one tick batch, not the rest of the scan.
        assert latency < 5.0


class _PrepareExplodesEstimator(SafeEstimator):
    """A toolkit member whose prepare() itself raises."""

    name = "unprepared"

    def prepare(self, plan):
        raise RuntimeError("prepare boom")


class TestResilientEstimator:
    def _observation(self, db):
        from repro.core import BoundsSnapshot, Observation
        from repro.core.pipelines import decompose

        plan = build_query(db, 6)
        return Observation(
            curr=5,
            bounds=BoundsSnapshot(5, 0.0, 0.0, {}),  # degenerate
            pipelines=decompose(plan),
        )

    def test_strict_estimator_degrades_to_safe(self, db):
        from repro.core import DneBoundedEstimator

        seen = []
        wrapped = ResilientEstimator(
            DneBoundedEstimator(strict=True),
            on_degrade=lambda name, reason: seen.append((name, reason)),
        )
        observation = self._observation(db)
        value = wrapped.estimate(observation)
        assert 0.0 <= value <= 1.0
        assert wrapped.degraded
        assert "DegenerateBoundsError" in wrapped.degraded_reason
        assert seen and seen[0][0] == "dne+bounds"

    def test_degradation_is_sticky(self, db):
        wrapped = ResilientEstimator(_ExplodingEstimator(fail_after=0))
        observation = self._observation(db)
        first = wrapped.estimate(observation)
        inner_calls = wrapped.inner.calls
        second = wrapped.estimate(observation)
        assert first == second
        assert wrapped.inner.calls == inner_calls  # never consulted again

    def test_healthy_estimator_passes_through(self, db):
        inner = SafeEstimator()
        wrapped = ResilientEstimator(inner)
        observation = self._observation(db)
        assert wrapped.estimate(observation) == inner.estimate(observation)
        assert not wrapped.degraded
        assert wrapped.name == "safe"

    def test_prepare_failure_degrades_at_prepare_time(self, db):
        """An estimator raising in prepare() must not escape: the slot
        degrades immediately and the safe fallback stays prepared."""
        seen = []
        wrapped = ResilientEstimator(
            _PrepareExplodesEstimator(),
            on_degrade=lambda name, reason: seen.append((name, reason)),
        )
        wrapped.prepare(build_query(db, 6))  # must not raise
        assert wrapped.degraded
        assert "prepare" in wrapped.degraded_reason
        assert "RuntimeError" in wrapped.degraded_reason
        assert seen == [("unprepared", wrapped.degraded_reason)]
        # The slot keeps answering, from the prepared safe fallback.
        value = wrapped.estimate(self._observation(db))
        assert 0.0 <= value <= 1.0

    def test_prepare_failure_never_kills_the_query(self, db):
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(max_workers=1, target_samples=10),
        )
        try:
            handle = service.submit(
                build_query(db, 6),
                name="prepare-degraded",
                estimators=[_PrepareExplodesEstimator(), SafeEstimator()],
            )
            report = handle.result(timeout=60.0)
        finally:
            service.shutdown()
        assert handle.state is QueryState.DONE
        assert "unprepared" in handle.degraded
        # Every recorded answer for the degraded slot is safe's answer.
        for sample in report.trace.samples:
            assert sample.estimates["unprepared"] == sample.estimates["safe"]

    def test_interval_degrades_on_inner_failure(self, db):
        class _IntervalExplodes(SafeEstimator):
            name = "bad-interval"

            def interval(self, observation):
                raise RuntimeError("interval boom")

        wrapped = ResilientEstimator(_IntervalExplodes())
        observation = self._observation(db)
        low, high = wrapped.interval(observation)
        assert wrapped.degraded
        assert 0.0 <= low <= high <= 1.0
        # Sticky: subsequent intervals come straight from safe.
        assert wrapped.interval(observation) == (low, high)

    def test_interval_is_total_even_when_safe_raises(self, db):
        from repro.core.estimators.base import progress_interval

        wrapped = ResilientEstimator(_ExplodingEstimator(fail_after=0))
        observation = self._observation(db)
        wrapped.estimate(observation)  # degrade the slot
        assert wrapped.degraded

        class _BrokenSafe:
            def interval(self, observation):
                raise ZeroDivisionError("safe broke")

            def estimate(self, observation):
                raise ZeroDivisionError("safe broke")

        wrapped._safe = _BrokenSafe()
        expected = progress_interval(observation.curr, observation.bounds)
        assert wrapped.interval(observation) == expected
        # estimate()'s midpoint fallback, for symmetry
        assert wrapped.estimate(observation) == (
            (expected[0] + expected[1]) / 2.0
        )
