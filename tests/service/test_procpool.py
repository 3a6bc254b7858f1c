"""The multiprocess execution backend: parity with the thread backend.

The contract under test is behavioural equivalence: whatever a handle does
under ``backend="thread"`` it must do under ``backend="process"`` — same
bit-identical traces, same cancel/deadline semantics, same degradation
reporting, same live sampling — with the only permitted difference being
where the CPU work happens.

``$REPRO_START_METHOD`` steers how worker processes start, so CI runs this
module once under ``fork`` and once under ``spawn``; the explicit
fork/spawn tests below keep both paths exercised even in a plain local run.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time

import pytest

from repro.core import (
    MemorySink,
    ProgressRunner,
    SafeEstimator,
    standard_toolkit,
)
from repro.errors import AdmissionError, QueryCancelled, ServiceError
from repro.options import ExecutionOptions
from repro.service import (
    BACKENDS,
    CatalogSpec,
    QueryService,
    QueryState,
    ServiceExecutionMonitor,
)
from repro.service.procpool import (
    DISPLAY_INTERVAL,
    _ExecuteRequest,
    _serve_request,
    _Wire,
    _worker_control,
    decode_query,
    encode_query,
)
from repro.sql import plan_query
from repro.stats import StatisticsManager
from repro.storage import Table, schema_of
from repro.workloads import generate_tpch
from repro.workloads.tpch import build_query

BIG_ROWS = 60000
BIG_SQL = "SELECT g, COUNT(*), SUM(x) FROM big GROUP BY g"
INDEX_JOIN_SQL = (
    "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
    "WHERE o_orderstatus = 'F'"
)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def db():
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


def process_service(db, sinks=(), **options):
    options.setdefault("max_workers", 2)
    options.setdefault("target_samples", 40)
    return QueryService(
        db.catalog, sinks=sinks,
        options=ExecutionOptions(backend="process", **options),
    )


# Estimators shipped into worker processes must be importable there, so
# they live at module scope (spawned workers re-import this module).

class _ExplodingEstimator(SafeEstimator):
    """Raises on every estimate: exercises in-worker degradation."""

    name = "exploding"

    def estimate(self, observation):
        raise RuntimeError("exploding boom")


class _SuicideEstimator(SafeEstimator):
    """Kills its whole worker process: exercises crash containment."""

    name = "suicide"

    def estimate(self, observation):
        os._exit(42)


class _FailsLater(SafeEstimator):
    """Healthy until its ``at``-th estimate, so cadence samples are out —
    some still in the worker's buffer — when it raises or, with ``fatal``,
    takes its whole worker process down."""

    name = "fails-later"

    def __init__(self, at, fatal=False):
        super().__init__()
        self.remaining = at
        self.fatal = fatal

    def estimate(self, observation):
        self.remaining -= 1
        if self.remaining == 0:
            if self.fatal:
                os._exit(42)
            raise RuntimeError("boom, later")
        return super().estimate(observation)


class TestResolution:
    def test_known_backends(self):
        assert BACKENDS == ("thread", "process")
        for backend in BACKENDS:
            assert ExecutionOptions(backend=backend).resolve().backend == \
                backend

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert ExecutionOptions().resolve().backend == "thread"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert ExecutionOptions().resolve().backend == "process"
        # An explicit argument still wins over the environment.
        assert ExecutionOptions(backend="thread").resolve().backend == \
            "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError):
            ExecutionOptions(backend="gevent").resolve()
        with pytest.raises(ServiceError):
            QueryService(options=ExecutionOptions(backend="gevent"))

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ServiceError):
            ExecutionOptions(start_method="teleport").resolve()

    def test_start_method_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert ExecutionOptions().resolve().start_method == "spawn"


class TestCatalogSpec:
    def test_pickle_spec_round_trips(self, db):
        spec = CatalogSpec.from_catalog(db.catalog)
        reopened = pickle.loads(pickle.dumps(spec)).open()
        assert sorted(reopened.table_names()) == sorted(
            db.catalog.table_names()
        )

    def test_none_spec(self):
        assert CatalogSpec.from_catalog(None).open() is None
        assert CatalogSpec.none().open() is None

    def test_factory_spec_opens_via_import(self):
        spec = CatalogSpec.from_factory(
            "repro.workloads:generate_tpch",
            kwargs={"scale": 0.0002, "seed": 3},
            attribute="catalog",
        )
        catalog = pickle.loads(pickle.dumps(spec)).open()
        assert "lineitem" in catalog.table_names()

    def test_factory_target_must_name_module_and_callable(self):
        with pytest.raises(ServiceError):
            CatalogSpec.from_factory("not-a-target")


class TestTraceParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_bit_identical_to_solo_run(self, db, backend):
        solo = ProgressRunner(
            build_query(db, 6),
            standard_toolkit(),
            db.catalog,
            target_samples=40,
        ).run().trace.samples
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(
                backend=backend, max_workers=2, target_samples=40,
            ),
        )
        try:
            handle = service.submit(build_query(db, 6), name="Q6")
            report = handle.result(timeout=120)
        finally:
            service.shutdown()
        assert report.trace.samples == solo
        # The handle saw every cadence sample, ending on the trace's last.
        assert handle.progress() == solo[-1]
        assert handle.samples_published >= len(solo)

    def test_concurrent_queries_all_complete(self, db):
        service = process_service(db, queue_depth=16)
        try:
            handles = [
                service.submit(build_query(db, number), name="Q%d" % number)
                for number in (1, 3, 6, 12)
            ]
            assert service.wait_all(timeout=300)
            for handle in handles:
                assert handle.state is QueryState.DONE
                assert handle.result(timeout=0).trace.samples
        finally:
            service.shutdown()


class TestControl:
    def test_cancel_mid_flight(self, db):
        service = process_service(db, max_workers=1, target_samples=400)
        try:
            handle = service.submit(big_plan(db, "cancel-me"))
            while handle.progress() is None and not handle.done:
                time.sleep(0.001)
            assert handle.cancel()
            assert handle.wait(60)
            assert handle.state is QueryState.CANCELLED
            with pytest.raises(QueryCancelled):
                handle.result(timeout=0)
        finally:
            service.shutdown()

    def test_cancel_while_queued_never_dispatches(self, db):
        service = process_service(db, max_workers=1, queue_depth=8,
                                  target_samples=400)
        try:
            blocker = service.submit(big_plan(db, "blocker"))
            queued = service.submit(big_plan(db, "queued"))
            assert queued.cancel()
            blocker.cancel()
            assert queued.wait(60)
            assert queued.state is QueryState.CANCELLED
            assert queued.samples_published == 0
        finally:
            service.shutdown()

    def test_deadline_enforced_in_worker(self, db):
        service = process_service(db, max_workers=1, target_samples=400)
        try:
            handle = service.submit(big_plan(db, "deadline"), deadline=0.005)
            assert handle.wait(60)
            assert handle.state is QueryState.TIMED_OUT
        finally:
            service.shutdown()

    def test_backpressure_still_applies(self, db):
        service = process_service(db, max_workers=1, queue_depth=1,
                                  target_samples=400)
        try:
            running = service.submit(big_plan(db, "running"))
            # Wait for the shepherd to dequeue it, so "pending" reliably
            # occupies the queue's single slot.
            while running.state is QueryState.QUEUED:
                time.sleep(0.001)
            service.submit(big_plan(db, "pending"))
            with pytest.raises(AdmissionError):
                service.submit(big_plan(db, "rejected"))
        finally:
            service.cancel_all()
            service.shutdown()


class TestDegradationAndCrash:
    def test_degradation_crosses_the_pipe(self, db):
        sink = MemorySink()
        service = process_service(db, max_workers=1, sinks=(sink,))
        try:
            handle = service.submit(
                build_query(db, 6), name="degrading",
                estimators=[_ExplodingEstimator()],
            )
            report = handle.result(timeout=120)
            assert "exploding" in handle.degraded
            assert "exploding boom" in handle.degraded["exploding"]
            assert report.trace.samples
            kinds = [event.kind for event in sink.events]
            assert "query_degraded" in kinds
        finally:
            service.shutdown()

    @needs_fork
    def test_worker_crash_fails_only_its_query(self, db):
        self.crash_fails_only_its_query(db, _SuicideEstimator())

    @needs_fork
    def test_worker_crash_with_samples_buffered(self, db):
        self.crash_fails_only_its_query(db, _FailsLater(at=5, fatal=True))

    def crash_fails_only_its_query(self, db, killer):
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(
                backend="process", start_method="fork", max_workers=1,
                target_samples=40,
            ),
        )
        try:
            sink = MemorySink()
            doomed = service.submit(
                build_query(db, 6), name="doomed",
                estimators=[killer], sinks=[sink],
            )
            assert doomed.wait(60)
            assert doomed.state is QueryState.FAILED
            assert isinstance(doomed.error, ServiceError)
            assert "died" in str(doomed.error)
            delivered = len(sink.events)
            published = doomed.samples_published
            assert delivered == published <= 4
            # The slot respawned its worker: the next query is unaffected.
            after = service.submit(build_query(db, 6), name="after")
            assert after.result(timeout=120).trace.samples
            assert service.stats()["failed"] == 1
            # Nothing reached the dead query after it was finalized.
            assert len(sink.events) == delivered
            assert doomed.samples_published == published
        finally:
            service.shutdown()

    def test_unpicklable_submission_is_an_admission_error(self, db):
        service = process_service(db, max_workers=1)
        try:
            with pytest.raises(AdmissionError, match="process boundary"):
                service.submit(
                    build_query(db, 6), name="unpicklable",
                    estimators=[lambda: None],  # type: ignore[list-item]
                )
            assert service.stats()["rejected"] == 1
        finally:
            service.shutdown()

    def test_wire_round_trips_without_a_catalog(self, db):
        # encode_query is the admission-time guard the service relies on;
        # with no catalog the payload is self-contained.
        blob = encode_query(build_query(db, 6), None)
        plan, estimators = decode_query(blob, None)
        assert plan.name == build_query(db, 6).name
        assert estimators is None

    def test_wire_interns_catalog_tables_by_name(self, db):
        fat = encode_query(build_query(db, 6), None)
        lean = encode_query(build_query(db, 6), None, db.catalog)
        # Table rows stay home: the catalog-relative payload is a tiny
        # fraction of the self-contained one.
        assert len(lean) < len(fat) / 10
        plan, _ = decode_query(lean, db.catalog)
        assert plan.name == build_query(db, 6).name

    def test_wire_interns_catalog_indexes_by_key(self, db):
        # An index join embeds its HashIndex: shipped whole, the payload is
        # the index's buckets and the worker probes a detached copy.
        def index_join_plan():
            return plan_query(INDEX_JOIN_SQL, db.catalog, name="index-join")

        (join,) = [op for op in index_join_plan().root.walk()
                   if op.name == "IndexNestedLoopsJoin"]
        catalog_index = db.catalog.hash_index("lineitem", "l_orderkey")
        assert join.index is catalog_index
        blob = encode_query(index_join_plan(), None, db.catalog)
        assert len(blob) < 64 * 1024
        plan, _ = decode_query(blob, db.catalog)
        (join,) = [op for op in plan.root.walk()
                   if op.name == "IndexNestedLoopsJoin"]
        assert join.index is catalog_index
        # An index that is not the catalog's own still embeds.
        stray = index_join_plan()
        (join,) = [op for op in stray.root.walk()
                   if op.name == "IndexNestedLoopsJoin"]
        join.index = pickle.loads(pickle.dumps(catalog_index))
        assert len(encode_query(stray, None, db.catalog)) > 64 * 1024
        solo = ProgressRunner(
            index_join_plan(), standard_toolkit(), db.catalog,
            target_samples=40,
        ).run().trace.samples
        service = process_service(db)
        try:
            report = service.submit(
                index_join_plan(), name="index-join"
            ).result(timeout=120)
        finally:
            service.shutdown()
        assert report.trace.samples == solo


class _RecordingConn:
    """The worker's end of the pipe, kept as a list."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class _FakeClock:
    """Stands still unless told otherwise; ``on_call[n]`` runs at the
    n-th reading."""

    def __init__(self, on_call=None):
        self.now = 0.0
        self.calls = 0
        self.on_call = on_call or {}

    def __call__(self):
        self.calls += 1
        self.on_call.get(self.calls, lambda: None)()
        return self.now


def serve_in_this_process(db, plan, clock, estimators=None,
                          toolkit_factory=standard_toolkit):
    """One query through the worker's code path, its pipe a list."""
    conn = _RecordingConn()
    options = ExecutionOptions().resolve()
    _serve_request(
        _Wire(conn, 7, clock=clock),
        db.catalog,
        toolkit_factory,
        multiprocessing.RawValue("b", 0),
        _ExecuteRequest(
            query_id=7, name=plan.name,
            payload=encode_query(plan, estimators, db.catalog),
            deadline_seconds=None, target_samples=40,
            engine=options.engine, bounds=options.bounds,
        ),
    )
    return conn.sent


def untimed(event):
    """An event without its wall-clock fields."""
    return dataclasses.replace(
        event, elapsed_seconds=0.0, ticks_per_second=None,
        eta_seconds=None, eta_interval_seconds=(None, None),
    )


def shared_snapshots(events):
    """How many (event, pipeline) slots hold the very object the event
    before held in that slot."""
    return sum(
        1
        for before, after in zip(events, events[1:])
        for old, new in zip(before.pipelines, after.pipelines)
        if old is new
    )


class TestBatchedPipe:
    """One writer, display-rate batches, nothing lost or reordered."""

    #: the benchmark's ``service_process`` statement classes
    PLANS = (1, 10, 3, 6, 14)

    def test_sinks_see_what_the_thread_backend_delivers(self, db):
        # The same plan objects on both backends (one after the other):
        # operator ids are part of an event's pipeline labels.
        plans = [build_query(db, number) for number in self.PLANS]
        delivered = {}
        for backend in BACKENDS:
            service = QueryService(
                db.catalog,
                options=ExecutionOptions(
                    backend=backend, max_workers=2, target_samples=40,
                ),
            )
            try:
                runs = []
                for plan in plans:
                    sink = MemorySink()
                    runs.append((sink, service.submit(plan, sinks=[sink])))
                for sink, handle in runs:
                    handle.result(timeout=120)
                    # every sample, plus the sealed trace's labeled last
                    assert handle.samples_published == len(sink.events) + 1
                delivered[backend] = [
                    [untimed(event) for event in sink.events]
                    for sink, _handle in runs
                ]
            finally:
                service.shutdown()
        assert all(delivered["thread"])
        assert delivered["process"] == delivered["thread"]

    def test_first_sample_crosses_alone_and_at_once(self):
        conn = _RecordingConn()
        wire = _Wire(conn, 7, clock=_FakeClock())
        wire.sample("first")
        # On the pipe before the worker can produce a second one.
        assert conn.sent == [("events", 7, ["first"])]
        wire.sample("second")
        assert len(conn.sent) == 1 and wire.pending == ["second"]

    def test_a_stopped_clock_holds_the_rest_until_done(self, db):
        sent = serve_in_this_process(db, build_query(db, 6), _FakeClock())
        assert [message[0] for message in sent] == [
            "events", "events", "done",
        ]
        assert all(message[1] == 7 for message in sent)
        first, rest = sent[0][2], sent[1][2]
        assert len(first) == 1 and len(rest) > 1
        seqs = [event.seq for event in first + rest]
        assert seqs == sorted(seqs)
        assert sent[2][2] == "done"
        # The report's trace may have been decimated; never extended.
        report = pickle.loads(sent[2][3])
        assert len(report.trace.samples) <= len(seqs)

    def test_degraded_never_overtakes_an_earlier_sample(self, db):
        sent = serve_in_this_process(
            db, build_query(db, 6), _FakeClock(),
            estimators=[_FailsLater(at=3)],
        )
        kinds = [message[0] for message in sent]
        assert kinds == ["events", "events", "degraded", "events", "done"]
        # Two samples were emitted before the third estimate blew up: the
        # first crossed alone, the second was flushed ahead of the report.
        assert [len(message[2]) for message in sent[:2]] == [1, 1]
        assert sent[2][2:] == ("fails-later", "RuntimeError: boom, later")

    def test_a_default_toolkit_query_builds_one_toolkit(self, db):
        built = []

        def counting_factory():
            built.append(1)
            return standard_toolkit()

        sent = serve_in_this_process(
            db, build_query(db, 6), _FakeClock(),
            toolkit_factory=counting_factory,
        )
        assert sent[-1][2] == "done"
        assert len(built) == 1

    def test_quiet_phase_flushes_from_the_control_check(self):
        conn = _RecordingConn()
        clock = _FakeClock()
        wire = _Wire(conn, 7, clock=clock)
        monitor = ServiceExecutionMonitor(_worker_control(
            wire, multiprocessing.RawValue("b", 0), "quiet", None,
        ))
        wire.sample("first")
        wire.sample("second")
        monitor._check_control()
        assert len(conn.sent) == 1
        clock.now += DISPLAY_INTERVAL
        monitor._check_control()
        assert conn.sent[1] == ("events", 7, ["second"])
        # Nothing buffered: the check does not even read the clock.
        readings = clock.calls
        monitor._check_control()
        assert clock.calls == readings and len(conn.sent) == 2

    def test_a_batch_keeps_shared_snapshots_shared(self, db):
        sent = serve_in_this_process(db, build_query(db, 3), _FakeClock())
        batch = sent[1]
        in_worker = shared_snapshots(batch[2])
        assert in_worker > 0
        in_parent = pickle.loads(pickle.dumps(batch))[2]
        assert shared_snapshots(in_parent) == in_worker
        # The sharing is the batch's doing: pickled one by one, the same
        # events share nothing.
        assert shared_snapshots(
            [pickle.loads(pickle.dumps(event)) for event in batch[2]]
        ) == 0

    def test_shared_snapshots_reach_parent_side_sinks(self, db):
        sink = MemorySink()
        service = process_service(db, max_workers=1)
        try:
            service.submit(
                build_query(db, 3), sinks=[sink]
            ).result(timeout=120)
        finally:
            service.shutdown()
        assert shared_snapshots(sink.events) > 0


class TestStartMethods:
    @needs_fork
    def test_fork_backend_completes(self, db):
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(
                backend="process", start_method="fork", max_workers=1,
                target_samples=40,
            ),
        )
        try:
            handle = service.submit(build_query(db, 6), name="forked")
            assert handle.result(timeout=120).trace.samples
        finally:
            service.shutdown()

    def test_spawn_backend_completes(self, db):
        service = QueryService(
            db.catalog,
            options=ExecutionOptions(
                backend="process", start_method="spawn", max_workers=1,
                target_samples=40,
            ),
        )
        try:
            handle = service.submit(build_query(db, 6), name="spawned")
            assert handle.result(timeout=240).trace.samples
        finally:
            service.shutdown()


class TestFacade:
    def test_session_backend_plumbs_through(self, db):
        import repro

        session = repro.connect(
            catalog=db.catalog, backend="process", max_workers=1
        )
        with session:
            assert session.backend == "process"
            assert session.service.backend == "process"
            handle = session.submit(build_query(db, 6), name="via-session")
            assert handle.result(timeout=120).trace.samples

    @pytest.mark.parametrize("number", [3, 10, 21])
    def test_plan_that_ran_in_process_still_submits(self, db, number):
        """Regression: operators kept ``_context`` → monitor → the
        runner's ``sample`` closure (and the closures ``open`` bound), so a
        plan that had run in-process raised ``AdmissionError: Can't pickle
        local object 'ProgressRunner.run.<locals>.sample'`` on submit."""
        import repro

        plan = build_query(db, number)
        with repro.connect(
            catalog=db.catalog, backend="process", max_workers=1
        ) as session:
            solo = session.run(plan)
            report = session.submit(plan).result(timeout=120)
        assert report.trace.samples == solo.trace.samples
        assert report.total == solo.total

    @pytest.mark.parametrize("number", [3, 15, 18])
    def test_plan_aborted_mid_pipeline_still_submits(self, db, number):
        """The fused engine's generated functions, their frames and the
        write-back closures bound to the plan's operators must not outlive
        a run — not even one that was aborted inside a generated loop (q15
        and q18 also hold suspended generators under ``Limit`` and
        ``StreamAggregate`` at that moment)."""
        import repro

        plan = build_query(db, number)
        with repro.connect(
            catalog=db.catalog, backend="process", max_workers=1
        ) as session:
            with pytest.raises(RuntimeError, match="boom, later"):
                ProgressRunner(
                    plan, [_FailsLater(at=3)], catalog=db.catalog,
                    engine="fused",
                ).run()
            solo = session.run(build_query(db, number))
            report = session.submit(plan).result(timeout=120)
        assert report.trace.samples == solo.trace.samples
        assert report.total == solo.total

    def test_shutdown_is_idempotent_and_final(self, db):
        service = process_service(db, max_workers=1)
        service.shutdown()
        service.shutdown()
        with pytest.raises(AdmissionError):
            service.submit(build_query(db, 6))
