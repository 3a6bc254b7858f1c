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

import multiprocessing
import os
import pickle
import time

import pytest

from repro.core import (
    MemorySink,
    ProgressRunner,
    SafeEstimator,
    TraceSample,
    standard_toolkit,
)
from repro.errors import AdmissionError, QueryCancelled, ServiceError
from repro.options import ExecutionOptions
from repro.service import (
    BACKENDS,
    CatalogSpec,
    QueryService,
    QueryState,
)
from repro.service.procpool import decode_query, encode_query
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


def process_service(db, **kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("target_samples", 40)
    return QueryService(db.catalog, backend="process", **kwargs)


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
            QueryService(backend="gevent")

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
            db.catalog, backend=backend, max_workers=2, target_samples=40
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


class TestLiveSampling:
    def test_sample_is_fresh_and_monotone(self, db):
        service = process_service(db, max_workers=1, target_samples=400)
        try:
            handle = service.submit(big_plan(db, "sampled"))
            while handle.progress() is None and not handle.done:
                time.sleep(0.001)
            currs = []
            while len(currs) < 3 and not handle.done:
                sample = handle.sample()
                if sample is not None:
                    assert isinstance(sample, TraceSample)
                    assert sample.lower_bound <= sample.upper_bound
                    currs.append(sample.curr)
            assert currs == sorted(currs)
            assert handle.wait(120)
            # Terminal handles answer None, like the thread backend.
            assert handle.sample() is None
        finally:
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
        service = QueryService(
            db.catalog, backend="process", start_method="fork",
            max_workers=1, target_samples=40,
        )
        try:
            doomed = service.submit(
                build_query(db, 6), name="doomed",
                estimators=[_SuicideEstimator()],
            )
            assert doomed.wait(60)
            assert doomed.state is QueryState.FAILED
            assert isinstance(doomed.error, ServiceError)
            assert "died" in str(doomed.error)
            # The slot respawned its worker: the next query is unaffected.
            after = service.submit(build_query(db, 6), name="after")
            assert after.result(timeout=120).trace.samples
            assert service.stats()["failed"] == 1
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


class TestStartMethods:
    @needs_fork
    def test_fork_backend_completes(self, db):
        service = QueryService(
            db.catalog, backend="process", start_method="fork",
            max_workers=1, target_samples=40,
        )
        try:
            handle = service.submit(build_query(db, 6), name="forked")
            assert handle.result(timeout=120).trace.samples
        finally:
            service.shutdown()

    def test_spawn_backend_completes(self, db):
        service = QueryService(
            db.catalog, backend="process", start_method="spawn",
            max_workers=1, target_samples=40,
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

    def test_shutdown_is_idempotent_and_final(self, db):
        service = process_service(db, max_workers=1)
        service.shutdown()
        service.shutdown()
        with pytest.raises(AdmissionError):
            service.submit(build_query(db, 6))
