"""Fair scheduling: DRR weights, inflight caps, quotas, tenant events.

The tenant scheduler is the service's admission queue
(:class:`repro.service.admission.AdmissionQueue`).  These tests play the
workers themselves — ``take`` a query, ``complete`` it — so every order
and every count is deterministic: no threads, no sleeps.
"""

from __future__ import annotations

import queue as stdlib_queue

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AdmissionError, ServiceError
from repro.options import ExecutionOptions
from repro.server import TenantQuota, TenantThrottled
from repro.server.metrics import ServerMetrics
from repro.service import QueryService, QueryState
from repro.service.admission import RETAINED_FINISHED, AdmissionQueue
from repro.service.handle import QueryHandle


class Recorder:
    """The queue's emitter: ``(kind, handle, payload_extra)`` in order."""

    def __init__(self):
        self.events = []

    def __call__(self, kind, handle, extra=None):
        self.events.append((kind, handle, dict(extra or {})))

    def kinds(self):
        return [kind for kind, _handle, _extra in self.events]


def make_queue(default=None, clock=None, **quotas):
    recorder = Recorder()
    admission = AdmissionQueue(
        default or TenantQuota(max_pending=32, max_inflight=32),
        quotas, emit=recorder,
        **({"clock": clock} if clock is not None else {}),
    )
    return admission, recorder


def submit(admission, tenant, name):
    handle = QueryHandle(None, name, plan=None)
    admission.put(handle, tenant)
    return handle


def take_names(admission, count):
    return [admission.take().name for _ in range(count)]


class TestQuotaValidation:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ServiceError):
            TenantQuota(max_pending=0)
        with pytest.raises(ServiceError):
            TenantQuota(max_inflight=0)
        with pytest.raises(ServiceError):
            TenantQuota(weight=0.0)

    def test_defaults_are_sane(self):
        quota = TenantQuota()
        assert quota.max_pending >= 1
        assert quota.max_inflight >= 1
        assert quota.weight > 0


class TestDeficitRoundRobin:
    def test_weighted_interleave(self):
        """Weight-2 'alice' is served twice per 'bob' turn."""
        admission, _ = make_queue(
            alice=TenantQuota(max_pending=32, max_inflight=32, weight=2.0),
            bob=TenantQuota(max_pending=32, max_inflight=32, weight=1.0),
        )
        for i in range(1, 7):
            submit(admission, "alice", "a%d" % i)
        for i in range(1, 7):
            submit(admission, "bob", "b%d" % i)
        # Full queues drain at 2:1 until alice empties, then bob alone.
        assert take_names(admission, 12) == [
            "a1", "a2", "b1", "a3", "a4", "b2",
            "a5", "a6", "b3", "b4", "b5", "b6",
        ]

    def test_equal_weights_round_robin(self):
        admission, _ = make_queue(TenantQuota(
            max_pending=32, max_inflight=32, weight=1.0,
        ))
        submit(admission, "t1", "x1")
        submit(admission, "t1", "x2")
        submit(admission, "t2", "y1")
        submit(admission, "t2", "y2")
        # Equal weights alternate tenants in ring order — t2 is never
        # starved behind t1's whole queue.
        assert take_names(admission, 4) == ["x1", "y1", "x2", "y2"]


class TestInflightCap:
    def test_cap_parks_tenant_until_completion(self):
        admission, _ = make_queue(TenantQuota(
            max_pending=32, max_inflight=2, weight=1.0,
        ))
        handles = [submit(admission, "t", "q%d" % i) for i in range(1, 5)]
        assert take_names(admission, 2) == ["q1", "q2"]
        # Capped: with both on workers, t's next query waits — a later
        # tenant's query is taken first.
        submit(admission, "u", "z1")
        assert take_names(admission, 1) == ["z1"]
        assert admission.load()["t"] == {"pending": 2, "inflight": 2}
        admission.complete(handles[0], QueryState.DONE)
        assert take_names(admission, 1) == ["q3"]
        admission.complete(handles[1], QueryState.DONE)
        assert take_names(admission, 1) == ["q4"]


class TestThrottling:
    def test_pending_quota_throttles(self):
        admission, recorder = make_queue(
            TenantQuota(max_pending=2, max_inflight=1),
        )
        submit(admission, "t", "running")
        assert admission.take().name == "running"
        submit(admission, "t", "p1")
        submit(admission, "t", "p2")
        with pytest.raises(TenantThrottled) as excinfo:
            submit(admission, "t", "p3")
        assert excinfo.value.tenant == "t"
        assert excinfo.value.pending == 2
        assert excinfo.value.max_pending == 2
        stats = admission.stats()
        assert stats["rejected"] == 1
        assert stats["submitted"] == 3
        snapshot = ServerMetrics().snapshot(load=admission.load())
        assert snapshot["queue_depths"]["tenant:t"] == 2
        assert "tenant_admitted" in recorder.kinds()
        assert "tenant_throttled" in recorder.kinds()
        (throttled,) = [event for event in recorder.events
                        if event[0] == "tenant_throttled"]
        _kind, handle, extra = throttled
        assert handle.tenant == "t"
        assert extra == {"pending": 2, "max_pending": 2}

    def test_other_tenants_unaffected_by_throttle(self):
        admission, _ = make_queue(TenantQuota(max_pending=1, max_inflight=1))
        submit(admission, "noisy", "n1")
        assert admission.take().name == "n1"
        submit(admission, "noisy", "n2")
        with pytest.raises(TenantThrottled):
            submit(admission, "noisy", "n3")
        quiet = submit(admission, "quiet", "quiet1")
        assert admission.take() is quiet


class TestLifecycle:
    def test_cancel_queued_query(self):
        admission, recorder = make_queue(
            TenantQuota(max_pending=8, max_inflight=1),
        )
        running = submit(admission, "t", "running")
        assert admission.take() is running
        victim = submit(admission, "t", "victim")
        assert victim.cancel()
        assert victim.state is QueryState.CANCELLED
        assert victim.done
        # Completion of the runner must not resurrect the victim.
        admission.complete(running, QueryState.DONE)
        assert admission.load()["t"] == {"pending": 0, "inflight": 0}
        assert [handle.name for kind, handle, _ in recorder.events
                if kind == "tenant_admitted"] == ["running"]
        assert admission.stats()["cancelled"] == 1

    def test_latency_is_measured_on_the_injected_clock(self):
        now = [100.0]
        admission, _ = make_queue(clock=lambda: now[0])
        handle = submit(admission, "t", "timed")
        assert handle.submitted_at == 100.0
        assert admission.take() is handle
        now[0] = 102.5
        admission.complete(handle, QueryState.DONE)
        assert handle.finished_at == 102.5
        metrics = ServerMetrics()
        metrics.record_completed(
            handle.tenant, handle.state.value,
            latency_seconds=handle.finished_at - handle.submitted_at,
        )
        latency = metrics.snapshot()["latency"]
        assert latency["count"] == 1
        assert latency["p50_seconds"] == 2.5

    def test_finished_queries_beyond_the_cap_are_forgotten(self):
        admission, _ = make_queue(TenantQuota(max_pending=8, max_inflight=2))
        parked = submit(admission, "t", "parked")
        assert admission.take() is parked
        shorts = []
        for index in range(RETAINED_FINISHED + 44):
            shorts.append(submit(admission, "t", "short-%d" % index))
            admission.complete(admission.take(), QueryState.DONE)
        known = admission.handles()
        assert len(known) == RETAINED_FINISHED + 1  # + the in-flight one
        assert parked in known
        assert shorts[0].query_id == "q-2"
        assert admission.get("q-2") is None  # the oldest finished
        assert admission.get(known[-1].query_id) is known[-1]
        assert not shorts[0].cancel()

    def test_cancel_unknown_id(self):
        admission, _ = make_queue()
        assert admission.get("q-404") is None

    def test_shutdown_drains_pending_as_cancelled(self):
        admission, _ = make_queue(TenantQuota(max_pending=8, max_inflight=1))
        submit(admission, "t", "running")
        admission.take()
        stranded = submit(admission, "t", "stranded")
        assert admission.close(cancel_pending=True)
        assert stranded.state is QueryState.CANCELLED
        with pytest.raises(AdmissionError):
            submit(admission, "t", "late")

    def test_dispatch_failure_marks_failed(self):
        def doomed_plan():
            raise RuntimeError("no workers")

        service = QueryService(options=ExecutionOptions(max_workers=1))
        try:
            handle = service.submit(doomed_plan, tenant="t", name="doomed")
            assert handle.wait(30.0)
            assert handle.state is QueryState.FAILED
            assert "no workers" in str(handle.error)
        finally:
            service.shutdown()


#: one step of a single-tenant run: submit, take (one idle worker takes
#: the next query) or complete the ``i``-th query on a worker
STEPS = st.one_of(
    st.just(("submit", 0)),
    st.just(("take", 0)),
    st.tuples(st.just("complete"), st.integers(0, 7)),
)


class TestOneTenantIsAFifo:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(STEPS, max_size=60),
        workers=st.integers(1, 4),
        depth=st.integers(1, 5),
        headroom=st.integers(0, 3),
    )
    def test_matches_the_bounded_queue(self, steps, workers, depth, headroom):
        """With ``max_inflight`` at least the worker count, any
        interleaving admits, refuses and hands out queries exactly as a
        ``queue.Queue(maxsize=depth)`` in front of the workers did."""
        admission, _ = make_queue(TenantQuota(
            max_pending=depth, max_inflight=workers + headroom,
        ))
        fifo = stdlib_queue.Queue(maxsize=depth)
        on_workers, expected_on_workers = [], []
        for number, (step, index) in enumerate(steps):
            if step == "submit":
                name = "s%d" % number
                try:
                    fifo.put_nowait(name)
                    fits = True
                except stdlib_queue.Full:
                    fits = False
                try:
                    submit(admission, "t", name)
                    admitted = True
                except TenantThrottled:
                    admitted = False
                assert admitted == fits
            elif step == "take":
                if len(expected_on_workers) == workers or fifo.empty():
                    continue  # no idle worker, or nothing to take
                expected_on_workers.append(fifo.get_nowait())
                on_workers.append(admission.take())
                assert on_workers[-1].name == expected_on_workers[-1]
            elif on_workers:
                index %= len(on_workers)
                expected_on_workers.pop(index)
                admission.complete(on_workers.pop(index), QueryState.DONE)
        assert admission.stats()["pending"] == fifo.qsize()
