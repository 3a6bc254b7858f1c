"""Fair scheduling: DRR weights, inflight caps, quotas, tenant events.

These tests drive :class:`FairScheduler` against a fake service whose
dispatch order and completion times the test controls exactly, so the
deficit-round-robin arithmetic is observable deterministically.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import MemorySink
from repro.errors import AdmissionError, ServiceError
from repro.server import FairScheduler, TenantQuota, TenantThrottled
from repro.server.metrics import ServerMetrics


class FakeState:
    def __init__(self, value):
        self.value = value


class FakeReport:
    profile = None


class FakeHandle:
    """Terminal-state plumbing the scheduler's done-callback path needs."""

    def __init__(self, name):
        self.name = name
        self.state = FakeState("running")
        self.error = None
        self.done = False
        self._callbacks = []

    def add_done_callback(self, fn):
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def complete(self):
        self.done = True
        self.state = FakeState("done")
        for fn in self._callbacks:
            fn(self)
        self._callbacks = []

    def result(self, timeout=None):
        return FakeReport()

    def progress(self):
        return None

    def cancel(self):
        return False


class FakeService:
    """Records dispatch order; optionally gates the first dispatch."""

    def __init__(self, gate=None):
        self.dispatched = []
        self.handles = {}
        self.gate = gate
        #: set once the dispatcher has entered submit (is parked on gate)
        self.entered = threading.Event()
        self._lock = threading.Lock()

    def submit(self, query, *, name=None, deadline=None,
               target_samples=None, sinks=(), block=True):
        if self.gate is not None:
            gate, self.gate = self.gate, None
            self.entered.set()
            gate.wait(timeout=10.0)
        handle = FakeHandle(name)
        with self._lock:
            self.dispatched.append(name)
            self.handles[name] = handle
        return handle

    def stats(self):
        return {"pending": 0}


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


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
        """Weight-2 'alice' earns two dispatch slots per 'bob' slot."""
        gate = threading.Event()
        service = FakeService(gate=gate)
        scheduler = FairScheduler(service, quotas={
            "alice": TenantQuota(max_pending=32, max_inflight=32,
                                 weight=2.0),
            "bob": TenantQuota(max_pending=32, max_inflight=32,
                               weight=1.0),
        })
        try:
            # A sentinel parks the dispatcher inside FakeService.submit,
            # so the real workload below queues up in full before any DRR
            # round sees it — the interleave becomes deterministic.
            scheduler.submit("warmup", "q", name="s")
            assert service.entered.wait(timeout=10.0)
            for i in range(1, 7):
                scheduler.submit("alice", "q", name="a%d" % i)
            for i in range(1, 7):
                scheduler.submit("bob", "q", name="b%d" % i)
            gate.set()
            assert wait_for(lambda: len(service.dispatched) == 13)
            order = service.dispatched
            assert order[0] == "s"
            # Full queues drain at 2:1 until alice empties, then bob alone.
            assert order[1:] == ["a1", "a2", "b1", "a3", "a4", "b2",
                                 "a5", "a6", "b3", "b4", "b5", "b6"]
        finally:
            scheduler.shutdown()

    def test_equal_weights_round_robin(self):
        gate = threading.Event()
        service = FakeService(gate=gate)
        scheduler = FairScheduler(service, default_quota=TenantQuota(
            max_pending=32, max_inflight=32, weight=1.0,
        ))
        try:
            scheduler.submit("warmup", "q", name="s")
            assert service.entered.wait(timeout=10.0)
            scheduler.submit("t1", "q", name="x1")
            scheduler.submit("t1", "q", name="x2")
            scheduler.submit("t2", "q", name="y1")
            scheduler.submit("t2", "q", name="y2")
            gate.set()
            assert wait_for(lambda: len(service.dispatched) == 5)
            # Equal weights alternate tenants in ring order — t2 is never
            # starved behind t1's whole queue.
            assert service.dispatched == ["s", "x1", "y1", "x2", "y2"]
        finally:
            scheduler.shutdown()


class TestInflightCap:
    def test_cap_parks_tenant_until_completion(self):
        service = FakeService()
        scheduler = FairScheduler(service, default_quota=TenantQuota(
            max_pending=32, max_inflight=2, weight=1.0,
        ))
        try:
            for i in range(1, 5):
                scheduler.submit("t", "q", name="q%d" % i)
            assert wait_for(lambda: len(service.dispatched) == 2)
            # Capped: nothing more dispatches while both handles run.
            time.sleep(0.05)
            assert len(service.dispatched) == 2
            service.handles["q1"].complete()
            assert wait_for(lambda: len(service.dispatched) == 3)
            service.handles["q2"].complete()
            assert wait_for(lambda: len(service.dispatched) == 4)
        finally:
            scheduler.shutdown()


class TestThrottling:
    def test_pending_quota_throttles(self):
        service = FakeService()
        metrics = ServerMetrics()
        sink = MemorySink()
        scheduler = FairScheduler(
            service, metrics=metrics, sinks=[sink],
            default_quota=TenantQuota(max_pending=2, max_inflight=1),
        )
        try:
            scheduler.submit("t", "q", name="running")
            assert wait_for(lambda: len(service.dispatched) == 1)
            scheduler.submit("t", "q", name="p1")
            scheduler.submit("t", "q", name="p2")
            with pytest.raises(TenantThrottled) as excinfo:
                scheduler.submit("t", "q", name="p3")
            assert excinfo.value.tenant == "t"
            assert excinfo.value.pending == 2
            assert excinfo.value.max_pending == 2
            snapshot = metrics.snapshot(
                queue_depths=scheduler.queue_depths(),
            )
            assert snapshot["queries"]["throttled"] == 1
            assert snapshot["queries"]["submitted"] == 3
            assert snapshot["queue_depths"]["tenant:t"] == 2
            kinds = [event.kind for event in sink.events]
            assert "tenant_admitted" in kinds
            assert "tenant_throttled" in kinds
            throttled = [event for event in sink.events
                         if event.kind == "tenant_throttled"][0]
            assert throttled.payload["tenant"] == "t"
            assert throttled.payload["max_pending"] == 2
        finally:
            scheduler.shutdown()

    def test_other_tenants_unaffected_by_throttle(self):
        service = FakeService()
        scheduler = FairScheduler(
            service,
            default_quota=TenantQuota(max_pending=1, max_inflight=1),
        )
        try:
            scheduler.submit("noisy", "q", name="n1")
            assert wait_for(lambda: len(service.dispatched) == 1)
            scheduler.submit("noisy", "q", name="n2")
            with pytest.raises(TenantThrottled):
                scheduler.submit("noisy", "q", name="n3")
            quiet = scheduler.submit("quiet", "q", name="quiet1")
            assert wait_for(lambda: "quiet1" in service.dispatched)
            assert quiet.state_name() == "running"
        finally:
            scheduler.shutdown()


class TestLifecycle:
    def test_cancel_queued_query(self):
        service = FakeService()
        scheduler = FairScheduler(
            service,
            default_quota=TenantQuota(max_pending=8, max_inflight=1),
        )
        try:
            scheduler.submit("t", "q", name="running")
            assert wait_for(lambda: len(service.dispatched) == 1)
            queued = scheduler.submit("t", "q", name="victim")
            assert scheduler.cancel(queued.query_id)
            assert queued.state_name() == "cancelled"
            assert queued.done
            # Completion of the runner must not resurrect the victim.
            service.handles["running"].complete()
            time.sleep(0.05)
            assert "victim" not in service.dispatched
        finally:
            scheduler.shutdown()

    def test_latency_is_measured_on_the_injected_clock(self):
        now = [100.0]
        service = FakeService()
        metrics = ServerMetrics()
        scheduler = FairScheduler(
            service, metrics=metrics, clock=lambda: now[0],
        )
        try:
            scheduled = scheduler.submit("t", "q", name="timed")
            assert scheduled.created_at == 100.0
            assert wait_for(lambda: "timed" in service.handles)
            now[0] = 102.5
            service.handles["timed"].complete()
            assert scheduled.finished_at == 102.5
            latency = metrics.snapshot()["latency"]
            assert latency["count"] == 1
            assert latency["p50_seconds"] == 2.5
        finally:
            scheduler.shutdown()

    def test_finished_queries_beyond_the_cap_are_forgotten(self):
        from repro.service.service import RETAINED_FINISHED

        service = FakeService()
        scheduler = FairScheduler(service, default_quota=TenantQuota(
            max_pending=8, max_inflight=2,
        ))
        try:
            parked = scheduler.submit("t", "q", name="parked")
            assert wait_for(lambda: "parked" in service.handles)
            for index in range(RETAINED_FINISHED + 44):
                name = "short-%d" % index
                scheduler.submit("t", "q", name=name)
                assert wait_for(lambda: name in service.handles)
                service.handles[name].complete()
            known = scheduler.queries()
            assert len(known) == RETAINED_FINISHED + 1  # + the in-flight one
            assert parked in known
            assert scheduler.get("q-2") is None  # the oldest finished
            assert scheduler.get(known[-1].query_id) is known[-1]
            assert not scheduler.cancel("q-2")
        finally:
            scheduler.shutdown()

    def test_cancel_unknown_id(self):
        scheduler = FairScheduler(FakeService())
        try:
            assert not scheduler.cancel("q-404")
        finally:
            scheduler.shutdown()

    def test_shutdown_drains_pending_as_cancelled(self):
        service = FakeService()
        scheduler = FairScheduler(
            service,
            default_quota=TenantQuota(max_pending=8, max_inflight=1),
        )
        scheduler.submit("t", "q", name="running")
        assert wait_for(lambda: len(service.dispatched) == 1)
        stranded = scheduler.submit("t", "q", name="stranded")
        scheduler.shutdown()
        assert stranded.state_name() == "cancelled"
        with pytest.raises(AdmissionError):
            scheduler.submit("t", "q", name="late")

    def test_dispatch_failure_marks_failed(self):
        class ExplodingService(FakeService):
            def submit(self, query, **kwargs):
                raise RuntimeError("no workers")

        scheduler = FairScheduler(ExplodingService())
        try:
            scheduled = scheduler.submit("t", "q", name="doomed")
            assert wait_for(lambda: scheduled.done)
            assert scheduled.state_name() == "failed"
            assert "no workers" in str(scheduled.pre_dispatch_error)
        finally:
            scheduler.shutdown()
