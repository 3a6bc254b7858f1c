"""Query life cycles over a real server: cancels that must land, the
events the one emitter sends, and what a server leaves behind.

Every worker is held on a *gated* query — one whose run waits for the
test to open its gate — so "queued, not yet on a worker" is a state the
test holds on purpose rather than a window it hopes to hit.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import MemorySink
from repro.options import ExecutionOptions
from repro.server import (
    ReproServer,
    ServerClient,
    ServerClientError,
    ServerConfig,
    TenantQuota,
)
from repro.service import service as service_module
from repro.sql import plan_query
from repro.stats import StatisticsManager
from repro.workloads import generate_tpch

SMALL_SQL = "SELECT COUNT(*) FROM region"


@pytest.fixture(scope="module")
def db():
    database = generate_tpch(scale=0.0004, skew=2.0, seed=7)
    StatisticsManager(database.catalog).analyze_all()
    return database


class Gate:
    """Holds each worker that runs a plan named ``gated`` until opened."""

    def __init__(self, db):
        self.db = db
        self.entered = threading.Semaphore(0)
        self.opened = threading.Event()

    def wait(self):
        self.entered.release()
        self.opened.wait(30.0)

    def hold(self, server, workers):
        """Occupy ``workers`` workers; returns once each is at the gate."""
        catalog = self.db.catalog
        held = [
            server.submit_local(
                "gate", lambda: plan_query(SMALL_SQL, catalog, name="gated"),
                stream=False,
            )
            for _ in range(workers)
        ]
        for _ in range(workers):
            assert self.entered.acquire(timeout=30.0)
        return held


@pytest.fixture
def gate(db, monkeypatch):
    gate = Gate(db)

    class GatedRunner(service_module.ProgressRunner):
        def run(self):
            if self.plan.name == "gated":
                gate.wait()
            return super().run()

    monkeypatch.setattr(service_module, "ProgressRunner", GatedRunner)
    yield gate
    gate.opened.set()


class Never:
    """A plan factory no worker may ever call."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        raise AssertionError("a cancelled query reached a worker")


def serve(db, workers=1, queue_depth=1, **quotas):
    return ReproServer(db.catalog, config=ServerConfig(
        options=ExecutionOptions(backend="thread", max_workers=workers,
                                 queue_depth=queue_depth),
        quotas=quotas,
    ))


def cancelled_count(client):
    return client.metrics()["queries"]["completed"].get("cancelled", 0)


class TestCancelBeforeAWorker:
    def test_cancel_lands_while_every_worker_is_busy(self, db, gate):
        """Queued behind a full house, a DELETE cancels at once."""
        server = serve(db, t=TenantQuota(max_pending=8, max_inflight=4))
        with server.running():
            client = ServerClient(server.config.host, server.port)
            gate.hold(server, 1)
            filler = client.submit(SMALL_SQL, tenant="t", target_samples=5)
            never = Never()
            victim = server.submit_local("t", never, name="victim")
            outcome = client.cancel(victim.query_id)
            assert outcome["cancelled"] is True
            assert outcome["state"] == "cancelled"
            frames = client.stream_events(victim.query_id)
            assert [frame["event"] for frame in frames] == ["queued", "end"]
            assert frames[-1]["state"] == "cancelled"
            gate.opened.set()
            assert client.stream_events(filler["id"])[-1]["state"] == "done"
            assert server.scheduler.wait_all(timeout=30.0)
            assert never.calls == 0
            assert victim.samples_published == 0
            assert cancelled_count(client) == 1

    def test_cancel_lands_while_the_tenant_is_capped(self, db, gate):
        """A worker is free, but the tenant is at ``max_inflight``."""
        server = serve(db, workers=2, queue_depth=4,
                       gate=TenantQuota(max_pending=4, max_inflight=1))
        with server.running():
            client = ServerClient(server.config.host, server.port)
            gate.hold(server, 1)
            never = Never()
            victim = server.submit_local("gate", never, name="victim")
            assert server.service.admission.load()["gate"] == {
                "pending": 1, "inflight": 1,
            }
            assert client.cancel(victim.query_id)["cancelled"] is True
            assert client.stream_events(victim.query_id)[-1]["state"] == (
                "cancelled"
            )
            gate.opened.set()
            assert server.scheduler.wait_all(timeout=30.0)
            assert never.calls == 0
            assert cancelled_count(client) == 1


class TestOneEmitter:
    def test_events_carry_the_posted_id(self, db):
        sink = MemorySink()
        server = ReproServer(db.catalog, config=ServerConfig(
            options=ExecutionOptions(backend="thread", max_workers=1),
            sinks=[sink],
        ))
        with server.running():
            client = ServerClient(server.config.host, server.port)
            posted = client.submit(SMALL_SQL, target_samples=5)
            assert client.stream_events(posted["id"])[-1]["state"] == "done"
        mine = [event for event in sink.events
                if event.payload.get("query_id") == posted["id"]]
        kinds = [event.kind for event in mine]
        for kind in ("query_queued", "tenant_admitted", "query_start",
                     "query_end"):
            assert kinds.count(kind) == 1
        assert all(event.payload["tenant"] == "default" for event in mine)
        seqs = [event.seq for event in sink.events]
        assert sorted(seqs) == list(range(len(seqs)))


class TestNothingLeaks:
    def test_fault_matrix_leaves_a_clean_server(self, db, gate):
        """A 429, a cancel while queued, bad SQL, a stream nobody watched
        and a stop with a backlog: afterwards nothing is left over."""
        before = {thread.ident for thread in threading.enumerate()}
        server = serve(db, workers=2, queue_depth=2,
                       t=TenantQuota(max_pending=2, max_inflight=2))
        with server.running():
            started = sorted(
                thread.name for thread in threading.enumerate()
                if thread.ident not in before
            )
            assert started == [
                "repro-query-worker-0", "repro-query-worker-1",
                "repro-server-loop",
            ]
            client = ServerClient(server.config.host, server.port)
            # Bad SQL, and a finished stream nobody watched.
            bad = client.submit("FROBNICATE THE LINEITEMS", tenant="t")
            unwatched = client.submit(SMALL_SQL, tenant="t",
                                      target_samples=5)
            assert server.scheduler.wait_all(timeout=30.0)
            assert client.status(bad["id"])["state"] == "failed"
            assert client.status(unwatched["id"])["state"] == "done"
            # A backlog behind two gated workers; a 429; a cancel.
            gate.hold(server, 2)
            victim = client.submit(SMALL_SQL, tenant="t")
            client.submit(SMALL_SQL, tenant="t")
            with pytest.raises(ServerClientError) as refused:
                client.submit(SMALL_SQL, tenant="t")
            assert refused.value.status == 429
            assert client.cancel(victim["id"])["cancelled"] is True
            client.submit(SMALL_SQL, tenant="t")
            stopping = time.monotonic()
            gate.opened.set()
        assert time.monotonic() - stopping < 5.0
        names = {thread.name for thread in threading.enumerate()}
        assert "repro-server-dispatch" not in names
        assert not names & set(started)
        assert server.service.first_paint.count == 0
        assert all(
            counts == {"pending": 0, "inflight": 0}
            for counts in server.service.admission.load().values()
        )
        assert all(handle.done for handle in server.service.handles())
