"""The thread→loop bridge and the first-paint gate.

Three layers, cheapest first: :class:`EventStream` driven directly on a
private event loop (ordering, replay, close, wake-ups per burst); the
:class:`FirstPaintPending` count against a stream and against the
service monitor's control check; and the count over a real server — it
must read zero on ``GET /metrics`` after every way a stream can end,
because a leaked count would make every worker thread yield at every tick
batch for ever, silently.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro.core import MemorySink, ProgressRunner
from repro.core.estimators import toolkit_from_names
from repro.errors import QueryCancelled, QueryTimeout
from repro.options import ExecutionOptions
from repro.server import (
    EventStream,
    ReproServer,
    ServerClient,
    ServerClientError,
    ServerConfig,
    StreamSink,
    TenantQuota,
    wsproto,
)
from repro.server import app as app_module
from repro.server.bridge import stream_of
from repro.service import ServiceExecutionMonitor
from repro.service import monitor as monitor_module
from repro.service.handle import QueryHandle
from repro.service.monitor import FirstPaintPending, handle_control
from repro.stats import StatisticsManager
from repro.storage import Table, schema_of
from repro.workloads import build_query, generate_tpch

from tests.server.held import HeldStreamSink, hold_streams


class CountingLoop:
    """Delegates to a real loop, counting cross-thread wake-ups."""

    def __init__(self, loop) -> None:
        self.loop = loop
        self.wakeups = 0

    def call_soon_threadsafe(self, callback, *args):
        self.wakeups += 1
        return self.loop.call_soon_threadsafe(callback, *args)


def frame(index: int, event: str = "sample") -> dict:
    return {"event": event, "seq": index}


def publish(stream, frame: dict) -> None:
    stream.publish(
        json.dumps(frame, sort_keys=True), frame["event"] == "sample"
    )


def decode(encoded) -> list:
    return [
        json.loads(wsproto.read_frame(io.BytesIO(data).read)[1])
        for data in encoded
    ]


async def drain(subscription) -> list:
    """Follow a subscription to the end of its stream."""
    received, ended = [], False
    while not ended:
        frames, ended = await asyncio.wait_for(
            subscription.next_burst(), timeout=10.0,
        )
        received.extend(frames)
    return decode(received)


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=30.0))


class TestEventStream:
    def test_late_subscriber_replays_in_order_then_follows_live(self):
        async def scenario():
            stream = EventStream(asyncio.get_running_loop())
            publish(stream, frame(0, "queued"))
            publish(stream, frame(1))
            subscription = stream.subscribe()
            replay, ended = await subscription.next_burst()
            assert decode(replay) == [frame(0, "queued"), frame(1)]
            assert not ended
            publisher = threading.Thread(target=lambda: (
                publish(stream, frame(2)),
                publish(stream, frame(3, "end")),
                stream.close(),
            ))
            publisher.start()
            live = await drain(subscription)
            publisher.join(timeout=10.0)
            assert not publisher.is_alive()
            assert live == [frame(2), frame(3, "end")]

        run(scenario())

    def test_subscribe_after_close_yields_everything_then_eos(self):
        async def scenario():
            stream = EventStream(asyncio.get_running_loop())
            for index in range(5):
                publish(stream, frame(index))
            stream.close()
            frames, ended = await stream.subscribe().next_burst()
            assert decode(frames) == [frame(index) for index in range(5)]
            assert ended

        run(scenario())

    def test_every_subscriber_gets_the_same_bytes(self):
        async def scenario():
            stream = EventStream(asyncio.get_running_loop())
            publish(stream, frame(0))
            first, second = stream.subscribe(), stream.subscribe()
            publish(stream, frame(1))
            stream.close()
            one, _ = await first.next_burst()
            two, _ = await second.next_burst()
            assert one == two
            assert all(a is b for a, b in zip(one, two))  # encoded once
            assert one[0] == wsproto.encode_text(
                json.dumps(frame(0), sort_keys=True),
            )

        run(scenario())

    def test_publish_after_close_is_a_no_op(self):
        async def scenario():
            stream = EventStream(asyncio.get_running_loop())
            publish(stream, frame(0))
            stream.close()
            publish(stream, frame(1))
            stream.close()
            assert stream.closed
            assert stream.frames() == [frame(0)]

        run(scenario())

    def test_unsubscribe_is_idempotent(self):
        async def scenario():
            stream = EventStream(asyncio.get_running_loop())
            subscription = stream.subscribe()
            stream.unsubscribe(subscription)
            stream.unsubscribe(subscription)
            publish(stream, frame(0))  # nobody to wake, nothing raised
            assert stream.frames() == [frame(0)]

        run(scenario())

    def test_closed_loop_does_not_raise(self):
        loop = asyncio.new_event_loop()
        stream = EventStream(loop)

        async def park():
            subscription = stream.subscribe()
            parked = asyncio.ensure_future(subscription.next_burst())
            await asyncio.sleep(0)  # let it find nothing and park
            parked.cancel()

        loop.run_until_complete(park())
        loop.close()
        # The parked subscriber is still registered: both calls wake it
        # through call_soon_threadsafe on the closed loop.
        publish(stream, frame(0))
        stream.close()
        assert stream.frames() == [frame(0)]

    def test_a_burst_costs_at_most_two_wakeups(self):
        burst = 50

        async def scenario():
            counting = CountingLoop(asyncio.get_running_loop())
            stream = EventStream(counting)
            subscription = stream.subscribe()
            reader = asyncio.ensure_future(drain(subscription))
            await asyncio.sleep(0)  # the reader parks: nothing to read
            # Published from the loop thread, so the reader cannot run in
            # between: the whole burst is queued before it wakes.
            for index in range(burst):
                publish(stream, frame(index))
            stream.close()
            received = await reader
            assert received == [frame(index) for index in range(burst)]
            assert counting.wakeups <= 2

        run(scenario())

    def test_burst_from_a_worker_thread_arrives_in_order(self):
        burst = 300

        async def scenario():
            counting = CountingLoop(asyncio.get_running_loop())
            stream = EventStream(counting)
            reader = asyncio.ensure_future(drain(stream.subscribe()))
            publisher = threading.Thread(target=lambda: (
                [publish(stream, frame(index)) for index in range(burst)],
                stream.close(),
            ))
            publisher.start()
            received = await reader
            publisher.join(timeout=10.0)
            assert not publisher.is_alive()
            assert received == [frame(index) for index in range(burst)]
            # A wake-up needs a park, and a woken reader takes at least one
            # frame (or the close): how few it is depends on the scheduler.
            assert counting.wakeups <= burst + 1

        run(scenario())


class TestStreamSink:
    def test_frames_are_the_marked_to_dict_byte_for_byte(self):
        """What the sink publishes is what ``{"event": "sample"}`` +
        ``to_dict()`` through ``json.dumps(sort_keys=True)`` gave before
        the events had an encoder of their own — first paint included."""
        db = generate_tpch(scale=0.0005, skew=2.0, seed=42)
        recorded = MemorySink()

        async def scenario():
            pending = FirstPaintPending()
            stream = EventStream(asyncio.get_running_loop(), pending)
            await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: ProgressRunner(
                    build_query(db, 3),
                    toolkit_from_names(["dne", "safe", "robust"]),
                    db.catalog, target_samples=30,
                    sinks=[recorded, StreamSink(stream)],
                ).run(),
            )
            subscription = stream.subscribe()
            frames, _ = await subscription.next_burst()
            assert pending.count == 1
            publish(stream, frame(0, "end"))
            await subscription.next_burst()  # back for more: samples written
            assert pending.count == 0  # so they counted as the first paint
            stream.close()
            return frames

        frames = run(scenario())
        samples = recorded.samples()
        assert len(samples) > 30 and len(frames) == len(samples)
        assert any(event.payload for event in samples)
        for encoded, event in zip(frames, samples):
            marked = {"event": "sample"}
            marked.update(event.to_dict())
            assert encoded == wsproto.encode_text(
                json.dumps(marked, sort_keys=True)
            )


class TestFirstPaintOnAStream:
    def test_held_until_the_first_sample_is_written(self):
        async def scenario():
            pending = FirstPaintPending()
            stream = EventStream(asyncio.get_running_loop(), pending)
            assert pending.count == 1
            publish(stream, frame(0, "queued"))
            subscription = stream.subscribe()
            await subscription.next_burst()
            publish(stream, frame(1))
            await subscription.next_burst()  # "queued" written: no paint
            assert pending.count == 1  # the sample: handed out, not written
            publish(stream, frame(2))
            await subscription.next_burst()  # back for more: it is written
            assert pending.count == 0
            stream.close()
            _frames, ended = await subscription.next_burst()
            assert ended
            assert pending.count == 0  # lowered exactly once

        run(scenario())

    def test_close_without_a_subscriber_lowers_once(self):
        async def scenario():
            pending = FirstPaintPending()
            stream = EventStream(asyncio.get_running_loop(), pending)
            publish(stream, frame(0))
            assert pending.count == 1
            stream.close()
            stream.close()
            assert pending.count == 0

        run(scenario())

    def test_subscriber_gone_before_the_first_sample(self):
        async def scenario():
            pending = FirstPaintPending()
            stream = EventStream(asyncio.get_running_loop(), pending)
            publish(stream, frame(0, "queued"))
            subscription = stream.subscribe()
            await subscription.next_burst()
            stream.unsubscribe(subscription)
            publish(stream, frame(1))
            assert pending.count == 1  # still owed to whoever comes next
            late = stream.subscribe()
            await late.next_burst()
            assert pending.count == 1
            publish(stream, frame(2))
            await late.next_burst()
            assert pending.count == 0

        run(scenario())

    def test_streams_count_independently(self):
        async def scenario():
            pending = FirstPaintPending()
            loop = asyncio.get_running_loop()
            streams = [EventStream(loop, pending) for _ in range(3)]
            assert pending.count == 3
            for stream in streams:
                stream.close()
            assert pending.count == 0

        run(scenario())


class TestGateInTheControlCheck:
    def _monitor(self, pending):
        handle = QueryHandle(1, "gated", plan=None)
        monitor = ServiceExecutionMonitor(
            handle_control(handle, lambda: 10.0, pending),
        )
        return handle, monitor

    @pytest.fixture
    def yields(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            monitor_module.time, "sleep", lambda s: calls.append(s),
        )
        return calls

    def test_yields_only_while_a_first_paint_is_pending(self, yields):
        pending = FirstPaintPending()
        _handle, monitor = self._monitor(pending)
        monitor.record_batch(1, 10)
        monitor.record_finish(1)
        assert yields == []
        pending.raise_()
        monitor.record_batch(1, 10)
        monitor.record_finish(1)
        assert yields == [0, 0]
        pending.lower()
        monitor.record_batch(1, 10)
        assert yields == [0, 0]

    def test_a_bare_monitor_never_yields(self, yields):
        monitor = ServiceExecutionMonitor(
            handle_control(QueryHandle(1, "bare", plan=None)),
        )
        monitor.record_batch(1, 10)
        assert yields == []

    def test_cancel_and_deadline_are_checked_while_yielding(self, yields):
        pending = FirstPaintPending()
        pending.raise_()
        handle, monitor = self._monitor(pending)
        handle.cancel_requested = True
        with pytest.raises(QueryCancelled):
            monitor.record_batch(1, 10)
        handle.cancel_requested = False
        handle.deadline_seconds = 1.0
        handle.deadline_at = 9.0  # the clock is pinned at 10.0
        with pytest.raises(QueryTimeout):
            monitor.record_batch(1, 10)
        assert yields == [0, 0]


# -- the count over a real server ------------------------------------------------

BIG_SQL = "SELECT g, COUNT(*), SUM(x) FROM big GROUP BY g"
SMALL_SQL = "SELECT COUNT(*) FROM region"


@pytest.fixture(scope="module")
def db():
    database = generate_tpch(scale=0.0004, skew=2.0, seed=7)
    database.catalog.add_table(Table(
        "big",
        schema_of("big", "x:int", "g:int"),
        [(i, i % 13) for i in range(60000)],
    ))
    StatisticsManager(database.catalog).analyze_all()
    return database


def one_worker_server(db, **quota):
    return ReproServer(db.catalog, config=ServerConfig(
        options=ExecutionOptions(backend="thread", max_workers=1),
        quotas={"default": TenantQuota(**quota)} if quota else {},
    ))


def pending_on_metrics(client) -> int:
    return client.metrics()["first_paint_pending"]


def settles_to_zero(client, timeout=10.0) -> bool:
    """The server lowers after its write; the client may ask first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pending_on_metrics(client) == 0:
            return True
        time.sleep(0.005)
    return False


def wait_until_done(client, query_id, timeout=30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(query_id)
        if status["done"]:
            return status
        time.sleep(0.005)
    raise AssertionError("query %s did not finish" % query_id)


class TestFirstPaintOverTheWire:
    def test_lowered_once_the_first_sample_is_painted(self, db, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(
            app_module, "StreamSink",
            lambda stream: HeldStreamSink(stream, release),
        )
        server = one_worker_server(db)
        with server.running():
            try:
                client = ServerClient(server.config.host, server.port)
                assert pending_on_metrics(client) == 0
                record = client.submit(BIG_SQL, target_samples=200)
                events = client.iter_events(record["id"])
                for received in events:
                    if received["event"] == "sample":
                        break
                # Painted: the count drops while the query is still running.
                assert settles_to_zero(client)
                assert not client.status(record["id"])["done"]
            finally:
                release.set()
            assert [f["event"] for f in events][-1] == "end"
            assert pending_on_metrics(client) == 0

    def test_finished_with_no_subscriber(self, db):
        server = one_worker_server(db)
        with server.running():
            client = ServerClient(server.config.host, server.port)
            record = client.submit(SMALL_SQL, target_samples=5)
            assert wait_until_done(client, record["id"])["state"] == "done"
            assert pending_on_metrics(client) == 0

    def test_dispatch_failure(self, db):
        server = one_worker_server(db)
        with server.running():
            client = ServerClient(server.config.host, server.port)
            record = client.submit("FROBNICATE THE LINEITEMS")
            status = wait_until_done(client, record["id"])
            assert status["state"] == "failed"
            assert pending_on_metrics(client) == 0

    def test_queued_exits_subscriber_gone_cancel_and_429(self, db, monkeypatch):
        # The running query is held at its second sample, so the two
        # below stay queued behind it however fast the table is scanned.
        release = hold_streams(monkeypatch)
        server = one_worker_server(db, max_pending=2, max_inflight=1)
        with server.running():
            client = ServerClient(server.config.host, server.port)
            try:
                running = client.submit(BIG_SQL, target_samples=200)
                for received in client.iter_events(running["id"]):
                    if received["event"] == "sample":
                        break
                assert settles_to_zero(client)
                # Two queries parked behind the tenant's one inflight slot.
                abandoned = client.submit(SMALL_SQL, target_samples=5)
                victim = client.submit(SMALL_SQL, target_samples=5)
                assert pending_on_metrics(client) == 2
                # 429: the refused stream must not stay counted.
                with pytest.raises(ServerClientError) as refused:
                    client.submit(SMALL_SQL, target_samples=5)
                assert refused.value.status == 429
                assert pending_on_metrics(client) == 2
                # A subscriber that leaves after "queued", before any sample.
                watcher = client.iter_events(abandoned["id"])
                assert next(watcher)["event"] == "queued"
                watcher.close()
                assert pending_on_metrics(client) == 2
                # Cancelled while queued.
                assert client.cancel(victim["id"])["cancelled"] is True
                assert pending_on_metrics(client) == 1
            finally:
                release.set()
            # The abandoned query runs to completion with nobody watching.
            client.cancel(running["id"])
            assert wait_until_done(client, abandoned["id"])["done"]
            assert pending_on_metrics(client) == 0

    def test_shutdown_with_queries_queued_and_running(self, db):
        server = one_worker_server(db, max_pending=8, max_inflight=1)
        with server.running():
            client = ServerClient(server.config.host, server.port)
            client.submit(BIG_SQL, target_samples=200)
            client.submit(BIG_SQL, target_samples=200)
            client.submit(SMALL_SQL, target_samples=5)
            assert pending_on_metrics(client) >= 2
        assert server.service.first_paint.count == 0

    def test_local_admission_counts_only_streamed_queries(self, db):
        server = one_worker_server(db)
        with server.running():
            client = ServerClient(server.config.host, server.port)
            scheduled = server.submit_local(
                "local", SMALL_SQL, target_samples=5, stream=False,
            )
            assert server.service.first_paint.count == 0
            assert stream_of(scheduled) is None
            streamed = server.submit_local(
                "local", SMALL_SQL, target_samples=5,
            )
            frames = client.stream_events(streamed.query_id)
            assert frames[-1]["state"] == "done"
            assert settles_to_zero(client)
