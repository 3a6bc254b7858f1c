"""The HTTP surface: admission, status, cancel, throttling, metrics.

One module-scoped server on the thread backend serves most tests; the
throttle tests get a dedicated server with a one-slot quota and a large
table so the backlog is observable.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.options import ExecutionOptions
from repro.server import (
    ReproServer,
    ServerClient,
    ServerClientError,
    ServerConfig,
    TenantQuota,
    wsproto,
)
from repro.server.app import _RequestError
from repro.stats import StatisticsManager
from repro.storage import Table, schema_of
from repro.workloads import generate_tpch


@pytest.fixture(scope="module")
def db():
    database = generate_tpch(scale=0.0004, skew=2.0, seed=7)
    database.catalog.add_table(Table(
        "big",
        schema_of("big", "x:int", "g:int"),
        [(i, i % 13) for i in range(30000)],
    ))
    StatisticsManager(database.catalog).analyze_all()
    return database


@pytest.fixture(scope="module")
def server(db):
    instance = ReproServer(db.catalog, config=ServerConfig(
        options=ExecutionOptions(backend="thread", max_workers=2,
                                 queue_depth=32),
    ))
    with instance.running():
        yield instance


@pytest.fixture(scope="module")
def client(server):
    return ServerClient(server.config.host, server.port)


BIG_SQL = "SELECT g, COUNT(*), SUM(x) FROM big GROUP BY g"


def raw_request(server, request: bytes):
    """Send bytes no HTTP library would; returns (status, JSON body)."""
    with socket.create_connection(
        (server.config.host, server.port), timeout=10.0,
    ) as sock:
        sock.sendall(request)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHealthAndRouting:
    def test_healthz(self, client):
        record = client.healthz()
        assert record == {"ok": True}

    def test_unknown_route_is_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_unknown_method_is_405(self, client):
        status, _payload = client.request("PUT", "/queries")
        assert status == 405

    def test_unknown_query_is_404(self, client):
        status, _payload = client.request("GET", "/queries/q-999999")
        assert status == 404
        status, _payload = client.request("DELETE", "/queries/q-999999")
        assert status == 404


class TestClientErrorsAre4xx:
    """What the client got wrong is a 4xx; 500 is for handler faults."""

    def test_malformed_request_line(self, server):
        status, payload = raw_request(server, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert "request line" in payload["error"]

    @pytest.mark.parametrize("declared", [b"banana", b"-5", b"1.5", b"+3"])
    def test_bad_content_length(self, server, declared):
        status, payload = raw_request(
            server,
            b"POST /queries HTTP/1.1\r\nContent-Length: " + declared
            + b"\r\n\r\n{}",
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversize_body_is_413(self, server):
        declared = server.config.max_body_bytes + 1
        status, payload = raw_request(
            server,
            b"POST /queries HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % declared,
        )
        assert status == 413
        assert str(server.config.max_body_bytes) in payload["error"]

    @pytest.mark.parametrize("body", [[], "sql", 7])
    def test_json_body_must_be_an_object(self, client, body):
        status, payload = client.request("POST", "/queries", body)
        assert status == 400
        assert "error" in payload

    def test_handler_faults_stay_500(self, server, monkeypatch):
        def broken():
            raise RuntimeError("registry on fire")

        monkeypatch.setattr(server.service.admission, "load", broken)
        status, payload = raw_request(
            server, b"GET /metrics HTTP/1.1\r\n\r\n",
        )
        assert status == 500
        assert "registry on fire" in payload["error"]


def read_request(server, data: bytes):
    """``_read_request`` over a hand-fed reader: no socket, so request
    heads far past what a kernel buffer holds arrive whole."""
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await server._read_request(reader)

    return asyncio.run(parse())


class TestRequestHeadLimits:
    """An over-long or over-numerous request head is the client's fault."""

    @pytest.mark.parametrize("head", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: a\r\n" * 10_000 + b"\r\n",
    ], ids=["request-line", "header-value", "header-count"])
    def test_oversize_head_is_431(self, server, head):
        with pytest.raises(_RequestError) as raised:
            read_request(server, head)
        assert raised.value.status == 431

    def test_normal_request_still_parses(self, server):
        method, path, headers, body = read_request(
            server,
            b"post /queries HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\n\r\n{}",
        )
        assert (method, path, body) == ("POST", "/queries", b"{}")
        assert headers == {
            "content-type": "application/json", "content-length": "2",
        }

    def test_over_the_socket_it_is_a_431_response(self, server):
        status, payload = raw_request(
            server,
            b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: a\r\n" * 200 + b"\r\n",
        )
        assert status == 431
        assert "header lines" in payload["error"]


class TestAdmission:
    def test_submit_executes_and_reports(self, client):
        record = client.submit(
            "SELECT COUNT(*) FROM lineitem",
            tenant="t-http", name="count-li", target_samples=10,
        )
        assert record["id"].startswith("q-")
        assert record["query"] == "count-li"
        assert record["tenant"] == "t-http"
        assert record["events_path"].endswith("/events")
        frames = client.stream_events(record["id"])
        events = [frame["event"] for frame in frames]
        assert events[0] == "queued"
        assert events[-1] == "end"
        assert set(events[1:-1]) == {"sample"}
        end = frames[-1]
        assert end["state"] == "done"
        assert end["total"] > 0
        assert len(end["trace"]) == len(events) - 2
        # Single-pass protocol: live samples are unlabeled; the sealed
        # trace in the terminal frame carries the back-filled truth.
        for frame in frames[1:-1]:
            assert frame["actual"] is None
        for sample in end["trace"]:
            assert sample["actual"] is not None
        status = client.status(record["id"])
        assert status["state"] == "done"
        assert status["done"] is True

    def test_listing_contains_submitted_queries(self, client):
        record = client.submit(
            "SELECT COUNT(*) FROM region", tenant="t-list",
            name="list-me", target_samples=5,
        )
        names = {entry["query"] for entry in client.queries()}
        assert "list-me" in names
        client.stream_events(record["id"])

    def test_body_must_be_json(self, client):
        conn_status, payload = client.request("POST", "/queries")
        assert conn_status == 400
        assert "sql" in payload["error"]

    def test_sql_required(self, client):
        status, payload = client.request("POST", "/queries",
                                         {"tenant": "x"})
        assert status == 400
        assert "sql" in payload["error"]

    def test_invalid_sql_fails_the_query(self, client):
        # Planning happens at dispatch (POST stays fast), so bad SQL is
        # admitted and then surfaces as a failed query with the error on
        # the stream's terminal frame.
        record = client.submit("FROBNICATE THE LINEITEMS",
                               tenant="t-bad")
        frames = client.stream_events(record["id"])
        assert [frame["event"] for frame in frames] == ["queued", "end"]
        assert frames[-1]["state"] == "failed"
        assert frames[-1]["error"]
        status = client.status(record["id"])
        assert status["state"] == "failed"
        assert "error" in status

    def test_websocket_upgrade_required_on_events(self, client, server):
        record = client.submit("SELECT COUNT(*) FROM region",
                               tenant="t-up", target_samples=5)
        status, payload = client.request(
            "GET", "/queries/%s/events" % record["id"],
        )
        assert status == 400
        assert "WebSocket" in payload["error"]
        client.stream_events(record["id"])


class TestLiveIteration:
    def test_first_sample_is_yielded_while_the_query_runs(self, client):
        record = client.submit(BIG_SQL, tenant="t-live",
                               target_samples=200)
        events = client.iter_events(record["id"])
        assert next(events)["event"] == "queued"
        first = next(events)
        assert first["event"] == "sample"
        assert first["actual"] is None
        # Live means live: the estimate is in hand, the query is not done.
        assert client.status(record["id"])["state"] == "running"
        rest = list(events)
        assert rest[-1]["event"] == "end"
        assert rest[-1]["state"] == "done"

    def test_stream_events_is_the_collected_iterator(self, client):
        record = client.submit("SELECT COUNT(*) FROM nation",
                               tenant="t-live", target_samples=5)
        frames = client.stream_events(record["id"])
        assert frames == list(client.iter_events(record["id"]))  # replay


class TestCancel:
    def test_cancel_running_query(self, client):
        record = client.submit(BIG_SQL, tenant="t-cancel",
                               target_samples=200)
        # Wait until the first live sample proves it is on a worker.
        while True:
            status = client.status(record["id"])
            if status.get("progress") is not None or status["done"]:
                break
            time.sleep(0.002)
        outcome = client.cancel(record["id"])
        assert outcome["id"] == record["id"]
        frames = client.stream_events(record["id"])
        assert frames[-1]["event"] == "end"
        assert frames[-1]["state"] in ("cancelled", "done")


class TestThrottle:
    def test_tenant_quota_yields_429(self, db):
        config = ServerConfig(
            options=ExecutionOptions(backend="thread", max_workers=1),
            quotas={"noisy": TenantQuota(max_pending=1, max_inflight=1)},
        )
        instance = ReproServer(db.catalog, config=config)
        with instance.running():
            client = ServerClient(instance.config.host, instance.port)
            first = client.submit(BIG_SQL, tenant="noisy",
                                  target_samples=200)
            backlog = []
            throttled = None
            for _ in range(4):
                try:
                    backlog.append(client.submit(
                        BIG_SQL, tenant="noisy", target_samples=200,
                    ))
                except ServerClientError as exc:
                    throttled = exc
                    break
            assert throttled is not None
            assert throttled.status == 429
            assert throttled.payload["tenant"] == "noisy"
            assert throttled.payload["max_pending"] == 1
            # Another tenant still gets in while noisy is throttled.
            other = client.submit("SELECT COUNT(*) FROM region",
                                  tenant="quiet", target_samples=5)
            frames = client.stream_events(other["id"])
            assert frames[-1]["state"] == "done"
            metrics = client.metrics()
            assert metrics["queries"]["throttled"] >= 1
            assert metrics["tenants"]["noisy"]["throttled"] >= 1
            client.cancel(first["id"])
            for record in backlog:
                client.cancel(record["id"])


class TestMetrics:
    def test_snapshot_shape(self, client, server):
        record = client.submit("SELECT COUNT(*) FROM nation",
                               tenant="t-metrics", target_samples=5)
        client.stream_events(record["id"])
        metrics = client.metrics()
        assert metrics["uptime_seconds"] >= 0
        assert metrics["http_requests"] > 0
        assert metrics["queries"]["submitted"] >= 1
        assert metrics["queries"]["completed"].get("done", 0) >= 1
        assert metrics["ticks"] > 0
        assert metrics["queue_depths"]["tenant:t-metrics"] == 0
        latency = metrics["latency"]
        assert latency["count"] >= 1
        assert latency["p50_seconds"] <= latency["p99_seconds"]
        tenant = metrics["tenants"]["t-metrics"]
        assert tenant["submitted"] >= 1
        assert tenant["completed"].get("done", 0) >= 1
        assert tenant["ticks"] > 0
        assert tenant["ticks_per_second"] is None or \
            tenant["ticks_per_second"] >= 0

    def test_ws_connection_counters(self, client, server):
        before = client.metrics()["ws_connections"]
        record = client.submit("SELECT COUNT(*) FROM region",
                               tenant="t-ws", target_samples=5)
        client.stream_events(record["id"])
        # The server records the close after the client sees the close
        # frame — allow it a beat to finish its side of the teardown.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            after = client.metrics()["ws_connections"]
            if after["closed"] >= before["closed"] + 1:
                break
            time.sleep(0.01)
        assert after["opened"] >= before["opened"] + 1
        assert after["closed"] >= before["closed"] + 1
        assert after["open"] >= 0


class TestRetention:
    def test_finished_queries_beyond_the_cap_are_forgotten(self, db):
        from repro.service.service import RETAINED_FINISHED

        config = ServerConfig(
            options=ExecutionOptions(backend="thread", max_workers=2,
                                     queue_depth=400),
        )
        instance = ReproServer(db.catalog, config=config)
        with instance.running():
            client = ServerClient(instance.config.host, instance.port)
            submitted = [
                instance.submit_local(
                    "bulk", "SELECT COUNT(*) FROM region",
                    target_samples=2,
                )
                for _ in range(300)
            ]
            assert instance.scheduler.wait_all(timeout=120.0)
            # A handle is retired before it turns terminal: nothing lags.
            assert len(instance.service.handles()) <= RETAINED_FINISHED
            # Forgotten means gone: 404 on status and on the stream.
            oldest, newest = submitted[0].query_id, submitted[-1].query_id
            status, _payload = client.request("GET", "/queries/" + oldest)
            assert status == 404
            with pytest.raises(wsproto.WebSocketError, match="404"):
                client.stream_events(oldest)
            assert client.status(newest)["state"] == "done"
            assert client.stream_events(newest)[-1]["state"] == "done"
            assert client.metrics()["first_paint_pending"] == 0
