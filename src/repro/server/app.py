"""The asyncio HTTP + WebSocket front door over the query service.

One :class:`ReproServer` owns a :class:`~repro.service.service.QueryService`
(thread or process backend — the server never touches engine internals, it
consumes the same facade surface as ``repro.connect``) whose admission
queue is the tenant-fair scheduler, and a plain ``asyncio.start_server``
socket loop speaking just enough HTTP/1.1:

========  ==========================  =======================================
method    path                        behaviour
========  ==========================  =======================================
POST      ``/queries``                admit SQL for a tenant -> 201 + id
                                      (429 + Retry-After when throttled)
GET       ``/queries``                every known query's status snapshot
GET       ``/queries/{id}``           one query's status + latest progress
DELETE    ``/queries/{id}``           cooperative cancel
GET       ``/queries/{id}/events``    WebSocket: queued / sample* / end
GET       ``/metrics``                queue depths, per-tenant ticks/s,
                                      p50/p99 latency
GET       ``/healthz``                liveness
========  ==========================  =======================================

A POSTed query's SQL is planned by the worker that takes it, never on
the event loop, so bad SQL is 201 and then ``failed``.  Every terminal
path runs the handle's done callback, which records the completion and
seals the query's stream.

Connections are one-request (``Connection: close``) except the WebSocket
upgrade, which hands the socket to the event stream: frames are the
query's buffered-and-live :class:`~repro.server.bridge.EventStream`, so a
client connecting at any point sees the complete ordered sequence —
``queued``, every cadence ``sample`` (estimates live, ``actual`` null
mid-run), then ``end`` carrying the sealed, truth-labeled trace.  The
socket is written in bursts — everything queued since the last write,
replay backlog included, in one ``write`` and one ``drain``.

Every stream the front door creates holds the service's first-paint count
(:class:`~repro.service.monitor.FirstPaintPending`) raised until its first
``sample`` frame is on the wire or the stream closes; worker threads give
up the GIL at tick-batch boundaries meanwhile, which is what makes
time-to-first-estimate a few loop iterations instead of a few switch
intervals.  ``GET /metrics`` reports the count as ``first_paint_pending``.

Everything runs on the standard library.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Dict, Optional, Tuple

from repro.server import wsproto
from repro.server.bridge import (
    EventStream,
    StreamSink,
    Subscription,
    status_record,
    stream_of,
    terminal_frame,
)
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.service.admission import TenantThrottled
from repro.service.handle import QueryHandle, QueryState
from repro.service.service import QueryService
from repro.sql import plan_query

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
}

#: header lines one request may carry; each line is already capped by the
#: ``StreamReader``'s 64 KiB limit
_MAX_HEADER_LINES = 100


class _RequestError(Exception):
    """A request the client got wrong: answered with its 4xx status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ReproServer:
    """The network tier: HTTP admission, WebSocket streams, fair dispatch."""

    def __init__(self, catalog=None, *,
                 config: Optional[ServerConfig] = None) -> None:
        self.config = (config or ServerConfig()).resolved()
        self.service = QueryService(
            catalog,
            options=self.config.options,
            quotas=self.config.quotas,
            default_deadline=self.config.default_deadline,
            sinks=self.config.sinks,
        )
        self.metrics = ServerMetrics()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle (on the loop) ---------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is set on return."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, then shut the service down: queued queries end
        cancelled, running ones are cancelled at their next tick batch."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.shutdown()

    @property
    def scheduler(self) -> QueryService:
        """The tenant scheduler: the service, whose admission queue it is."""
        return self.service

    # -- lifecycle (background thread, for the CLI / tests / benchmarks) -----------

    def start_background(self, timeout: float = 30.0) -> "ReproServer":
        """Run the event loop on a daemon thread; returns once bound."""
        ready = threading.Event()

        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:
                self._startup_error = exc
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True,
                    ))
                loop.close()

        self._thread = threading.Thread(
            target=main, name="repro-server-loop", daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("server failed to start within %ss" % timeout)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop_background(self, timeout: float = 30.0) -> None:
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        try:
            future.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout)
            self._thread = None

    @contextlib.contextmanager
    def running(self, timeout: float = 30.0):
        """``with server.running():`` — background start/stop bracketing."""
        self.start_background(timeout)
        try:
            yield self
        finally:
            self.stop_background(timeout)

    # -- admission ------------------------------------------------------------------

    def submit_local(self, tenant: str, query, *, name: Optional[str] = None,
                     deadline: Optional[float] = None,
                     target_samples: Optional[int] = None,
                     stream: bool = True) -> QueryHandle:
        """Admit a query for ``tenant``, streams and all.

        ``POST /queries`` admits its SQL text here; in-process code also
        passes plan factories (the CLI's TPC-H mix, benchmarks) and gets
        the same event stream.  SQL text and factories are planned by the
        worker that takes the query.  A watched query's stream holds the
        first-paint count from here on; a refused admission closes it
        again, so the count never leaks.
        """
        if self._loop is None:
            raise RuntimeError("server is not running")
        if isinstance(query, str):
            sql, catalog = query, self.service.catalog
            query = lambda: plan_query(  # noqa: E731
                sql, catalog, name=name or "service-sql",
            )
        events = (
            EventStream(self._loop, self.service.first_paint, headed=True)
            if stream else None
        )
        try:
            handle = self.service.submit(
                query, tenant=tenant, name=name, deadline=deadline,
                target_samples=target_samples,
                sinks=(StreamSink(events),) if events is not None else (),
            )
        except BaseException as exc:
            if events is not None:
                events.close()
            if isinstance(exc, TenantThrottled):
                self.metrics.record_throttled(tenant)
            raise
        self.metrics.record_submitted(tenant)
        if events is not None:
            events.publish(json.dumps({
                "event": "queued", "id": handle.query_id,
                "query": handle.name, "tenant": tenant,
            }, sort_keys=True))
        handle.add_done_callback(
            lambda finished: self._on_done(finished, events)
        )
        return handle

    def _on_done(self, handle: QueryHandle,
                 stream: Optional[EventStream]) -> None:
        profile = (
            handle.result(timeout=0).profile
            if handle.state is QueryState.DONE else None
        )
        self.metrics.record_completed(
            handle.tenant, handle.state.value,
            ticks=profile.ticks if profile is not None else 0,
            latency_seconds=handle.finished_at - handle.submitted_at,
        )
        if stream is not None:
            stream.publish(json.dumps(terminal_frame(handle), sort_keys=True))
            stream.close()

    # -- connection handling -------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        keep_open = False
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            self.metrics.record_request()
            keep_open = await self._route(
                method, path, headers, body, reader, writer,
            )
        except asyncio.IncompleteReadError:
            pass
        except _RequestError as exc:
            with contextlib.suppress(Exception):
                self._respond(writer, exc.status, {"error": str(exc)})
        except Exception as exc:
            with contextlib.suppress(Exception):
                self._respond(writer, 500, {"error": str(exc)})
        finally:
            if not keep_open:
                with contextlib.suppress(Exception):
                    writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await self._read_line(reader)
        if not line.strip():
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise _RequestError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES + 1):
            header = await self._read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _RequestError(431, "more than %d header lines"
                                % _MAX_HEADER_LINES)
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _RequestError(
                400, "Content-Length must be a non-negative integer")
        length = int(declared)
        if length > self.config.max_body_bytes:
            raise _RequestError(413, "request body exceeds %d bytes"
                                % self.config.max_body_bytes)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # longer than the reader's line limit
            raise _RequestError(
                431, "request line or header line too long") from None

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes,
                     reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request; True when the socket was handed to a WS."""
        if path == "/healthz" and method == "GET":
            self._respond(writer, 200, {"ok": True})
            return False
        if path == "/metrics" and method == "GET":
            self._respond(writer, 200, self.metrics.snapshot(
                load=self.service.admission.load(),
                first_paint_pending=self.service.first_paint.count,
            ))
            return False
        if path == "/queries" and method == "POST":
            self._post_query(writer, body)
            return False
        if path == "/queries" and method == "GET":
            self._respond(writer, 200, {"queries": [
                status_record(handle) for handle in self.service.handles()
            ]})
            return False
        if path.startswith("/queries/"):
            rest = path[len("/queries/"):]
            if rest.endswith("/events") and method == "GET":
                query_id = rest[: -len("/events")]
                return await self._websocket(
                    query_id, headers, reader, writer,
                )
            if "/" not in rest:
                if method == "GET":
                    self._get_query(writer, rest)
                    return False
                if method == "DELETE":
                    self._delete_query(writer, rest)
                    return False
        self._respond(writer, 404 if method in ("GET", "POST", "DELETE")
                      else 405, {"error": "no route for %s %s"
                                 % (method, path)})
        return False

    # -- HTTP handlers --------------------------------------------------------------

    def _post_query(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            self._respond(writer, 400, {"error": "body must be JSON"})
            return
        if not isinstance(payload, dict):
            self._respond(writer, 400, {"error": "body must be a JSON object"})
            return
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self._respond(writer, 400, {
                "error": "a non-empty 'sql' string is required",
            })
            return
        tenant = str(payload.get("tenant") or "default")
        try:
            handle = self.submit_local(
                tenant,
                sql,
                name=payload.get("name"),
                deadline=payload.get("deadline"),
                target_samples=payload.get("target_samples"),
            )
        except TenantThrottled as exc:
            self._respond(writer, 429, {
                "error": str(exc), "tenant": exc.tenant,
                "pending": exc.pending, "max_pending": exc.max_pending,
            }, extra_headers={"Retry-After": "1"})
            return
        except Exception as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        record = status_record(handle)
        record["events_path"] = "/queries/%s/events" % handle.query_id
        self._respond(writer, 201, record)

    def _get_query(self, writer: asyncio.StreamWriter, query_id: str) -> None:
        handle = self.service.get(query_id)
        if handle is None:
            self._respond(writer, 404, {"error": "unknown query %r"
                                        % query_id})
            return
        self._respond(writer, 200, status_record(handle))

    def _delete_query(self, writer: asyncio.StreamWriter,
                      query_id: str) -> None:
        handle = self.service.get(query_id)
        if handle is None:
            self._respond(writer, 404, {"error": "unknown query %r"
                                        % query_id})
            return
        cancelled = handle.cancel()
        self._respond(writer, 200, {
            "id": query_id, "cancelled": cancelled,
            "state": handle.state.value,
        })

    # -- the WebSocket leg -----------------------------------------------------------

    async def _websocket(self, query_id: str, headers: Dict[str, str],
                         reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        handle = self.service.get(query_id)
        stream = stream_of(handle) if handle is not None else None
        if stream is None:
            self._respond(writer, 404, {"error": "unknown query %r"
                                        % query_id})
            return False
        key = headers.get("sec-websocket-key")
        if (headers.get("upgrade", "").lower() != "websocket"
                or key is None):
            self._respond(writer, 400, {
                "error": "this endpoint requires a WebSocket upgrade",
            })
            return False
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            "Sec-WebSocket-Accept: %s\r\n\r\n" % wsproto.accept_key(key)
        ).encode("latin-1"))
        await writer.drain()
        subscription = stream.subscribe()
        self.metrics.record_ws_open()
        sender = asyncio.ensure_future(self._ws_send(writer, subscription))
        receiver = asyncio.ensure_future(self._ws_recv(reader, writer))
        try:
            done, pending = await asyncio.wait(
                {sender, receiver}, return_when=asyncio.FIRST_COMPLETED,
            )
            for task in pending:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
        finally:
            stream.unsubscribe(subscription)
            self.metrics.record_ws_close()
            with contextlib.suppress(Exception):
                writer.close()
        return True

    async def _ws_send(self, writer: asyncio.StreamWriter,
                       subscription: Subscription) -> None:
        """One ``write`` and one ``drain`` per burst, close frame included."""
        ended = False
        while not ended:
            frames, ended = await subscription.next_burst()
            if ended:
                frames.append(wsproto.encode_close(1000, "stream complete"))
            writer.write(b"".join(frames))
            await writer.drain()

    async def _ws_recv(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        """Honour client close/ping; returns when the peer goes away."""
        while True:
            try:
                opcode, payload, _fin = await wsproto.read_frame_async(
                    reader.readexactly,
                )
            except (asyncio.IncompleteReadError, wsproto.WebSocketError,
                    ConnectionError):
                return
            if opcode == wsproto.OP_CLOSE:
                with contextlib.suppress(Exception):
                    writer.write(wsproto.encode_close())
                    await writer.drain()
                return
            if opcode == wsproto.OP_PING:
                writer.write(wsproto.encode_frame(
                    payload, wsproto.OP_PONG,
                ))
                await writer.drain()

    # -- response plumbing -----------------------------------------------------------

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 payload: Dict[str, object],
                 extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
            "Content-Type: application/json",
            "Content-Length: %d" % len(body),
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append("%s: %s" % (name, value))
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
