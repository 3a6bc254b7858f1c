"""A blocking client for the server — stdlib only.

Tests, the ``repro serve`` CLI and the load benchmark all talk to the
server over real sockets through this module: JSON-over-HTTP via
``http.client`` and the event stream over a raw-socket WebSocket using the
framing in :mod:`repro.server.wsproto` (client frames masked, as RFC 6455
requires).  Keeping the client blocking means callers need no event loop —
each WebSocket read simply parks a thread, which is exactly the shape of
the load benchmark's per-client workers.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
from typing import Dict, Iterator, List, Optional, Tuple

from repro.server import wsproto


class ServerClientError(Exception):
    """An HTTP error status, carrying the decoded body."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__("HTTP %d: %s" % (status, payload.get("error")))
        self.status = status
        self.payload = payload


class ServerClient:
    """One server endpoint; connections are per-request (the server closes)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- HTTP ----------------------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[dict] = None,
                ) -> Tuple[int, Dict[str, object]]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout,
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
            return response.status, decoded
        finally:
            conn.close()

    def _expect(self, method: str, path: str,
                payload: Optional[dict] = None,
                ok: Tuple[int, ...] = (200,)) -> Dict[str, object]:
        status, decoded = self.request(method, path, payload)
        if status not in ok:
            raise ServerClientError(status, decoded)
        return decoded

    def submit(self, sql: str, *, tenant: str = "default",
               name: Optional[str] = None,
               deadline: Optional[float] = None,
               target_samples: Optional[int] = None) -> Dict[str, object]:
        """POST /queries; raises :class:`ServerClientError` on 429/400."""
        payload: Dict[str, object] = {"sql": sql, "tenant": tenant}
        if name is not None:
            payload["name"] = name
        if deadline is not None:
            payload["deadline"] = deadline
        if target_samples is not None:
            payload["target_samples"] = target_samples
        return self._expect("POST", "/queries", payload, ok=(201,))

    def status(self, query_id: str) -> Dict[str, object]:
        return self._expect("GET", "/queries/%s" % query_id)

    def queries(self) -> List[Dict[str, object]]:
        return self._expect("GET", "/queries")["queries"]

    def cancel(self, query_id: str) -> Dict[str, object]:
        return self._expect("DELETE", "/queries/%s" % query_id)

    def metrics(self) -> Dict[str, object]:
        return self._expect("GET", "/metrics")

    def healthz(self) -> Dict[str, object]:
        return self._expect("GET", "/healthz")

    # -- WebSocket -------------------------------------------------------------------

    def stream_events(self, query_id: str) -> List[Dict[str, object]]:
        """Every frame of a query's event stream; blocks until it ends."""
        return list(self.iter_events(query_id))

    def iter_events(self, query_id: str) -> Iterator[Dict[str, object]]:
        """Subscribe to a query's event stream; yield frames as they arrive.

        Yields every JSON frame in order: ``queued``, the ``sample``
        cadence while the query runs, then the terminal ``end`` frame with
        the sealed trace.  Safe to call at any point in the query's life —
        the stream replays buffered frames first, so a late subscriber
        still sees everything.  Abandoning the generator closes the socket.
        """
        path = "/queries/%s/events" % query_id
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout,
        )
        try:
            key = base64.b64encode(os.urandom(16)).decode("ascii")
            sock.sendall((
                "GET %s HTTP/1.1\r\n"
                "Host: %s:%d\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                "Sec-WebSocket-Key: %s\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
                % (path, self.host, self.port, key)
            ).encode("latin-1"))
            leftover = self._read_handshake(sock, key)
            read_socket = wsproto.reader_from_socket(sock)
            pending = bytearray(leftover)

            def read_exact(count: int) -> bytes:
                # Serve bytes that arrived glued to the handshake response
                # first; frames may straddle the boundary.
                if pending:
                    take = bytes(pending[:count])
                    del pending[: len(take)]
                    if len(take) == count:
                        return take
                    return take + read_socket(count - len(take))
                return read_socket(count)
            while True:
                opcode, payload, _fin = wsproto.read_frame(read_exact)
                if opcode == wsproto.OP_CLOSE:
                    sock.sendall(wsproto.encode_close(mask=True))
                    return
                if opcode == wsproto.OP_PING:
                    sock.sendall(wsproto.encode_frame(
                        payload, wsproto.OP_PONG, mask=True,
                    ))
                    continue
                if opcode == wsproto.OP_TEXT:
                    yield json.loads(payload.decode("utf-8"))
        finally:
            sock.close()

    @staticmethod
    def _read_handshake(sock, key: str) -> bytes:
        """Validate the 101 response; returns bytes read past its end."""
        buffer = bytearray()
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(4096)
            if not chunk:
                raise wsproto.WebSocketError(
                    "connection closed during WebSocket handshake"
                )
            buffer += chunk
        raw_head, leftover = bytes(buffer).split(b"\r\n\r\n", 1)
        head = raw_head.decode("latin-1")
        status_line = head.split("\r\n")[0]
        if " 101 " not in status_line + " ":
            raise wsproto.WebSocketError(
                "handshake rejected: %s" % status_line
            )
        expected = wsproto.accept_key(key)
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                if value.strip() != expected:
                    raise wsproto.WebSocketError(
                        "bad Sec-WebSocket-Accept from server"
                    )
                return leftover
        raise wsproto.WebSocketError("server omitted Sec-WebSocket-Accept")
