"""The benchmark's own load client: stdlib HTTP plus RFC 6455, frozen.

The program ships ``repro.server.client``; the benchmark does not use it.
That client returns a stream's frames only once the stream has ended, so
time-to-first-estimate cannot be observed through it, and a later change
may replace it — which would move client-side cost into the numbers.  This
module is owned by the benchmark and changes with no commit of the program:
its cost is constant, and it timestamps every frame the moment the frame's
last byte has been read, before any decoding.

Only what the benchmark needs is implemented: JSON over one-shot HTTP/1.1
requests, the WebSocket opening handshake, unfragmented server-to-client
text frames, ping and close.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import socket
import struct
import time
from typing import Dict, List, Optional, Tuple

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_OP_TEXT, _OP_CLOSE, _OP_PING, _OP_PONG = 0x1, 0x8, 0x9, 0xA

#: every sample frame carries this marker (the server dumps with sort_keys,
#: and the marker text cannot occur inside a JSON string unescaped)
_SAMPLE_MARKER = b'"event": "sample"'


class ClientError(Exception):
    """An unexpected HTTP status, a refused upgrade or a malformed frame."""


class StreamResult:
    """What one WebSocket subscription saw, with arrival times.

    Times are ``time.perf_counter()`` readings.  ``terminal`` is the raw
    payload of the last text frame (the ``end`` frame); it is decoded by
    the caller, outside the timed region.  ``frames`` holds every
    ``(arrival, payload)`` pair only when the caller asked to keep them.
    """

    __slots__ = ("connected", "upgraded", "first_sample", "last_frame",
                 "frame_count", "byte_count", "terminal", "frames")

    def __init__(self) -> None:
        self.connected = 0.0
        self.upgraded = 0.0
        self.first_sample: Optional[float] = None
        self.last_frame = 0.0
        self.frame_count = 0
        self.byte_count = 0
        self.terminal = b""
        self.frames: List[Tuple[float, bytes]] = []


class LoadClient:
    """One server endpoint; a connection per request, as the server closes."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- HTTP ---------------------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, Dict[str, object]]:
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
            return response.status, json.loads(raw) if raw else {}
        finally:
            conn.close()

    def get(self, path: str) -> Dict[str, object]:
        status, decoded = self.request("GET", path)
        if status != 200:
            raise ClientError("GET %s -> HTTP %d: %s" % (path, status, decoded))
        return decoded

    def post_query(self, sql: str, tenant: str = "default") -> Dict[str, object]:
        """``POST /queries``; a refusal (429, 400) raises."""
        status, decoded = self.request(
            "POST", "/queries", {"sql": sql, "tenant": tenant},
        )
        if status != 201:
            raise ClientError("POST /queries -> HTTP %d: %s" % (status, decoded))
        return decoded

    # -- WebSocket ------------------------------------------------------------------

    def stream(self, query_id: str, keep_frames: bool = False) -> StreamResult:
        """Follow ``/queries/{id}/events`` to the server's close frame."""
        result = StreamResult()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout,
        )
        try:
            result.connected = time.perf_counter()
            key = base64.b64encode(os.urandom(16)).decode("ascii")
            sock.sendall((
                "GET /queries/%s/events HTTP/1.1\r\n"
                "Host: %s:%d\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                "Sec-WebSocket-Key: %s\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
                % (query_id, self.host, self.port, key)
            ).encode("latin-1"))
            # One buffered reader for handshake and frames: bytes that
            # arrive glued to the 101 response stay in its buffer.
            reader = sock.makefile("rb")
            try:
                self._read_handshake(reader, key)
                result.upgraded = time.perf_counter()
                self._read_frames(sock, reader, result, keep_frames)
            finally:
                reader.close()
        finally:
            sock.close()
        return result

    @staticmethod
    def _read_handshake(reader, key: str) -> None:
        status_line = reader.readline().decode("latin-1")
        if " 101 " not in status_line:
            raise ClientError("upgrade refused: %s" % status_line.strip())
        accept = None
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
        if accept != base64.b64encode(digest).decode("ascii"):
            raise ClientError("bad Sec-WebSocket-Accept from server")

    @staticmethod
    def _read_exact(reader, count: int) -> bytes:
        data = reader.read(count)
        if len(data) != count:
            raise ClientError("connection closed mid-frame")
        return data

    def _read_frames(self, sock, reader, result: StreamResult,
                     keep_frames: bool) -> None:
        read_exact = self._read_exact
        while True:
            first, second = read_exact(reader, 2)
            if first & 0x70 or not first & 0x80:
                raise ClientError("fragmented or reserved-bit frame")
            length = second & 0x7F
            if length == 126:
                (length,) = struct.unpack(">H", read_exact(reader, 2))
            elif length == 127:
                (length,) = struct.unpack(">Q", read_exact(reader, 8))
            if second & 0x80:
                raise ClientError("server sent a masked frame")
            payload = read_exact(reader, length) if length else b""
            arrival = time.perf_counter()
            opcode = first & 0x0F
            if opcode == _OP_TEXT:
                result.frame_count += 1
                result.byte_count += length
                result.last_frame = arrival
                result.terminal = payload
                if result.first_sample is None and _SAMPLE_MARKER in payload:
                    result.first_sample = arrival
                if keep_frames:
                    result.frames.append((arrival, payload))
            elif opcode == _OP_CLOSE:
                sock.sendall(_client_frame(_OP_CLOSE, payload[:2]))
                return
            elif opcode == _OP_PING:
                sock.sendall(_client_frame(_OP_PONG, payload))


def _client_frame(opcode: int, payload: bytes) -> bytes:
    """A masked client-to-server control frame (payload under 126 bytes)."""
    key = os.urandom(4)
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes([0x80 | opcode, 0x80 | len(payload)]) + key + masked
