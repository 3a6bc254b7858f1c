"""Minimal RFC 6455 WebSocket framing over the standard library.

The network tier runs on a bare Python install, and this module is its
whole WebSocket layer: the handshake accept key, frame encode/decode for
both directions (servers send unmasked, clients mask), and the control
opcodes the event stream needs (close, ping/pong).

Framing is transport-agnostic: :func:`encode_frame` returns bytes, and
:func:`read_frame` pulls from any ``read_exact(n) -> bytes`` callable, so
the same code serves a blocking socket client and the asyncio server (which
wraps ``StreamReader.readexactly``).
"""

from __future__ import annotations

import base64
import hashlib
import os
import struct
from typing import Callable, Tuple

#: the protocol's fixed handshake GUID (RFC 6455 §1.3)
GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


class WebSocketError(Exception):
    """A malformed frame or a handshake violation."""


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((client_key.strip() + GUID).encode("ascii"))
    return base64.b64encode(digest.digest()).decode("ascii")


def encode_frame(payload: bytes, opcode: int = OP_TEXT, *,
                 mask: bool = False, fin: bool = True) -> bytes:
    """One complete frame.  ``mask=True`` for client→server traffic."""
    header = bytearray()
    header.append((0x80 if fin else 0) | (opcode & 0x0F))
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if not mask:
        return bytes(header) + payload
    key = os.urandom(4)
    header += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + masked


def encode_text(text: str, *, mask: bool = False) -> bytes:
    return encode_frame(text.encode("utf-8"), OP_TEXT, mask=mask)


def encode_close(code: int = 1000, reason: str = "", *,
                 mask: bool = False) -> bytes:
    payload = struct.pack(">H", code) + reason.encode("utf-8")
    return encode_frame(payload, OP_CLOSE, mask=mask)


def read_frame(read_exact: Callable[[int], bytes]) -> Tuple[int, bytes, bool]:
    """Parse one frame: ``(opcode, unmasked payload, fin)``.

    ``read_exact(n)`` must return exactly ``n`` bytes or raise (EOF).
    Fragmented messages surface as ``fin=False`` continuation frames; the
    event stream only ever sends whole frames, so callers may treat a
    fragment as a protocol error.
    """
    first, second = read_exact(2)
    fin = bool(first & 0x80)
    if first & 0x70:
        raise WebSocketError("reserved frame bits set")
    opcode = first & 0x0F
    masked = bool(second & 0x80)
    length = second & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", read_exact(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", read_exact(8))
    key = read_exact(4) if masked else None
    payload = read_exact(length) if length else b""
    if key is not None:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload, fin


async def read_frame_async(read_exactly) -> Tuple[int, bytes, bool]:
    """:func:`read_frame` over an awaitable ``read_exactly(n)`` (asyncio)."""
    first_two = await read_exactly(2)
    first, second = first_two
    fin = bool(first & 0x80)
    if first & 0x70:
        raise WebSocketError("reserved frame bits set")
    opcode = first & 0x0F
    masked = bool(second & 0x80)
    length = second & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await read_exactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await read_exactly(8))
    key = await read_exactly(4) if masked else None
    payload = await read_exactly(length) if length else b""
    if key is not None:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload, fin


def reader_from_socket(sock) -> Callable[[int], bytes]:
    """``read_exact`` over a blocking socket (the test/benchmark client)."""

    def read_exact(count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            if not chunk:
                raise WebSocketError("connection closed mid-frame")
            chunks += chunk
        return bytes(chunks)

    return read_exact
