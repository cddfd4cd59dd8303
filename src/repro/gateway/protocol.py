"""Minimal HTTP/1.1 + WebSocket (RFC 6455) framing on asyncio streams.

The container ships no ``websockets``/``aiohttp``, so the gateway
speaks the protocols itself.  Scope is deliberately small: enough HTTP
to route a handful of GET endpoints and complete the WebSocket upgrade,
and the WebSocket frame subset real device streams use — text/binary
with client masking, ping/pong, close, and (rare) continuation frames.
Both server and client halves live here so the load generator exercises
the exact bytes a real device would send.  Frames are decoded in one
place, the sans-io :class:`WsParser`: the gateway feeds it a socket
buffer per wake-up, :func:`ws_read_message` feeds it exact reads.

This module is on reprolint RPR002's sanctioned realtime-module
allowlist (see ``docs/invariants.md``).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import random
import weakref
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpRequest",
    "read_http_request",
    "http_response",
    "websocket_accept_key",
    "ws_handshake_response",
    "ws_encode",
    "WsParser",
    "ws_read_message",
    "ws_client_handshake",
    "ws_close_payload",
    "ws_parse_close",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "CLOSE_NORMAL",
    "CLOSE_GOING_AWAY",
    "CLOSE_POLICY_VIOLATION",
    "CLOSE_TRY_AGAIN_LATER",
]

#: RFC 6455 section 1.3: the fixed GUID concatenated to the client key.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Upper bound on one WebSocket message (device frames are tiny JSON;
#: anything bigger is a broken or hostile peer).
MAX_WS_MESSAGE_BYTES = 1 << 20

_MAX_HEADER_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    503: "Service Unavailable",
    101: "Switching Protocols",
}

#: RFC 6455 section 7.4.1 status codes the gateway actually sends.
CLOSE_NORMAL = 1000
CLOSE_GOING_AWAY = 1001  # dead-peer / idle eviction
CLOSE_POLICY_VIOLATION = 1008
CLOSE_TRY_AGAIN_LATER = 1013  # admission-shed: reconnect after backoff


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request head (plus optional body)."""

    method: str
    target: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.header("upgrade").lower()
            and "upgrade" in self.header("connection").lower()
        )


async def read_http_request(
    reader: asyncio.StreamReader,
) -> HttpRequest | None:
    """Parse one request from the stream; ``None`` on EOF/garbage."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionError,
    ):
        return None
    if len(head) > _MAX_HEADER_BYTES:
        return None
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            return None
        if not 0 <= n <= _MAX_HEADER_BYTES:
            return None
        try:
            body = await reader.readexactly(n)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def http_response(
    status: int,
    body: bytes | str = b"",
    *,
    content_type: str = "application/json",
) -> bytes:
    """Serialise one plain (non-upgrade) HTTP response."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


# -- websocket handshake ---------------------------------------------------


def websocket_accept_key(client_key: str) -> str:
    """Sec-WebSocket-Accept for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1(
        (client_key + _WS_GUID).encode("latin-1")
    ).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_handshake_response(client_key: str) -> bytes:
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_key(client_key)}\r\n"
        "\r\n"
    ).encode("latin-1")


async def ws_client_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    path: str,
    *,
    host: str = "gateway",
    rng: random.Random | None = None,
) -> None:
    """Send the upgrade request and verify the server's accept key.

    ``rng`` seeds the nonce (and later, frame masks) so load-generator
    byte streams replay deterministically; ``None`` uses an unseeded
    generator, which is fine for interactive clients.
    """
    rng = rng or random.Random()
    key = base64.b64encode(rng.randbytes(16)).decode("latin-1")
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    if " 101 " not in lines[0] + " ":
        raise ConnectionError(f"websocket upgrade refused: {lines[0]!r}")
    accept = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "sec-websocket-accept":
            accept = value.strip()
    if accept != websocket_accept_key(key):
        raise ConnectionError("websocket accept key mismatch")


# -- websocket frames ------------------------------------------------------


def ws_close_payload(code: int, reason: str = "") -> bytes:
    """Close-frame payload: 2-byte status code + optional UTF-8 reason.

    RFC 6455 section 5.5.1 — the seed gateway dropped the TCP stream
    without ever sending a close frame; server-initiated disconnects now
    say *why* (``CLOSE_GOING_AWAY`` for dead-peer eviction,
    ``CLOSE_TRY_AGAIN_LATER`` for admission shedding) so clients can
    pick reconnect-now vs back-off.
    """
    if not 1000 <= code <= 4999:
        raise ValueError(f"close code {code} outside RFC 6455 range")
    return code.to_bytes(2, "big") + reason.encode("utf-8")


def ws_parse_close(payload: bytes) -> tuple[int | None, str]:
    """Decode a close-frame payload into ``(code, reason)``.

    An empty payload is legal (no code given); a malformed reason is
    replaced rather than raised — peers close with what they have.
    """
    if len(payload) < 2:
        return None, ""
    code = int.from_bytes(payload[:2], "big")
    return code, payload[2:].decode("utf-8", errors="replace")


def ws_encode(
    payload: bytes | str,
    *,
    opcode: int = OP_TEXT,
    mask: bool = False,
    rng: random.Random | None = None,
) -> bytes:
    """Encode one complete (FIN) WebSocket frame.

    Servers send unmasked (``mask=False``); clients MUST mask
    (``mask=True``) per RFC 6455 section 5.3 — ``rng`` supplies the
    masking key so client streams stay reproducible under a seed.
    """
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    header = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    n = len(payload)
    if n < 126:
        header.append(mask_bit | n)
    elif n < 1 << 16:
        header.append(mask_bit | 126)
        header += n.to_bytes(2, "big")
    else:
        header.append(mask_bit | 127)
        header += n.to_bytes(8, "big")
    if not mask:
        return bytes(header) + payload
    key = (rng or random.Random()).randbytes(4)
    header += key
    return bytes(header) + _xor_mask(payload, key)


def _xor_mask(payload: bytes, key: bytes) -> bytes:
    """RFC 6455 section 5.3 masking (its own inverse) as one wide XOR.

    The 4-byte key is tiled to the payload's length and both sides go
    through ``int`` once, so the per-byte work happens in C.
    """
    n = len(payload)
    tiled = (key * (n // 4 + 1))[:n]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(tiled, "big")
    ).to_bytes(n, "big")


class WsParser:
    """Sans-io RFC 6455 message parser: bytes in, messages out.

    :meth:`feed` takes whatever the socket produced — any number of
    frames, cut anywhere — and returns every message those bytes
    completed as ``(opcode, payload)``, in arrival order.  Continuation
    fragments are reassembled across feeds; control frames interleaved
    inside a fragmented message are returned where they arrived and do
    not disturb it; client frames are unmasked.

    The stream ends (:attr:`closed`) on a close frame — returned as the
    last message, ``(OP_CLOSE, payload)`` — on EOF (``feed(b"")``), on a
    frame or reassembled message over ``MAX_WS_MESSAGE_BYTES``, and on a
    continuation with nothing to continue.  Once closed, :meth:`feed`
    ignores its input.

    :attr:`needed` is how many more bytes the frame in progress needs
    before the parser can get any further (the rest of its header, then
    the rest of its body): a caller that must not read past a message
    boundary feeds exactly that many at a time.
    """

    __slots__ = ("closed", "needed", "_pending", "_opcode", "_parts", "_total")

    def __init__(self) -> None:
        self.closed = False
        self.needed = 2
        #: Bytes of the frame in progress (empty between frames).
        self._pending = bytearray()
        #: The fragmented message in progress: its opcode (None between
        #: messages), the payloads so far and their total length.
        self._opcode: int | None = None
        self._parts: list[bytes] = []
        self._total = 0

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Consume ``data`` (``b""`` = EOF); return the messages completed."""
        messages: list[tuple[int, bytes]] = []
        if self.closed:
            return messages
        if not data:
            self._end()
            return messages
        pending = self._pending
        if pending:
            # Until the frame in progress can get further a feed only
            # appends, so a large frame trickled in a byte at a time
            # costs one copy per frame, not one per feed.
            pending += data
            if len(data) < self.needed:
                self.needed -= len(data)
                return messages
            data = bytes(pending)
            pending.clear()
        end = len(data)
        pos = 0
        while True:
            # Header: 2 bytes, then 0/2/8 of extended length.
            head = pos + 2
            if head > end:
                break
            b2 = data[pos + 1]
            length = b2 & 0x7F
            if length == 126:
                head += 2
                if head > end:
                    break
                length = int.from_bytes(data[pos + 2 : head], "big")
            elif length == 127:
                head += 8
                if head > end:
                    break
                length = int.from_bytes(data[pos + 2 : head], "big")
            b1 = data[pos]
            frame_op = b1 & 0x0F
            # What the header alone condemns is refused before any of
            # the body is buffered; the cap is on the whole message.
            carried = 0
            if frame_op == OP_CONT:
                if self._opcode is None:  # nothing to continue
                    self._end()
                    return messages
                carried = self._total
            if carried + length > MAX_WS_MESSAGE_BYTES:
                self._end()
                return messages
            masked = b2 & 0x80
            body = head + 4 if masked else head
            head = body + length  # from here: one past the frame
            if head > end:
                break
            payload = data[body:head]
            if masked:
                payload = _xor_mask(payload, data[body - 4 : body])
            pos = head
            if frame_op == OP_CLOSE:
                messages.append((OP_CLOSE, payload))
                self._end()
                return messages
            if frame_op == OP_PING or frame_op == OP_PONG:
                messages.append((frame_op, payload))  # never fragmented
            elif frame_op != OP_CONT:
                # A new data message (an unfinished one is abandoned).
                if b1 & 0x80:  # the common case: all of it in one frame
                    self._opcode = None
                    messages.append((frame_op, payload))
                else:
                    self._opcode = frame_op
                    self._parts = [payload]
                    self._total = length
            else:
                self._parts.append(payload)
                self._total += length
                if b1 & 0x80:
                    messages.append((self._opcode, b"".join(self._parts)))
                    self._opcode = None
                    self._parts = []
        pending += data[pos:]
        self.needed = head - end
        return messages

    def _end(self) -> None:
        self.closed = True
        self.needed = 0
        self._pending.clear()
        self._parts = []


#: :func:`ws_read_message`'s parser for each reader it has been handed:
#: fragment state has to outlive one call (a ping between two fragments
#: is returned before the message it interrupts), and the reader is the
#: only thing the caller passes twice.
_READER_PARSERS: weakref.WeakKeyDictionary[
    asyncio.StreamReader, WsParser
] = weakref.WeakKeyDictionary()


async def ws_read_message(
    reader: asyncio.StreamReader,
    *,
    include_close: bool = False,
) -> tuple[int, bytes] | None:
    """Read one complete message; ``None`` on EOF or a close frame.

    One :class:`WsParser` per reader does the decoding (reassembly,
    unmasking, the size cap, control frames returned in arrival order
    even inside a fragmented message); this loop only reads exactly what
    the parser says the frame in progress still needs, so nothing past
    the returned message leaves ``reader``.  ``None`` also covers a
    stream the parser ended and a peer that died mid-frame, at any byte.

    ``include_close=True`` surfaces a close frame as ``(OP_CLOSE,
    payload)`` instead of folding it into ``None`` — resilient clients
    need the status code (:func:`ws_parse_close`) to distinguish an
    admission shed (1013, back off) from a normal goodbye.
    """
    parser = _READER_PARSERS.get(reader)
    if parser is None:
        parser = _READER_PARSERS[reader] = WsParser()
    try:
        while not parser.closed:
            # Exact reads end on a frame boundary: at most one message.
            messages = parser.feed(await reader.readexactly(parser.needed))
            if messages:
                if messages[0][0] == OP_CLOSE and not include_close:
                    return None
                return messages[0]
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    return None
