"""Unit tests for the hand-rolled HTTP/WebSocket framing layer.

The container ships no websocket library, so :mod:`repro.gateway.
protocol` implements RFC 6455 itself; these tests pin it against the
RFC's own vectors and the frame-size edge cases.
"""

import asyncio
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import protocol


def _run(coro):
    return asyncio.run(coro)


async def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


async def _decode(data: bytes):
    return await protocol.ws_read_message(await _reader_for(data))


class TestHandshake:
    def test_accept_key_matches_rfc_vector(self):
        # RFC 6455 section 1.3's worked example.
        assert (
            protocol.websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_handshake_response_carries_accept(self):
        response = protocol.ws_handshake_response(
            "dGhlIHNhbXBsZSBub25jZQ=="
        ).decode("latin-1")
        assert response.startswith("HTTP/1.1 101 ")
        assert "Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in (
            response
        )


class TestHttpParsing:
    def test_get_with_query(self):
        raw = (
            b"GET /sensor/connect?type=temperature&x=3&mode=poll "
            b"HTTP/1.1\r\nHost: gw\r\nUpgrade: WebSocket\r\n"
            b"Connection: keep-alive, Upgrade\r\n\r\n"
        )

        async def scenario():
            return await protocol.read_http_request(
                await _reader_for(raw)
            )

        request = _run(scenario())
        assert request.method == "GET"
        assert request.path == "/sensor/connect"
        assert request.query == {
            "type": "temperature", "x": "3", "mode": "poll",
        }
        assert request.header("host") == "gw"
        assert request.wants_websocket

    def test_body_read_by_content_length(self):
        raw = (
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )

        async def scenario():
            return await protocol.read_http_request(
                await _reader_for(raw)
            )

        request = _run(scenario())
        assert request.method == "POST"
        assert request.body == b"abcd"

    def test_garbage_returns_none(self):
        async def scenario():
            return await protocol.read_http_request(
                await _reader_for(b"\x00\x01 nonsense, no terminator")
            )

        assert _run(scenario()) is None

    def test_http_response_shape(self):
        raw = protocol.http_response(404, b'{"error":"not found"}')
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 404 Not Found")
        assert b"Content-Length: 21" in head
        assert b"Connection: close" in head
        assert body == b'{"error":"not found"}'


class TestFrames:
    @pytest.mark.parametrize("size", [0, 5, 125, 126, 300, 70_000])
    @pytest.mark.parametrize("mask", [False, True])
    def test_encode_decode_all_length_forms(self, size, mask):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        frame = protocol.ws_encode(
            payload,
            opcode=protocol.OP_BINARY,
            mask=mask,
            rng=random.Random(7),
        )
        assert _run(_decode(frame)) == (protocol.OP_BINARY, payload)

    def test_text_round_trip(self):
        frame = protocol.ws_encode('{"type":"reading","value":20.5}')
        opcode, payload = _run(_decode(frame))
        assert opcode == protocol.OP_TEXT
        assert payload == b'{"type":"reading","value":20.5}'

    def test_masked_frame_is_masked_on_the_wire(self):
        payload = b"sensitive"
        frame = protocol.ws_encode(
            payload, mask=True, rng=random.Random(3)
        )
        assert payload not in frame  # masked bytes differ from payload
        assert _run(_decode(frame))[1] == payload

    def test_seeded_masks_replay(self):
        a = protocol.ws_encode(b"x", mask=True, rng=random.Random(5))
        b = protocol.ws_encode(b"x", mask=True, rng=random.Random(5))
        assert a == b

    def test_close_frame_returns_none(self):
        frame = protocol.ws_encode(b"", opcode=protocol.OP_CLOSE)
        assert _run(_decode(frame)) is None

    def test_eof_returns_none(self):
        assert _run(_decode(b"")) is None

    def test_ping_returned_to_caller(self):
        frame = protocol.ws_encode(b"hb", opcode=protocol.OP_PING)
        assert _run(_decode(frame)) == (protocol.OP_PING, b"hb")

    def test_fragmented_message_reassembled(self):
        # Hand-build TEXT(FIN=0) + CONT(FIN=1): 0x01 = text, no FIN.
        first = bytes([0x01, 3]) + b"abc"
        final = bytes([0x80 | protocol.OP_CONT, 3]) + b"def"
        assert _run(_decode(first + final)) == (
            protocol.OP_TEXT, b"abcdef",
        )

    def test_oversized_message_rejected(self):
        huge = protocol.MAX_WS_MESSAGE_BYTES + 1
        header = bytes([0x80 | protocol.OP_BINARY, 127]) + huge.to_bytes(
            8, "big"
        )
        assert _run(_decode(header)) is None

    def test_encode_mask_matches_per_byte_reference(self):
        # ws_encode's wide XOR must produce the bytes the per-byte RFC
        # 6455 section 5.3 loop does: seeded client streams (and the
        # layered bench's frame pool) are pinned on them.
        for size in (0, 1, 3, 4, 5, 125, 126, 300, 65_536, 70_001):
            payload = random.Random(size).randbytes(size)
            frame = protocol.ws_encode(
                payload, opcode=protocol.OP_BINARY, mask=True,
                rng=random.Random(9),
            )
            key = random.Random(9).randbytes(4)
            plain = protocol.ws_encode(payload, opcode=protocol.OP_BINARY)
            head = len(plain) - size
            assert frame[:head] == bytes([plain[0], plain[1] | 0x80]) + (
                plain[2:head]
            )
            assert frame[head : head + 4] == key
            assert frame[head + 4 :] == bytes(
                b ^ key[i % 4] for i, b in enumerate(payload)
            )


def _frame(
    opcode: int,
    payload: bytes,
    *,
    fin: bool = True,
    mask_rng: random.Random | None = None,
) -> bytes:
    """One frame via ``ws_encode``, FIN cleared for a non-final fragment."""
    raw = protocol.ws_encode(
        payload, opcode=opcode, mask=mask_rng is not None, rng=mask_rng
    )
    return raw if fin else bytes([raw[0] & 0x7F]) + raw[1:]


class TestTruncation:
    """``ws_read_message`` documents ``None`` on EOF — at *any* byte."""

    @pytest.mark.parametrize("size", [5, 300, 70_000])
    @pytest.mark.parametrize("mask", [False, True])
    def test_eof_anywhere_in_a_frame_returns_none(self, size, mask):
        frame = _frame(
            protocol.OP_BINARY, bytes(size),
            mask_rng=random.Random(2) if mask else None,
        )
        head = len(frame) - size
        # After byte 1, inside each length form, inside the mask key,
        # inside the payload (first and last byte of it missing).
        cuts = sorted({*range(1, head + 2), len(frame) - 1})
        for cut in cuts:
            assert _run(_decode(frame[:cut])) is None, cut

    def test_message_before_the_truncated_frame_still_arrives(self):
        whole = _frame(protocol.OP_TEXT, b"ok", mask_rng=random.Random(1))
        partial = _frame(protocol.OP_TEXT, b"x" * 300)[:3]

        async def scenario():
            reader = await _reader_for(whole + partial)
            first = await protocol.ws_read_message(reader)
            second = await protocol.ws_read_message(reader)
            return first, second

        assert _run(scenario()) == ((protocol.OP_TEXT, b"ok"), None)


class TestMessageCap:
    def test_cap_is_on_the_reassembled_message(self):
        # Three 1 MiB fragments used to pass as one 3 MiB message: the
        # cap was checked frame by frame.
        piece = bytes(protocol.MAX_WS_MESSAGE_BYTES)
        stream = (
            _frame(protocol.OP_BINARY, piece, fin=False)
            + _frame(protocol.OP_CONT, piece, fin=False)
            + _frame(protocol.OP_CONT, piece)
        )
        assert _run(_decode(stream)) is None

        parser = protocol.WsParser()
        first = len(stream) // 3
        assert parser.feed(stream[:first]) == [] and not parser.closed
        # The second fragment's header alone ends the stream, exactly
        # as an oversize single frame does: none of its body is needed.
        assert parser.feed(stream[first : first + 10]) == []
        assert parser.closed
        assert parser.feed(stream[first + 10 :]) == []

    def test_fragments_up_to_the_cap_are_accepted(self):
        half = bytes(protocol.MAX_WS_MESSAGE_BYTES // 2)
        stream = _frame(protocol.OP_BINARY, half, fin=False) + _frame(
            protocol.OP_CONT, half
        )
        assert _run(_decode(stream)) == (protocol.OP_BINARY, half + half)


class TestParser:
    def test_ping_between_fragments_keeps_the_message(self):
        stream = (
            _frame(protocol.OP_TEXT, b"ab", fin=False)
            + _frame(protocol.OP_PING, b"hb")
            + _frame(protocol.OP_CONT, b"cd")
        )
        expected = [(protocol.OP_PING, b"hb"), (protocol.OP_TEXT, b"abcd")]
        assert protocol.WsParser().feed(stream) == expected

        async def scenario():
            reader = await _reader_for(stream)
            return [
                await protocol.ws_read_message(reader) for _ in range(3)
            ]

        assert _run(scenario()) == expected + [None]

    def test_needed_walks_header_then_body(self):
        frame = _frame(protocol.OP_BINARY, bytes(300), mask_rng=random.Random(4))
        parser = protocol.WsParser()
        assert parser.needed == 2
        parser.feed(frame[:1])
        assert parser.needed == 1
        parser.feed(frame[1:2])
        assert parser.needed == 2  # the 16-bit length
        parser.feed(frame[2:4])
        assert parser.needed == 4 + 300  # key + payload, one read
        parser.feed(frame[4:100])
        assert parser.needed == 4 + 300 - 96
        assert parser.feed(frame[100:]) == [(protocol.OP_BINARY, bytes(300))]
        assert parser.needed == 2 and not parser.closed

    def test_eof_and_close_end_the_stream(self):
        parser = protocol.WsParser()
        assert parser.feed(b"") == [] and parser.closed
        assert parser.needed == 0

        parser = protocol.WsParser()
        stream = _frame(protocol.OP_CLOSE, b"\x03\xe8bye") + _frame(
            protocol.OP_TEXT, b"late"
        )
        assert parser.feed(stream) == [(protocol.OP_CLOSE, b"\x03\xe8bye")]
        assert parser.closed

    def test_trickled_large_frame_is_not_quadratic(self):
        # 256 KiB a byte at a time: a parser that re-copied its buffer
        # on every feed would move ~32 GiB here.
        size = 1 << 18
        frame = _frame(protocol.OP_BINARY, bytes(size))
        parser = protocol.WsParser()
        out = []
        for k in range(len(frame)):
            out += parser.feed(frame[k : k + 1])
        assert out == [(protocol.OP_BINARY, bytes(size))]


# -- structure-aware fuzz of the parser ------------------------------------

#: The fuzz runs under a cap small enough that "oversize" costs no
#: megabytes, yet above 65 536 so all three length forms stay legal.
_FUZZ_CAP = 100_000

_DATA_OPS = (protocol.OP_TEXT, protocol.OP_BINARY)
_CONTROL_OPS = (protocol.OP_PING, protocol.OP_PONG)
_ENDINGS = (
    "open", "truncated", "close", "oversize_frame", "oversize_message",
    "orphan",
)


@st.composite
def _payloads(draw):
    size = draw(
        st.one_of(
            st.integers(0, 200),
            st.sampled_from([125, 126, 127, 65_535, 65_536, 70_000]),
        )
    )
    pattern = draw(st.binary(min_size=1, max_size=8))
    return (pattern * (size // len(pattern) + 1))[:size]


@st.composite
def _streams(draw):
    """(stream, messages, stop): the bytes, what they must decode to,
    and the offset of the byte that ends the stream (None = only EOF)."""
    keys = random.Random(draw(st.integers(0, 2**16)))
    masks = st.sampled_from([None, keys])
    control = st.tuples(
        st.sampled_from(_CONTROL_OPS), st.binary(max_size=125), masks
    )
    stream, messages = b"", []

    def emit_control(op, payload, mask):
        nonlocal stream
        stream += _frame(op, payload, mask_rng=mask)
        messages.append((op, payload))

    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            emit_control(*draw(control))
            continue
        opcode, payload = draw(st.sampled_from(_DATA_OPS)), draw(_payloads())
        count = draw(st.integers(1, 4))
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(0, len(payload)),
                    min_size=count - 1, max_size=count - 1,
                )
            )
        )
        bounds = [0, *cuts, len(payload)]
        for k in range(count):
            stream += _frame(
                opcode if k == 0 else protocol.OP_CONT,
                payload[bounds[k] : bounds[k + 1]],
                fin=k == count - 1,
                mask_rng=draw(masks),
            )
            if k < count - 1:
                for ping in draw(st.lists(control, max_size=2)):
                    emit_control(*ping)
        messages.append((opcode, payload))

    ending = draw(st.sampled_from(_ENDINGS))
    junk = _frame(protocol.OP_TEXT, b"after the end", mask_rng=draw(masks))
    if ending == "open":
        return stream, messages, None
    if ending == "truncated":
        frame = _frame(
            draw(st.sampled_from(_DATA_OPS + _CONTROL_OPS)),
            draw(st.binary(max_size=125)) + b"!",
            mask_rng=draw(masks),
        )
        return stream + frame[: draw(st.integers(1, len(frame) - 1))], (
            messages
        ), None
    if ending == "close":
        payload = draw(st.binary(max_size=125))
        stream += _frame(protocol.OP_CLOSE, payload, mask_rng=draw(masks))
        messages.append((protocol.OP_CLOSE, payload))
        return stream + junk, messages, len(stream)
    if ending == "oversize_frame":
        declared = draw(st.integers(_FUZZ_CAP + 1, 2**63 - 1))
        stream += bytes([0x80 | draw(st.sampled_from(_DATA_OPS)), 127])
        stream += declared.to_bytes(8, "big")
        return stream + junk, messages, len(stream)
    if ending == "oversize_message":
        # 65 536 + 40 000 > cap, each fragment legal alone; the second
        # one's 16-bit header is where the stream ends.
        stream += _frame(
            protocol.OP_BINARY, bytes(65_536), fin=False, mask_rng=draw(masks)
        )
        stream += _frame(protocol.OP_CONT, bytes(40_000))[:4]
        return stream + junk, messages, len(stream)
    # orphan: a continuation with no message in progress ends the
    # stream on its first two bytes.
    stream += _frame(protocol.OP_CONT, b"lost", fin=draw(st.booleans()))[:2]
    return stream + junk, messages, len(stream)


async def _read_all(stream: bytes):
    """Drain ``stream`` through ``ws_read_message``; also what it left."""
    reader = await _reader_for(stream)
    out = []
    while True:
        message = await protocol.ws_read_message(reader, include_close=True)
        if message is None:
            return out, await reader.read()
        out.append(message)


class TestParserFuzz:
    @given(case=_streams(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_stream_any_chunking(self, case, data):
        stream, messages, stop = case
        with mock.patch.object(protocol, "MAX_WS_MESSAGE_BYTES", _FUZZ_CAP):
            # (a) the messages, and where the stream ends.
            parser = protocol.WsParser()
            # (an empty feed means EOF, so an empty stream is not fed)
            assert (parser.feed(stream) if stream else []) == messages
            assert parser.closed == (stop is not None)
            if stop is None:
                assert parser.needed > 0
                assert parser.feed(b"") == [] and parser.closed
            else:
                parser = protocol.WsParser()
                got = parser.feed(stream[: stop - 1])
                assert not parser.closed
                got += parser.feed(stream[stop - 1 : stop])
                assert parser.closed and got == messages
                assert parser.feed(stream[stop:]) == []

            # (b) any chunking decodes to what one feed does.
            cuts = sorted(
                data.draw(
                    st.lists(st.integers(0, len(stream)), max_size=24),
                    label="cuts",
                )
            )
            if len(stream) <= 2048:
                cuts = range(len(stream))  # and every byte boundary
            parser = protocol.WsParser()
            got, at = [], 0
            for cut in [*cuts, len(stream)]:
                if cut > at:
                    got += parser.feed(stream[at:cut])
                    at = cut
            assert got == messages
            assert parser.closed == (stop is not None)

            # (c) the StreamReader path: same sequence, nothing over-read.
            read, left = _run(_read_all(stream))
            assert read == messages
            assert left == (b"" if stop is None else stream[stop:])
