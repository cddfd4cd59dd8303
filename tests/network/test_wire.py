"""Wire codec tests: length-prefixed JSON frames for socket transports.

The codec (:mod:`repro.network.frames`) carries :class:`Message` objects
— numpy arrays and :class:`ZoneReportFrame` payloads included — across
real TCP streams via ``encode_wire`` / :class:`WireDecoder`.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.frames import (
    MAX_WIRE_FRAME_BYTES,
    WireDecoder,
    ZoneReportFrame,
    decode_wire_body,
    encode_wire,
)
from repro.network.message import Message, MessageKind


def _msg(payload, *, kind=MessageKind.SENSE_REPORT, payload_values=3):
    return Message(
        kind=kind,
        source="nc0/node1",
        destination="nc0/broker",
        payload=payload,
        payload_values=payload_values,
        timestamp=12.5,
    )


def _round_trip(message):
    frame = encode_wire(message)
    (decoded,) = WireDecoder().feed(frame)
    return decoded


class TestRoundTrip:
    def test_scalar_payload(self):
        message = _msg({"value": 21.5, "noise_std": 0.5, "ok": True,
                        "grid_index": 7, "name": "temperature",
                        "missing": None})
        decoded = _round_trip(message)
        assert decoded.kind is message.kind
        assert decoded.source == message.source
        assert decoded.destination == message.destination
        assert decoded.timestamp == message.timestamp
        assert decoded.payload_values == message.payload_values
        assert decoded.payload == message.payload
        assert decoded.payload["ok"] is True

    def test_fresh_message_id_on_decode(self):
        message = _msg({"v": 1})
        decoded = _round_trip(message)
        assert decoded.message_id != message.message_id

    def test_ndarray_payload_bit_exact_and_readonly(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4) * np.pi
        decoded = _round_trip(_msg({"grid": arr}))
        out = decoded.payload["grid"]
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)
        assert not out.flags.writeable

    def test_nested_structures(self):
        payload = {
            "rows": [np.array([1, 2, 3], dtype=np.int32), "x", 4],
            "meta": {"inner": {"arr": np.zeros(2)}},
        }
        decoded = _round_trip(_msg(payload))
        assert np.array_equal(
            decoded.payload["rows"][0], np.array([1, 2, 3])
        )
        assert decoded.payload["rows"][1:] == ["x", 4]
        assert np.array_equal(
            decoded.payload["meta"]["inner"]["arr"], np.zeros(2)
        )

    def test_numpy_scalars_lowered(self):
        decoded = _round_trip(
            _msg({"f": np.float64(1.5), "i": np.int64(3),
                  "b": np.bool_(True)})
        )
        assert decoded.payload == {"f": 1.5, "i": 3, "b": True}
        assert type(decoded.payload["i"]) is int
        assert type(decoded.payload["b"]) is bool

    def test_zone_report_frame_payload(self):
        frame = ZoneReportFrame(
            zone_id=2,
            round_index=9,
            node_ids=np.array([4, 7, 11], dtype=np.int64),
            values=np.array([20.5, 21.0, 19.75]),
            noise_stds=np.array([0.5, 0.5, 0.25]),
        )
        decoded = _round_trip(
            _msg({"frame": frame}, kind=MessageKind.AGGREGATE)
        )
        out = decoded.payload["frame"]
        assert isinstance(out, ZoneReportFrame)
        assert out.zone_id == 2 and out.round_index == 9
        assert np.array_equal(out.node_ids, frame.node_ids)
        assert np.array_equal(out.values, frame.values)
        assert np.array_equal(out.noise_stds, frame.noise_stds)
        assert not out.values.flags.writeable


class TestWireDecoder:
    def test_byte_at_a_time_feed(self):
        message = _msg({"grid": np.arange(6.0)})
        frame = encode_wire(message)
        decoder = WireDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i : i + 1]))
        assert len(out) == 1
        assert np.array_equal(out[0].payload["grid"], np.arange(6.0))
        assert decoder.buffered == 0

    def test_multiple_frames_in_one_feed(self):
        frames = b"".join(
            encode_wire(_msg({"i": i})) for i in range(5)
        )
        decoded = WireDecoder().feed(frames)
        assert [m.payload["i"] for m in decoded] == list(range(5))

    def test_partial_frame_stays_buffered(self):
        frame = encode_wire(_msg({"i": 1}))
        decoder = WireDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.buffered == len(frame) - 1
        (message,) = decoder.feed(frame[-1:])
        assert message.payload == {"i": 1}

    def test_oversized_header_rejected(self):
        decoder = WireDecoder()
        bogus = struct.pack(">I", MAX_WIRE_FRAME_BYTES + 1)
        with pytest.raises(ValueError, match="exceeds"):
            decoder.feed(bogus)

    def test_decode_wire_body_defaults(self):
        body = (
            b'{"kind":"sense_command","source":"a","destination":"b"}'
        )
        message = decode_wire_body(body)
        assert message.kind is MessageKind.SENSE_COMMAND
        assert message.payload == {}
        assert message.payload_values == 1
        assert message.timestamp == 0.0


# -- structure-aware fuzz ----------------------------------------------

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=12)
)
_any_json = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# The codec's own tagged objects, with fields of any shape or type.
_tagged = st.fixed_dictionaries(
    {
        "dtype": st.sampled_from(["<f8", "<i8", "|b1", "O", "zz"]) | _any_json,
        "shape": st.lists(st.integers(-2, 4), max_size=3) | _any_json,
        "data": st.sampled_from(["", "AA==", "AAAAAAAAAAA="]) | _any_json,
    }
).flatmap(
    lambda packed: st.sampled_from(
        [
            {"__ndarray__": packed},
            {"__zone_report_frame__": packed},
            {"__zone_report_frame__": {"zone_id": 1, "round_index": 2,
                                       "node_ids": {"__x": packed}}},
        ]
    )
)
_hostile_bodies = st.one_of(
    st.binary(max_size=64),
    _any_json.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from([k.value for k in MessageKind]) | _any_json,
            "source": st.just("a") | _any_json,
            "destination": st.just("b") | _any_json,
        },
        optional={
            "payload": st.dictionaries(
                st.text(max_size=4), _tagged | _any_json, max_size=3
            )
            | _tagged
            | _any_json,
            "payload_values": _any_json,
            "timestamp": _any_json,
        },
    ).map(lambda v: json.dumps(v).encode()),
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_messages = st.builds(
    Message,
    kind=st.sampled_from(MessageKind),
    source=st.text(min_size=1, max_size=8),
    destination=st.text(min_size=1, max_size=8),
    payload=st.dictionaries(
        st.text(max_size=6),
        st.none() | st.booleans() | st.integers(-(2**53), 2**53)
        | _finite | st.text(max_size=8),
        max_size=4,
    ),
    payload_values=st.integers(0, 10**6),
    timestamp=_finite,
)


def _fields(message):
    return (
        message.kind,
        message.source,
        message.destination,
        message.payload,
        message.payload_values,
        message.timestamp,
    )


class TestWireDecoderFuzz:
    @given(messages=st.lists(_messages, max_size=5), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_decodes_like_one_feed(self, messages, data):
        stream = b"".join(encode_wire(m) for m in messages)
        decoder = WireDecoder()
        whole = decoder.feed(stream)
        assert [_fields(m) for m in whole] == [_fields(m) for m in messages]
        assert decoder.buffered == 0
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), max_size=16),
                label="cuts",
            )
        )
        decoder, got, at = WireDecoder(), [], 0
        for cut in [*cuts, len(stream)]:
            got += decoder.feed(stream[at:cut])
            at = max(at, cut)
        assert [_fields(m) for m in got] == [_fields(m) for m in whole]
        assert decoder.buffered == 0

    @given(message=_messages)
    @settings(max_examples=40, deadline=None)
    def test_truncation_at_every_byte_buffers(self, message):
        frame = encode_wire(message)
        for fed in range(len(frame)):
            decoder = WireDecoder()
            assert decoder.feed(frame[:fed]) == []
            assert decoder.buffered == fed

    @given(length=st.integers(MAX_WIRE_FRAME_BYTES + 1, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oversize_prefix_rejected_on_the_header(self, length):
        with pytest.raises(ValueError, match="exceeds"):
            WireDecoder().feed(struct.pack(">I", length))

    @given(body=_hostile_bodies)
    @settings(max_examples=150, deadline=None)
    def test_any_body_is_a_message_or_value_error(self, body):
        frame = struct.pack(">I", len(body)) + body
        try:
            decoded = WireDecoder().feed(frame)
        except ValueError:
            return
        assert len(decoded) == 1
        assert isinstance(decoded[0], Message)
        assert isinstance(decoded[0].payload, dict)
