"""Report frames and the socket wire format.

Two concerns share this module because they are both "how a Message is
packed":

- **Zone report frames** (:class:`ZoneReportFrame`): one batched
  SENSE_REPORT per zone for the city-scale in-process path.
- **Wire codec** (:func:`encode_wire` / :class:`WireDecoder`): the
  length-prefixed JSON framing the socket transports speak — a 4-byte
  big-endian length followed by a UTF-8 JSON body.  Scalars stay plain
  JSON; numpy arrays (including the frozen frame arrays) ride as
  base64-packed raw bytes with explicit dtype/shape, so a frame payload
  survives the socket bit-exactly and decodes back to read-only arrays.

Array-backed report frames: one message per zone, not per node.

The per-node protocol of Fig. 2 sends one SENSE_REPORT message per
reading — fine for a 64-node zone, ruinous for a 100k-node city where
the Python bus would shuffle a dict per node per round.  A
:class:`ZoneReportFrame` batches a whole zone's round into three
contiguous arrays (node ids, values, claimed noise stds) carried by a
single :class:`repro.network.message.Message`, whose
``payload_values`` accounts all ``3 m`` scalars so byte/energy metering
stays honest.  The frame arrays are frozen read-only at encode time:
the same object crosses the (in-process) bus, and a consumer mutating
it would silently corrupt the producer's view of the round.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from .message import Message, MessageKind

__all__ = [
    "ZoneReportFrame",
    "encode_zone_report",
    "decode_zone_report",
    "encode_wire",
    "decode_wire_body",
    "WireDecoder",
    "MAX_WIRE_FRAME_BYTES",
]

_FRAME_KEY = "zone_report_frame"


@dataclass(frozen=True)
class ZoneReportFrame:
    """One zone's batched sensing round.

    Attributes
    ----------
    zone_id:
        Which zone the reports came from.
    round_index:
        The round the readings belong to (stale-frame detection).
    node_ids:
        Population indices of the reporting nodes, in report order.
    values:
        The noisy readings, aligned with ``node_ids``.
    noise_stds:
        Self-reported measurement stds (the GLS covariance diagonal),
        aligned with ``node_ids``.
    """

    zone_id: int
    round_index: int
    node_ids: np.ndarray
    values: np.ndarray
    noise_stds: np.ndarray

    def __post_init__(self) -> None:
        ids = np.ascontiguousarray(self.node_ids, dtype=np.int64)
        vals = np.ascontiguousarray(self.values, dtype=float)
        stds = np.ascontiguousarray(self.noise_stds, dtype=float)
        if ids.ndim != 1 or vals.shape != ids.shape or stds.shape != ids.shape:
            raise ValueError(
                "node_ids/values/noise_stds must be aligned 1-D arrays, got "
                f"{ids.shape}/{vals.shape}/{stds.shape}"
            )
        for arr, name in ((ids, "node_ids"), (vals, "values"), (stds, "noise_stds")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def report_count(self) -> int:
        return int(self.node_ids.shape[0])


def encode_zone_report(
    frame: ZoneReportFrame,
    *,
    source: str,
    destination: str,
    timestamp: float = 0.0,
) -> Message:
    """Wrap a zone frame in a single SENSE_REPORT message.

    ``payload_values`` declares every scalar the frame carries (ids,
    values, stds), so the bus bills the batched frame the same bytes the
    equivalent per-node messages would have paid in payload — the
    framing overhead (32 bytes x m messages) is the part batching
    legitimately saves.
    """
    return Message(
        kind=MessageKind.SENSE_REPORT,
        source=source,
        destination=destination,
        payload={_FRAME_KEY: frame},
        payload_values=3 * frame.report_count,
        timestamp=timestamp,
    )


def decode_zone_report(message: Message) -> ZoneReportFrame:
    """Extract and validate the zone frame from a SENSE_REPORT message."""
    if message.kind is not MessageKind.SENSE_REPORT:
        raise ValueError(f"not a SENSE_REPORT message: {message.kind}")
    frame = message.payload.get(_FRAME_KEY)
    if not isinstance(frame, ZoneReportFrame):
        raise ValueError("SENSE_REPORT message carries no zone frame")
    return frame


# -- socket wire format ---------------------------------------------------

#: Length-prefix header: 4-byte big-endian unsigned body length.
_WIRE_HEADER = struct.Struct(">I")

#: Hard bound on one wire frame's JSON body.  A zone report for a 100k
#: node city is ~2 MB base64; anything past this bound is a corrupt or
#: hostile stream and the decoder raises instead of buffering it.
MAX_WIRE_FRAME_BYTES = 16 * 1024 * 1024

_ND_KEY = "__ndarray__"
_ZONE_FRAME_KEY = "__zone_report_frame__"


def _pack_array(arr: np.ndarray) -> dict[str, Any]:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _unpack_array(packed: dict[str, Any]) -> np.ndarray:
    arr = np.frombuffer(
        base64.b64decode(packed["data"]), dtype=np.dtype(packed["dtype"])
    ).reshape(packed["shape"])
    arr.setflags(write=False)  # same read-only discipline as the frames
    return arr


def _jsonify(value: Any) -> Any:
    """Lower a payload value to JSON types (arrays/frames via base64)."""
    if isinstance(value, ZoneReportFrame):
        return {
            _ZONE_FRAME_KEY: {
                "zone_id": value.zone_id,
                "round_index": value.round_index,
                "node_ids": _pack_array(value.node_ids),
                "values": _pack_array(value.values),
                "noise_stds": _pack_array(value.noise_stds),
            }
        }
    if isinstance(value, np.ndarray):
        return {_ND_KEY: _pack_array(value)}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _unjsonify(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_ZONE_FRAME_KEY}:
            packed = value[_ZONE_FRAME_KEY]
            return ZoneReportFrame(
                zone_id=int(packed["zone_id"]),
                round_index=int(packed["round_index"]),
                node_ids=_unpack_array(packed["node_ids"]),
                values=_unpack_array(packed["values"]),
                noise_stds=_unpack_array(packed["noise_stds"]),
            )
        if set(value) == {_ND_KEY}:
            return _unpack_array(value[_ND_KEY])
        return {k: _unjsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unjsonify(v) for v in value]
    return value


def encode_wire(message: Message) -> bytes:
    """Pack one message as a length-prefixed JSON wire frame."""
    body = json.dumps(
        {
            "kind": message.kind.value,
            "source": message.source,
            "destination": message.destination,
            "payload": _jsonify(message.payload),
            "payload_values": message.payload_values,
            "timestamp": message.timestamp,
            "message_id": message.message_id,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    if len(body) > MAX_WIRE_FRAME_BYTES:
        raise ValueError(
            f"wire frame body of {len(body)} bytes exceeds the "
            f"{MAX_WIRE_FRAME_BYTES}-byte bound"
        )
    return _WIRE_HEADER.pack(len(body)) + body


def decode_wire_body(body: bytes) -> Message:
    """Decode one frame *body* (the bytes after the length prefix).

    Any malformed body raises ValueError — the one error the socket
    read loops treat as a corrupt stream — whatever the JSON holds.
    """
    try:
        obj = json.loads(body.decode("utf-8"))
        payload = _unjsonify(obj.get("payload") or {})
        source, destination = obj["source"], obj["destination"]
        if not (
            isinstance(payload, dict)
            and isinstance(source, str)
            and isinstance(destination, str)
        ):
            raise TypeError("payload must be an object, addresses strings")
        return Message(
            kind=MessageKind(obj["kind"]),
            source=source,
            destination=destination,
            payload=payload,
            payload_values=int(obj.get("payload_values", 1)),
            timestamp=float(obj.get("timestamp", 0.0)),
        )
    except (
        KeyError, TypeError, AttributeError, OverflowError, RecursionError
    ) as exc:
        raise ValueError(f"malformed wire frame body: {exc!r}") from exc


class WireDecoder:
    """Incremental frame decoder for a TCP byte stream.

    Feed it whatever ``recv`` produced; it buffers partial frames and
    yields every complete message, so the caller never deals with
    length-prefix arithmetic or short reads.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Message]:
        """Absorb ``data``; return the messages it completed."""
        self._buffer.extend(data)
        messages: list[Message] = []
        while True:
            if len(self._buffer) < _WIRE_HEADER.size:
                return messages
            (length,) = _WIRE_HEADER.unpack_from(self._buffer)
            if length > MAX_WIRE_FRAME_BYTES:
                raise ValueError(
                    f"wire frame of {length} bytes exceeds the "
                    f"{MAX_WIRE_FRAME_BYTES}-byte bound"
                )
            end = _WIRE_HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_WIRE_HEADER.size : end])
            del self._buffer[:end]
            messages.append(decode_wire_body(body))

    @property
    def buffered(self) -> int:
        return len(self._buffer)
