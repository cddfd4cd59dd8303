"""Array-backed report frames: one message per zone, not per node.

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

from dataclasses import dataclass

import numpy as np

from .message import Message, MessageKind

__all__ = [
    "ZoneReportFrame",
    "encode_zone_report",
    "decode_zone_report",
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

