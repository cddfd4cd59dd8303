"""Message types exchanged between mobile nodes and brokers.

The NanoCloud protocol of Fig. 2 is command/telemetry: the broker
"initiates these measurements by commanding and telemetering the selected
nodes", and nodes reply with readings; brokers additionally publish
aggregated results up the hierarchy and disseminate collective
information back down.  Messages carry an explicit payload-size estimate
so link models can account bytes and energy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["MessageKind", "Message"]

_sequence = itertools.count(1)

#: Fixed per-message framing overhead in bytes (headers, topic, ids) —
#: roughly an MQTT PUBLISH header plus our addressing fields.
HEADER_BYTES = 32

#: Bytes per scalar value in a payload (float64).
VALUE_BYTES = 8


class MessageKind(Enum):
    """Protocol message types of the NanoCloud/LocalCloud tiers."""

    SENSE_COMMAND = "sense_command"  # broker -> node: take a measurement
    SENSE_REPORT = "sense_report"  # node -> broker: measurement reply
    AGGREGATE = "aggregate"  # NC broker -> LC head: zone result
    DISSEMINATE = "disseminate"  # broker -> nodes: collective info
    QUERY = "query"  # user/app -> broker: on-demand query
    QUERY_RESULT = "query_result"  # broker -> user/app
    CONTEXT_SHARE = "context_share"  # node -> broker: shared context


@dataclass
class Message:
    """One protocol message.

    ``payload`` is a free-form dict; ``payload_values`` declares how many
    scalar values it carries so :meth:`size_bytes` is deterministic
    without serialising (vector payloads dominate the byte count).
    """

    kind: MessageKind
    source: str
    destination: str
    payload: dict[str, Any] = field(default_factory=dict)
    payload_values: int = 1
    timestamp: float = 0.0
    message_id: int = field(default_factory=lambda: next(_sequence))
    # Sim time the message reached its destination inbox.  Stamped by a
    # clock-driven bus (latency_mode="link"); stays None on the
    # synchronous zero-latency path where send time == arrival time.
    arrived_at: float | None = None

    def __post_init__(self) -> None:
        if not self.source or not self.destination:
            raise ValueError("messages need a source and destination")
        if self.payload_values < 0:
            raise ValueError("payload_values must be non-negative")

    @property
    def size_bytes(self) -> int:
        """Wire size estimate: header + 8 bytes per scalar payload value."""
        return HEADER_BYTES + VALUE_BYTES * self.payload_values

    def reply(
        self,
        kind: MessageKind,
        payload: dict[str, Any],
        payload_values: int = 1,
        timestamp: float | None = None,
    ) -> "Message":
        """Build the response message (destination/source swapped)."""
        return Message(
            kind=kind,
            source=self.destination,
            destination=self.source,
            payload=payload,
            payload_values=payload_values,
            timestamp=self.timestamp if timestamp is None else timestamp,
        )
