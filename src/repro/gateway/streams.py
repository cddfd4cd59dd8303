"""Gateway-side device representation: a MobileNode fed by a socket.

A connected device is represented inside the NanoCloud by a
:class:`GatewayNode` — a :class:`repro.middleware.node.MobileNode`
whose ``handle_command`` override answers broker SENSE_COMMANDs from
the device's *pushed* readings (stream mode) or by forwarding the
command over the socket and replying when the device reports back (poll
mode).  The round driver calls ``handle_command(message, env, bus)``
exactly as it does for simulated nodes, so the driver itself runs
unmodified: the only thing that changed is where the reading comes
from.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from ..network.bus import MessageBus
from ..network.message import Message, MessageKind
from ..sensors.base import Environment, NodeState
from ..middleware.node import MobileNode

__all__ = ["DeviceReading", "GatewayNode", "STREAM_MODES"]

#: ``stream``: the device pushes readings at its own cadence and the
#: node answers commands from the freshest cached one.  ``poll``: the
#: node forwards each command to the device and replies only when the
#: device reports — full round-trip latency, honest but slower.
STREAM_MODES = ("stream", "poll")

#: Stream mode: a cached reading older than this is refused
#: (``ok=False``) so the broker rotates to a live candidate rather than
#: solving on dead data.
MAX_STALENESS_S = 5.0


@dataclass
class DeviceReading:
    """The most recent measurement a device pushed up its stream."""

    value: float
    noise_std: float
    at: float  # gateway wall-clock seconds (WallClock.now)


class GatewayNode(MobileNode):
    """A live device's stand-in inside the NanoCloud.

    Parameters
    ----------
    node_id / sensor_name:
        Bus address and the field this device measures.
    send_json:
        Byte-free uplink to the device: called with a JSON-serialisable
        dict, the gateway wraps it in a WebSocket text frame.
    now_fn:
        The gateway's clock (``WallClock.now``) for staleness checks.
    mode:
        One of :data:`STREAM_MODES`.
    """

    def __init__(
        self,
        node_id: str,
        sensor_name: str,
        *,
        send_json: Callable[[dict], None],
        now_fn: Callable[[], float],
        mode: str = "stream",
        state: NodeState | None = None,
    ) -> None:
        if mode not in STREAM_MODES:
            raise ValueError(f"unknown stream mode {mode!r}")
        super().__init__(node_id, sensors={}, state=state)
        self.sensor_name = sensor_name
        self.send_json = send_json
        self.now_fn = now_fn
        self.mode = mode
        self.latest: DeviceReading | None = None
        self.pending_command: Message | None = None
        self.readings_received = 0
        self.commands_answered = 0
        self.commands_refused = 0
        self.detached = False
        self.frames_dropped_detached = 0

    # -- session parking (resume support) ------------------------------

    def detach(self) -> None:
        """Disconnect the uplink while the session is parked for resume.

        The node stays a full NanoCloud member — in stream mode it keeps
        answering SENSE_COMMANDs from its cached reading until that goes
        stale — but frames bound for the device are counted and dropped
        instead of written to a dead socket.
        """
        self.detached = True
        original = self.send_json

        def sink(payload: dict) -> None:
            self.frames_dropped_detached += 1

        sink.__wrapped__ = original  # type: ignore[attr-defined]
        self.send_json = sink

    def attach(self, send_json: Callable[[dict], None]) -> None:
        """Reconnect the uplink after a successful resume."""
        self.detached = False
        self.send_json = send_json

    # -- socket -> node ------------------------------------------------

    def handle_device_frame(self, data: dict, bus: MessageBus) -> bool:
        """Process one decoded JSON frame from the device.

        Returns ``False`` when the frame is dropped as malformed: a
        reading or a move whose numbers are missing, not JSON numbers or
        not finite, or a reading with a negative ``noise_std``.
        """
        kind = data.get("type")
        if kind == "reading":
            value = _finite(data.get("value"))
            noise_std = _finite(data.get("noise_std", 0.0))
            if value is None or noise_std is None or noise_std < 0.0:
                return False
            self.latest = DeviceReading(
                value=value, noise_std=noise_std, at=self.now_fn()
            )
            self.readings_received += 1
            if self.mode == "poll" and self.pending_command is not None:
                command, self.pending_command = self.pending_command, None
                self._reply(command, self.latest, bus)
        elif kind == "move":
            x, y = _finite(data.get("x")), _finite(data.get("y"))
            if x is None or y is None:
                return False
            self.state.x, self.state.y = x, y
        elif kind == "refuse" and self.pending_command is not None:
            command, self.pending_command = self.pending_command, None
            self._refuse(command, bus)
        return True

    # -- broker -> node (the round driver's hook) ----------------------

    def handle_command(
        self, command: Message, env: Environment, bus: MessageBus
    ) -> Message | None:
        """Answer a SENSE_COMMAND from the live stream (or forward it)."""
        if command.kind is not MessageKind.SENSE_COMMAND:
            raise ValueError(f"not a sense command: {command.kind}")
        sensor_name = command.payload["sensor"]
        self.send_json(
            {
                "type": "command",
                "sensor": sensor_name,
                "grid_index": command.payload.get("grid_index"),
            }
        )
        if sensor_name != self.sensor_name:
            return self._refuse(command, bus)
        if self.mode == "poll":
            # Reply deferred until the device reports (or the broker's
            # per-command timeout rotates to another candidate).
            self.pending_command = command
            return None
        reading = self.latest
        if (
            reading is None
            or self.now_fn() - reading.at > MAX_STALENESS_S
        ):
            return self._refuse(command, bus)
        return self._reply(command, reading, bus)

    def _reply(
        self, command: Message, reading: DeviceReading, bus: MessageBus
    ) -> Message:
        self.audit.record(self.sensor_name, was_shared=True)
        self.commands_answered += 1
        reply = command.reply(
            MessageKind.SENSE_REPORT,
            {
                "ok": True,
                "sensor": self.sensor_name,
                "value": reading.value,
                "noise_std": reading.noise_std,
                "grid_index": command.payload.get("grid_index"),
            },
            payload_values=2,
        )
        bus.send(reply, strict=False)
        return reply

    def _refuse(self, command: Message, bus: MessageBus) -> Message:
        self.audit.record(self.sensor_name, was_shared=False)
        self.commands_refused += 1
        reply = command.reply(
            MessageKind.SENSE_REPORT,
            {"ok": False, "sensor": command.payload["sensor"]},
            payload_values=1,
        )
        bus.send(reply, strict=False)
        return reply

    def snapshot(self) -> dict[str, object]:
        """Per-device telemetry for the gateway's /stats endpoint."""
        return {
            "node_id": self.node_id,
            "mode": self.mode,
            "readings": self.readings_received,
            "answered": self.commands_answered,
            "refused": self.commands_refused,
            "position": [self.state.x, self.state.y],
        }


def parse_device_frame(raw: bytes | str) -> dict | None:
    """Decode one device text frame; ``None`` when it isn't clean JSON.

    ``ValueError`` covers bad JSON, bad UTF-8 and integer literals past
    the interpreter's digit limit; ``RecursionError`` covers nesting too
    deep to decode.
    """
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError):
        return None
    return data if isinstance(data, dict) else None


# Exact types: ``bool`` subclasses ``int``, and a JSON number is only
# ever decoded as one of these two.
_NUMBER_TYPES = (int, float)


def _finite(value: object) -> float | None:
    """``value`` as a float if it is a finite JSON number, else ``None``.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; neither is a reading.
    """
    if type(value) not in _NUMBER_TYPES:
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal past float range
        return None
    return number if math.isfinite(number) else None
