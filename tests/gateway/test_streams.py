"""Fuzz of the device-frame boundary: parsed JSON into a GatewayNode.

Whatever JSON object :func:`repro.gateway.streams.parse_device_frame`
returns — ``NaN``/``Infinity`` literals, strings, nulls, nesting,
missing keys — :meth:`GatewayNode.handle_device_frame` must take it
without raising, and the node's cached reading and position must stay
finite, because the round driver and ``/zones/latest`` read both.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.streams import STREAM_MODES, GatewayNode, parse_device_frame
from repro.network.bus import MessageBus
from repro.network.message import Message, MessageKind
from repro.sensors.base import NodeState

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**320)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FRAMES = st.fixed_dictionaries(
    {},
    optional={
        "type": st.sampled_from(["reading", "move", "refuse"]) | _VALUES,
        "value": _VALUES,
        "noise_std": _VALUES,
        "x": _VALUES,
        "y": _VALUES,
    },
)


def _command(node_id: str) -> Message:
    return Message(
        kind=MessageKind.SENSE_COMMAND,
        source="broker",
        destination=node_id,
        payload={"sensor": "temperature", "grid_index": 0},
    )


@settings(max_examples=300, deadline=None)
@given(
    frames=st.lists(_FRAMES, min_size=1, max_size=6),
    mode=st.sampled_from(STREAM_MODES),
)
def test_any_parsed_frame_leaves_the_node_finite(frames, mode):
    bus = MessageBus()
    bus.register("broker")
    bus.register("dev")
    node = GatewayNode(
        "dev",
        "temperature",
        send_json=lambda payload: None,
        now_fn=lambda: 0.0,
        mode=mode,
        state=NodeState(x=1.0, y=2.0),
    )
    for frame in frames:
        node.pending_command = _command("dev") if mode == "poll" else None
        data = parse_device_frame(json.dumps(frame))
        assert data is not None
        assert isinstance(node.handle_device_frame(data, bus), bool)
        assert math.isfinite(node.state.x) and math.isfinite(node.state.y)
        if node.latest is not None:
            assert math.isfinite(node.latest.value)
            assert math.isfinite(node.latest.noise_std)
            assert node.latest.noise_std >= 0.0
    for message in bus.endpoint("broker").drain():
        for key in ("value", "noise_std"):
            if key in message.payload:
                assert math.isfinite(message.payload[key])
