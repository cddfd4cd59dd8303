"""Network substrate: messages, pluggable transports (in-process sim
bus and real asyncio sockets), fault injection, link models and
network selection."""

from .asyncio_transport import LOOPBACK, AsyncioTransport, TransportClient
from .bus import Endpoint, MessageBus, TrafficStats
from .faults import (
    CrashSchedule,
    DegradationWindow,
    DeliveryVerdict,
    FaultInjector,
    GilbertElliottLoss,
    IIDLoss,
    Partition,
)
from .links import BLUETOOTH, GSM, LINKS_BY_NAME, LTE, WIFI, LinkModel
from .message import Message, MessageKind
from .frames import (
    WireDecoder,
    ZoneReportFrame,
    decode_wire_body,
    decode_zone_report,
    encode_wire,
    encode_zone_report,
)
from .selector import NetworkSelector, SelectionPolicy, SelectionResult
from .transport import Transport

__all__ = [
    "Endpoint",
    "MessageBus",
    "TrafficStats",
    "Transport",
    "AsyncioTransport",
    "TransportClient",
    "LOOPBACK",
    "WireDecoder",
    "ZoneReportFrame",
    "decode_wire_body",
    "decode_zone_report",
    "encode_wire",
    "encode_zone_report",
    "CrashSchedule",
    "DegradationWindow",
    "DeliveryVerdict",
    "FaultInjector",
    "GilbertElliottLoss",
    "IIDLoss",
    "Partition",
    "BLUETOOTH",
    "GSM",
    "LINKS_BY_NAME",
    "LTE",
    "WIFI",
    "LinkModel",
    "NetworkSelector",
    "SelectionPolicy",
    "SelectionResult",
    "Message",
    "MessageKind",
]
