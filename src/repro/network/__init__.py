"""Network substrate: messages, the metered message bus (on a sim
clock, or a wall clock behind the ingestion gateway), fault injection,
link models, zone report frames and network selection."""

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
from .links import (
    BLUETOOTH,
    GSM,
    LINKS_BY_NAME,
    LOOPBACK,
    LTE,
    WIFI,
    LinkModel,
)
from .message import Message, MessageKind
from .frames import ZoneReportFrame, decode_zone_report, encode_zone_report
from .selector import NetworkSelector, SelectionPolicy, SelectionResult

__all__ = [
    "Endpoint",
    "MessageBus",
    "TrafficStats",
    "ZoneReportFrame",
    "decode_zone_report",
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
    "LOOPBACK",
    "LTE",
    "WIFI",
    "LinkModel",
    "NetworkSelector",
    "SelectionPolicy",
    "SelectionResult",
    "Message",
    "MessageKind",
]
