"""Radio link models: WiFi, Bluetooth, GSM/cellular, LTE.

The paper's NanoCloud "supports bidirectional data flow between the nodes
and the broker using multiple networks like WiFi, GSM, bluetooth etc.".
Offline, a link is characterised by bandwidth, base latency, per-message
energy (radio wake + protocol handshake) and per-byte energy.  Numbers
are order-of-magnitude calibrations from the mobile-systems literature of
the paper's era (e.g. WiFi transfers cost roughly 5 uJ/byte plus a few mJ
of wake-up; cellular radio wake is far more expensive due to RRC state
promotions).  Absolute joules do not matter for the benches — the
*ratios* between message-heavy and message-light protocols do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .message import Message

__all__ = [
    "LinkModel",
    "WIFI",
    "BLUETOOTH",
    "GSM",
    "LTE",
    "LOOPBACK",
    "LINKS_BY_NAME",
]


@dataclass(frozen=True)
class LinkModel:
    """Energy/latency model of one radio technology."""

    name: str
    bandwidth_bps: float
    base_latency_s: float
    energy_per_message_mj: float
    energy_per_byte_uj: float
    range_m: float

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.base_latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.energy_per_message_mj < 0 or self.energy_per_byte_uj < 0:
            raise ValueError("energy coefficients must be non-negative")
        if self.range_m <= 0:
            raise ValueError("range must be positive")

    def transfer_latency_s(self, message: Message) -> float:
        """End-to-end latency: base propagation/queueing + serialisation."""
        return self.base_latency_s + message.size_bytes * 8.0 / self.bandwidth_bps

    def transfer_energy_mj(self, message: Message) -> float:
        """Transmit-side energy for one message in millijoules."""
        return (
            self.energy_per_message_mj
            + self.energy_per_byte_uj * message.size_bytes / 1000.0
        )

    def receive_energy_mj(self, message: Message) -> float:
        """Receive-side energy; modelled at 60% of transmit cost."""
        return 0.6 * self.transfer_energy_mj(message)


WIFI = LinkModel(
    name="wifi",
    bandwidth_bps=20e6,
    base_latency_s=0.005,
    energy_per_message_mj=3.0,
    energy_per_byte_uj=5.0,
    range_m=100.0,
)

BLUETOOTH = LinkModel(
    name="bluetooth",
    bandwidth_bps=1e6,
    base_latency_s=0.02,
    energy_per_message_mj=0.5,
    energy_per_byte_uj=1.0,
    range_m=20.0,
)

GSM = LinkModel(
    name="gsm",
    bandwidth_bps=100e3,
    base_latency_s=0.3,
    energy_per_message_mj=120.0,
    energy_per_byte_uj=40.0,
    range_m=5000.0,
)

LTE = LinkModel(
    name="lte",
    bandwidth_bps=10e6,
    base_latency_s=0.05,
    energy_per_message_mj=50.0,
    energy_per_byte_uj=10.0,
    range_m=2000.0,
)

#: Link model for co-located processes (the ingestion gateway's bus):
#: gigabit-class serialisation and sub-millisecond base latency, no
#: radio energy.  Metering still runs (messages and bytes are counted);
#: the energy columns simply stay 0, which is the truthful figure for a
#: wired loopback hop.  Not in :data:`LINKS_BY_NAME`: no node radio
#: picks it.
LOOPBACK = LinkModel(
    name="loopback",
    bandwidth_bps=1e9,
    base_latency_s=0.0005,
    energy_per_message_mj=0.0,
    energy_per_byte_uj=0.0,
    range_m=1.0,
)

LINKS_BY_NAME: dict[str, LinkModel] = {
    link.name: link for link in (WIFI, BLUETOOTH, GSM, LTE)
}
