"""NanoCloud assembly: a broker plus its member mobile nodes.

"The NCs consists of mobile nodes connected to a central head or a
broker" (Section 3).  This module wires the pieces: it places nodes on
the cells of a zone, registers everything on the bus, and drives
aggregation rounds.  The zone may be a sub-rectangle of a larger
LocalCloud zone; ``origin`` carries the offset so node states live in
*global* environment coordinates while the broker's grid indices stay
zone-local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..analysis import contracts
from ..energy.model import Battery
from ..network.bus import MessageBus
from ..network.links import BLUETOOTH, LTE, WIFI, LinkModel
from ..network.message import Message, MessageKind
from ..network.selector import NetworkSelector
from ..sensors.base import Environment, NodeState, Sensor
from ..sensors.noise import STANDARD_TIERS, draw_tiers
from ..sensors.physical import (
    AccelerometerSensor,
    GPSSensor,
    TemperatureSensor,
    WiFiSensor,
)
from .broker import Broker, ZoneEstimate
from .config import BrokerConfig
from .node import MobileNode

__all__ = ["MemberTable", "NanoCloud", "default_node_sensors"]


def default_node_sensors(
    sensor_name: str, rng: np.random.Generator
) -> dict[str, Sensor]:
    """The default phone loadout: the aggregated sensor plus the
    accelerometer/GPS/WiFi used by context probes."""
    sensors: dict[str, Sensor] = {
        "accelerometer": AccelerometerSensor(rng=rng.integers(2**31)),
        "gps": GPSSensor(rng=rng.integers(2**31)),
        "wifi": WiFiSensor(rng=rng.integers(2**31)),
    }
    if sensor_name == "temperature":
        sensors["temperature"] = TemperatureSensor(rng=rng.integers(2**31))
    elif sensor_name not in sensors:
        # Generic field sensor: reuse the temperature model pointed at
        # the requested environment field.
        class _FieldSensor(TemperatureSensor):
            def _true_value(self, env: Environment, state: NodeState, t: float) -> float:
                return env.field_value(sensor_name, state.x, state.y)

        generic = _FieldSensor(rng=rng.integers(2**31))
        generic.spec = type(generic.spec)(
            name=sensor_name,
            unit=generic.spec.unit,
            noise_std=generic.spec.noise_std,
            bias=generic.spec.bias,
            resolution=generic.spec.resolution,
            energy_per_sample_mj=generic.spec.energy_per_sample_mj,
            max_rate_hz=generic.spec.max_rate_hz,
        )
        sensors[sensor_name] = generic
    return sensors


class MemberTable(dict[str, MobileNode]):
    """A NanoCloud's members (node id -> node) and their energy subtotal.

    :meth:`energy_mj` caches the sum of the member ledgers' totals, in
    table order.  The cache is dropped by every write to the table and,
    through each member ledger's ``on_change`` hook, by every post to or
    merge into a member's ledger.  Recomputing hooks every member, so a
    cached subtotal always has all of them hooked; a node belongs to one
    table at a time (a ledger has one hook).  Under ``REPRO_SANITIZE=1``
    every cached read is checked bit-for-bit against a fresh sum.
    """

    __slots__ = ("_energy_mj",)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._energy_mj: float | None = None

    def invalidate(self) -> None:
        """Drop the cached subtotal (a member's total moved)."""
        self._energy_mj = None

    def _fresh_energy_mj(self) -> float:
        return sum(node.ledger.total_mj() for node in self.values())

    def energy_mj(self) -> float:
        """Sum of the member ledgers' totals, recomputed only when stale."""
        cached = self._energy_mj
        if cached is None:
            hook = self.invalidate
            for node in self.values():
                node.ledger.on_change = hook
            cached = self._energy_mj = self._fresh_energy_mj()
        elif contracts.enabled():
            fresh = self._fresh_energy_mj()
            if float(fresh).hex() != float(cached).hex():
                raise contracts.ContractViolation(
                    f"NanoCloud energy subtotal: cached {cached!r} != "
                    f"fresh sum {fresh!r}; a member ledger moved without "
                    "invalidating its table"
                )
        return cached

    # Every dict mutator drops the cache.
    def __setitem__(self, key: str, node: MobileNode) -> None:
        self._energy_mj = None
        super().__setitem__(key, node)

    def __delitem__(self, key: str) -> None:
        self._energy_mj = None
        super().__delitem__(key)

    def __ior__(self, other: Any) -> "MemberTable":
        self._energy_mj = None
        return super().__ior__(other)

    def pop(self, *args: Any) -> Any:
        self._energy_mj = None
        return super().pop(*args)

    def popitem(self) -> tuple[str, MobileNode]:
        self._energy_mj = None
        return super().popitem()

    def setdefault(self, key: str, default: Any = None) -> Any:
        self._energy_mj = None
        return super().setdefault(key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._energy_mj = None
        super().update(*args, **kwargs)

    def clear(self) -> None:
        self._energy_mj = None
        super().clear()


@dataclass
class NanoCloud:
    """One NanoCloud: broker + nodes, wired to a bus.

    ``nodes`` is always a :class:`MemberTable`; assigning a plain dict
    wraps it.
    """

    broker: Broker
    nodes: MemberTable
    bus: MessageBus
    origin: tuple[int, int] = (0, 0)
    selector: NetworkSelector | None = None
    cell_size_m: float = 10.0

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "nodes" and not isinstance(value, MemberTable):
            value = MemberTable(value)
        super().__setattr__(name, value)

    def broker_position(self) -> tuple[float, float]:
        """The broker sits at the zone centre (global coordinates)."""
        ox, oy = self.origin
        return (
            ox + (self.broker.zone_width - 1) / 2.0,
            oy + (self.broker.zone_height - 1) / 2.0,
        )

    def refresh_links(self) -> dict[str, str]:
        """Re-select each node's radio for its current distance/battery.

        Section 5's network heterogeneity: near the broker a node uses
        Bluetooth, mid-range WiFi, and beyond WiFi range it falls back to
        cellular.  Returns the chosen link name per node.  Requires a
        :class:`NetworkSelector` (set ``auto_link=True`` at build time).
        """
        if self.selector is None:
            raise RuntimeError(
                "link selection needs a NetworkSelector "
                "(build with auto_link=True)"
            )
        bx, by = self.broker_position()
        reference = Message(
            kind=MessageKind.SENSE_REPORT,
            source="probe",
            destination="probe",
            payload_values=2,
        )
        chosen: dict[str, str] = {}
        max_distance = 1.0
        for node_id, node in self.nodes.items():
            distance = self.cell_size_m * float(
                np.hypot(node.state.x - bx, node.state.y - by)
            )
            max_distance = max(max_distance, distance)
            battery = (
                node.ledger.battery.level
                if node.ledger.battery is not None
                else 1.0
            )
            result = self.selector.select(
                reference,
                [BLUETOOTH, WIFI, LTE],
                battery_level=battery,
                distance_m=max(distance, 1.0),
            )
            self.bus.endpoint(node_id).link = result.link
            chosen[node_id] = result.link.name
        # The broker is a phone too: its radio must reach the farthest
        # member, but no farther — a dense NC's broker also drops to BT.
        broker_link = self.selector.select(
            reference,
            [BLUETOOTH, WIFI, LTE],
            distance_m=max_distance,
        ).link
        self.bus.endpoint(self.broker.broker_id).link = broker_link
        return chosen

    @classmethod
    def build(
        cls,
        nc_id: str,
        bus: MessageBus,
        zone_width: int,
        zone_height: int,
        n_nodes: int,
        *,
        sensor_name: str = "temperature",
        origin: tuple[int, int] = (0, 0),
        config: BrokerConfig | None = None,
        criticality: np.ndarray | None = None,
        node_link: LinkModel = WIFI,
        auto_link: bool = False,
        cell_size_m: float = 10.0,
        heterogeneous: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> "NanoCloud":
        """Construct a NanoCloud with ``n_nodes`` phones scattered
        uniformly over distinct cells of the zone.

        Nodes get quality tiers drawn from the standard handset mix when
        ``heterogeneous`` (the eq.-12 regime); otherwise all midrange.
        """
        n = zone_width * zone_height
        if n_nodes < 1:
            raise ValueError("a NanoCloud needs at least one node")
        gen = np.random.default_rng(rng)
        broker = Broker(
            broker_id=f"{nc_id}/broker",
            zone_width=zone_width,
            zone_height=zone_height,
            sensor_name=sensor_name,
            config=config,
            criticality=criticality,
            rng=gen.integers(2**31),
        )
        bus.register(broker.broker_id)
        # Up to n nodes occupy distinct cells; a denser crowd shares
        # cells (several phones in one grid cell is the normal case in a
        # real deployment — the broker only needs one report per cell).
        if n_nodes <= n:
            cells = gen.choice(n, size=n_nodes, replace=False)
        else:
            cells = np.concatenate(
                [
                    np.arange(n),
                    gen.choice(n, size=n_nodes - n, replace=True),
                ]
            )
            gen.shuffle(cells)
        tiers = (
            draw_tiers(n_nodes, STANDARD_TIERS, gen)
            if heterogeneous
            else [STANDARD_TIERS[1]] * n_nodes
        )
        nodes = MemberTable()
        ox, oy = origin
        for idx, (cell, tier) in enumerate(zip(cells.tolist(), tiers)):
            node_id = f"{nc_id}/node{idx}"
            i_local, j_local = cell // zone_height, cell % zone_height
            state = NodeState(x=float(ox + i_local), y=float(oy + j_local))
            node = MobileNode(
                node_id,
                sensors=default_node_sensors(sensor_name, gen),
                tier=tier,
                state=state,
                # Every phone carries a battery so energy posts drain a
                # real budget; initial charge varies across the crowd.
                battery=Battery(
                    capacity_mj=27e6,
                    drained_mj=float(gen.uniform(0.0, 13.5e6)),
                ),
                rng=gen.integers(2**31),
            )
            nodes[node_id] = node
            bus.register(node_id, node_link)
            broker.join(node_id, cell)
        nanocloud = cls(
            broker=broker,
            nodes=nodes,
            bus=bus,
            origin=origin,
            selector=NetworkSelector() if auto_link else None,
            cell_size_m=cell_size_m,
        )
        if auto_link:
            nanocloud.refresh_links()
        return nanocloud

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def refresh_membership(self) -> None:
        """Re-map each node's *current* position to its zone grid cell.

        Mobile nodes drift; before each round the broker must know which
        cell each member currently covers (nodes that wandered outside
        the zone are clamped to the nearest edge cell — they still hold a
        reading representative of the boundary).
        """
        zb = self.broker
        ox, oy = self.origin
        for node_id, node in self.nodes.items():
            i = min(max(round(node.state.x - ox), 0), zb.zone_width - 1)
            j = min(max(round(node.state.y - oy), 0), zb.zone_height - 1)
            zb.members[node_id] = i * zb.zone_height + j

    # -- broker failover ----------------------------------------------

    def heartbeat(self, timestamp: float = 0.0) -> bool:
        """Probe broker liveness against the bus's crash schedule.

        Returns True when the broker is (still) alive.  When the broker
        is crash-scheduled down at ``timestamp``, the NanoCloud fails
        over on the spot — the healthiest live member is promoted to
        acting broker — and the heartbeat reports False so callers can
        log the transition.  Without a fault injector there is nothing
        to probe and the broker is assumed alive.
        """
        injector = self.bus.fault_injector
        if injector is None or not injector.is_down(
            self.broker.broker_id, timestamp
        ):
            return True
        self.promote_broker(timestamp)
        return False

    def promote_broker(self, timestamp: float = 0.0) -> str:
        """Promote the healthiest live member to acting broker.

        Health order: fullest battery first, node id as the
        deterministic tie-break.  The acting broker inherits the zone
        geometry and config, the membership table, the infrastructure
        sensors, the learned prior, the sparsity adaptation state and
        the reconstruction history — rounds continue as if nothing
        happened, minus the promoted phone's own cell coverage.
        Returns the new broker id.
        """
        injector = self.bus.fault_injector
        candidates = [
            node_id
            for node_id in self.nodes
            if injector is None
            or not injector.is_down(node_id, timestamp)
        ]
        if not candidates:
            raise RuntimeError(
                f"NanoCloud of {self.broker.broker_id} has no live "
                "member to promote"
            )

        def health(node_id: str) -> tuple[float, str]:
            battery = self.nodes[node_id].ledger.battery
            level = battery.level if battery is not None else 1.0
            return (-level, node_id)

        new_id = min(candidates, key=health)
        old = self.broker
        self.nodes.pop(new_id)  # the phone stops sensing; it coordinates
        acting = Broker(
            broker_id=new_id,
            zone_width=old.zone_width,
            zone_height=old.zone_height,
            sensor_name=old.sensor_name,
            config=old.config,
            criticality=old.criticality,
        )
        acting.members = {
            node_id: cell
            for node_id, cell in old.members.items()
            if node_id != new_id
        }
        acting.infrastructure = dict(old.infrastructure)
        acting.last_sparsity = old.last_sparsity
        acting._history = list(old._history)
        acting._rounds_run = old._rounds_run
        # Trust is zone knowledge, not broker property: the acting
        # broker inherits the rejection history and quarantine roster
        # (minus its own record — it no longer reports).
        acting.trust = old.trust
        acting.trust.forget(new_id)
        # Overload state is zone knowledge too: the promoted broker
        # resumes mid-degradation (same breaker state, same ladder
        # level) instead of resetting to full-fidelity solves the zone
        # has no budget for.
        acting.overload = old.overload
        # Hand over the sampling stream so the promoted broker's plans
        # continue the deployment's reproducible draw sequence.
        acting._rng = old._rng
        if old.prior is not None:
            acting.set_prior(old.prior)
        self.bus.register(new_id)  # idempotent: it was a node endpoint
        self.broker = acting
        return new_id

    def prepare_round(self, timestamp: float = 0.0) -> Broker:
        """Pre-round housekeeping shared by every round discipline.

        Heartbeat first (a crash-scheduled broker is replaced by an
        acting broker before any command goes out, so churn at the
        coordinator never aborts sensing), then re-map membership to the
        nodes' current positions.  Returns the — possibly freshly
        promoted — broker the round should command through.
        """
        self.heartbeat(timestamp)
        self.refresh_membership()
        return self.broker

    def run_round(
        self,
        env: Environment,
        timestamp: float = 0.0,
        measurements: int | None = None,
        sparsity_cap: int | None = None,
    ) -> ZoneEstimate:
        """One compressive aggregation round over this NanoCloud."""
        broker = self.prepare_round(timestamp)
        return broker.run_round(
            self.bus, self.nodes, env, timestamp,
            measurements=measurements, sparsity_cap=sparsity_cap,
        )

    def collect_round(
        self,
        env: Environment,
        timestamp: float = 0.0,
        measurements: int | None = None,
        sparsity_cap: int | None = None,
    ):
        """Collection phase only (heartbeat + membership + commanding).

        Used by the LocalCloud/hierarchy layers to gather every zone's
        measurements before any zone is solved and finalized.  Returns
        the broker's frozen pending-round record, the whole input of
        :func:`repro.middleware.broker.solve_pending`.
        """
        broker = self.prepare_round(timestamp)
        return broker.collect_round(
            self.bus, self.nodes, env, timestamp,
            measurements=measurements, sparsity_cap=sparsity_cap,
        )

    def total_node_energy_mj(self) -> float:
        """Sensing+CPU energy drawn from the member phones so far."""
        return self.nodes.energy_mj()
