"""The mobile node: SenseDroid's thin client (Fig. 2, left box).

A :class:`MobileNode` owns its sensors, privacy policy, battery/energy
ledger and kinematic state.  It answers broker SENSE_COMMANDs with
SENSE_REPORTs (subject to privacy), runs *on-node* temporal compressive
context inference (the Fig. 4 IsDriving pipeline — "the algorithm ... is
also used by the nodes for context processing"), and shares resulting
contexts with the broker when allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..context.isdriving import DrivingDetection, detect_is_driving
from ..energy.accounting import EnergyLedger
from ..energy.model import DEFAULT_CPU, Battery, CpuModel
from ..network.bus import MessageBus
from ..network.message import Message, MessageKind
from ..sensors.base import Environment, NodeState, Sensor, SensorReading
from ..sensors.noise import QualityTier
from ..sensors.physical import accelerometer_window
from .config import NodeConfig
from .privacy import PrivacyAudit, PrivacyPolicy

__all__ = ["MobileNode"]


@dataclass
class SharedContext:
    """A context the node decided to share upward."""

    kind: str
    value: str | float
    timestamp: float
    detection: DrivingDetection | None = None


class MobileNode:
    """One participant phone in a NanoCloud.

    Parameters
    ----------
    node_id:
        Bus address of this node.
    sensors:
        Sensors on (or attached to) the phone, keyed by sensor name.
    tier:
        Handset quality tier; scales each sensor's noise and is what the
        broker's GLS covariance is built from.
    state / policy / config:
        Kinematic state, privacy policy and node configuration; all
        default to sensible values.
    """

    def __init__(
        self,
        node_id: str,
        sensors: dict[str, Sensor] | None = None,
        *,
        tier: QualityTier | None = None,
        state: NodeState | None = None,
        policy: PrivacyPolicy | None = None,
        config: NodeConfig | None = None,
        cpu: CpuModel = DEFAULT_CPU,
        battery: Battery | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.node_id = node_id
        self.sensors: dict[str, Sensor] = dict(sensors or {})
        self.tier = tier
        self.state = state or NodeState()
        self.policy = policy or PrivacyPolicy()
        self.config = config or NodeConfig()
        self.cpu = cpu
        self.ledger = EnergyLedger(node_id=node_id, battery=battery)
        self.audit = PrivacyAudit()
        self.shared_contexts: list[SharedContext] = []
        self._rng = np.random.default_rng(rng)
        # Optional data-fault process (repro.sensors.faults): when set,
        # every reading this node produces is run through its fault
        # models *after* the honest noise machinery — the node itself
        # does not know its sensor lies.
        self.fault_injector = None

    # -- sensing -------------------------------------------------------

    def effective_noise_std(self, sensor_name: str) -> float:
        """Noise std after applying the handset tier multiplier."""
        sensor = self.sensors[sensor_name]
        multiplier = self.tier.noise_multiplier if self.tier else 1.0
        return sensor.spec.noise_std * multiplier

    def read_sensor(
        self, name: str, env: Environment, timestamp: float
    ) -> SensorReading:
        """Take one local measurement and account its energy.

        Tier-degraded handsets get extra noise injected on top of the
        sensor's base model.
        """
        try:
            sensor = self.sensors[name]
        except KeyError:
            raise KeyError(
                f"node {self.node_id} has no {name!r} sensor; "
                f"available: {sorted(self.sensors)}"
            ) from None
        reading = sensor.read(env, self.state, timestamp)
        self.ledger.post("sensing", sensor.spec.energy_per_sample_mj)
        if self.tier and self.tier.noise_multiplier > 1.0:
            extra_std = sensor.spec.noise_std * np.sqrt(
                self.tier.noise_multiplier**2 - 1.0
            )
            reading = SensorReading(
                sensor=reading.sensor,
                timestamp=reading.timestamp,
                value=reading.value
                + float(self._rng.standard_normal()) * extra_std,
                unit=reading.unit,
                node_id=self.node_id,
                noise_std=self.effective_noise_std(name),
            )
        else:
            reading = SensorReading(
                sensor=reading.sensor,
                timestamp=reading.timestamp,
                value=reading.value,
                unit=reading.unit,
                node_id=self.node_id,
                noise_std=self.effective_noise_std(name),
            )
        if self.fault_injector is not None:
            now = self.fault_injector.now_or(timestamp)
            value, noise_std = self.fault_injector.corrupt(
                self.node_id, reading.value, reading.noise_std, now
            )
            if value != reading.value or noise_std != reading.noise_std:
                reading = SensorReading(
                    sensor=reading.sensor,
                    timestamp=reading.timestamp,
                    value=value,
                    unit=reading.unit,
                    node_id=self.node_id,
                    noise_std=noise_std,
                )
        return reading

    # -- broker protocol -------------------------------------------------

    def handle_command(
        self, command: Message, env: Environment, bus: MessageBus
    ) -> Message | None:
        """Answer one SENSE_COMMAND with a SENSE_REPORT (or refuse).

        A privacy-forbidden or missing sensor yields a refusal report
        with ``ok=False`` so the broker can reassign the measurement —
        and the refusal is logged in the transparency audit.
        """
        if command.kind is not MessageKind.SENSE_COMMAND:
            raise ValueError(f"not a sense command: {command.kind}")
        sensor_name = command.payload["sensor"]
        timestamp = command.timestamp
        if not self.policy.may_share(sensor_name) or sensor_name not in self.sensors:
            self.audit.record(sensor_name, was_shared=False)
            reply = command.reply(
                MessageKind.SENSE_REPORT,
                {"ok": False, "sensor": sensor_name},
                payload_values=1,
            )
            bus.send(reply)
            return reply
        reading = self.read_sensor(sensor_name, env, timestamp)
        filtered = self.policy.filter_reading(reading)
        if filtered is None:  # policy changed between checks; stay safe
            self.audit.record(sensor_name, was_shared=False)
            reply = command.reply(
                MessageKind.SENSE_REPORT,
                {"ok": False, "sensor": sensor_name},
                payload_values=1,
            )
            bus.send(reply)
            return reply
        self.audit.record(sensor_name, was_shared=True)
        reply = command.reply(
            MessageKind.SENSE_REPORT,
            {
                "ok": True,
                "sensor": sensor_name,
                "value": filtered.value,
                "noise_std": filtered.noise_std,
                "grid_index": command.payload.get("grid_index"),
            },
            payload_values=2,
        )
        bus.send(reply)
        return reply

    # -- on-node compressive context processing --------------------------

    def sense_activity_context(
        self,
        timestamp: float,
        *,
        window: np.ndarray | None = None,
        compressive: bool = True,
    ) -> DrivingDetection:
        """Run the Fig. 4 pipeline on the node's current motion.

        Captures an accelerometer window for the node's ground-truth mode
        (or uses a supplied one), samples it compressively per the node
        config, reconstructs on-device (CPU energy accounted), and
        classifies.
        """
        cfg = self.config
        n = cfg.context_window
        if window is None:
            window = accelerometer_window(
                self.state.mode, n, cfg.context_rate_hz,
                rng=self._rng.integers(2**31),
            )
        window = np.asarray(window, dtype=float).ravel()
        if window.size != n:
            raise ValueError(
                f"window length {window.size} != configured {n}"
            )
        accel_cost = (
            self.sensors["accelerometer"].spec.energy_per_sample_mj
            if "accelerometer" in self.sensors
            else 0.01
        )
        if compressive:
            m = max(int(np.ceil(cfg.temporal_duty_cycle * n)), 8)
            detection = detect_is_driving(
                window,
                cfg.context_rate_hz,
                m=m,
                solver=cfg.temporal_solver,
                rng=self._rng.integers(2**31),
            )
            # CPU: the sparse reconstruction plus classification.
            flops = self.cpu.reconstruction_flops(m, n, max(4, m // 2))
        else:
            # Full-rate sampling has the whole window — classify it
            # directly; no reconstruction is needed or performed.
            from ..context.activity import classify_window

            m = n
            estimate = classify_window(window, cfg.context_rate_hz)
            detection = DrivingDetection(
                is_driving=estimate.mode == "driving",
                estimate=estimate,
                m=n,
                n=n,
                reconstruction_error=0.0,
            )
            flops = 10.0 * n * np.log2(n)  # DCT features + thresholds
        self.ledger.post("sensing", m * accel_cost)
        self.ledger.post("cpu", self.cpu.energy_mj(flops))
        if self.config.share_contexts and self.policy.share_contexts:
            self.shared_contexts.append(
                SharedContext(
                    kind="activity",
                    value=detection.estimate.mode,
                    timestamp=timestamp,
                    detection=detection,
                )
            )
        return detection

    def share_context(
        self, bus: MessageBus, broker_address: str, context: SharedContext | None
    ) -> None:
        """Publish one context upward, if the privacy policy allows.

        Accepts ``None`` (no context recorded — e.g. sharing disabled at
        capture time) as a no-op so callers can pass the last recorded
        context unconditionally.
        """
        if context is None:
            return
        if not self.policy.share_contexts:
            self.audit.record(f"context:{context.kind}", was_shared=False)
            return
        self.audit.record(f"context:{context.kind}", was_shared=True)
        bus.send(
            Message(
                kind=MessageKind.CONTEXT_SHARE,
                source=self.node_id,
                destination=broker_address,
                payload={"kind": context.kind, "value": context.value},
                payload_values=1,
                timestamp=context.timestamp,
            )
        )
