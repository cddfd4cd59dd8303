"""Tests for the mobile node (thin client of Fig. 2)."""

import numpy as np
import pytest

from repro.fields.generators import urban_temperature_field
from repro.middleware.node import CONTEXT_WINDOW, MobileNode
from repro.middleware.privacy import PrivacyPolicy
from repro.network.bus import MessageBus
from repro.network.message import Message, MessageKind
from repro.sensors.base import Environment, NodeState
from repro.sensors.noise import STANDARD_TIERS
from repro.sensors.physical import TemperatureSensor, accelerometer_window


@pytest.fixture
def env():
    return Environment(
        fields={"temperature": urban_temperature_field(16, 8, rng=0)}
    )


def _node(node_id="n1", policy=None, tier=None, rng=0):
    return MobileNode(
        node_id,
        sensors={"temperature": TemperatureSensor(rng=1)},
        state=NodeState(x=3, y=3),
        policy=policy,
        tier=tier,
        rng=rng,
    )


def _command(node_id, sensor="temperature", grid_index=7):
    return Message(
        kind=MessageKind.SENSE_COMMAND,
        source="broker",
        destination=node_id,
        payload={"sensor": sensor, "grid_index": grid_index},
        timestamp=2.0,
    )


class TestReadSensor:
    def test_reads_and_accounts_energy(self, env):
        node = _node()
        reading = node.read_sensor("temperature", env, 0.0)
        assert reading.node_id == "n1"
        assert node.ledger.category_mj("sensing") > 0

    def test_missing_sensor(self, env):
        with pytest.raises(KeyError, match="available"):
            _node().read_sensor("barometer", env, 0.0)

    def test_tier_scales_reported_noise(self, env):
        budget_tier = STANDARD_TIERS[2]  # 2.5x noise
        node = _node(tier=budget_tier)
        reading = node.read_sensor("temperature", env, 0.0)
        base = TemperatureSensor().spec.noise_std
        assert reading.noise_std == pytest.approx(base * 2.5)

    def test_budget_tier_noisier_in_practice(self, env):
        flagship = _node("a", tier=STANDARD_TIERS[0], rng=1)
        budget = _node("b", tier=STANDARD_TIERS[2], rng=1)
        truth = env.field_value("temperature", 3, 3)
        err_flagship = np.std(
            [flagship.read_sensor("temperature", env, t).value - truth for t in range(100)]
        )
        err_budget = np.std(
            [budget.read_sensor("temperature", env, t).value - truth for t in range(100)]
        )
        assert err_budget > err_flagship


class TestHandleCommand:
    def _bus(self, node):
        bus = MessageBus()
        bus.register("broker")
        bus.register(node.node_id)
        return bus

    def test_ok_report(self, env):
        node = _node()
        bus = self._bus(node)
        reply = node.handle_command(_command("n1"), env, bus)
        assert reply.payload["ok"] is True
        assert reply.payload["grid_index"] == 7
        assert "value" in reply.payload
        assert bus.endpoint("broker").pending() == 1

    def test_privacy_refusal(self, env):
        node = _node(policy=PrivacyPolicy(blocked_sensors={"temperature"}))
        bus = self._bus(node)
        reply = node.handle_command(_command("n1"), env, bus)
        assert reply.payload["ok"] is False
        assert node.audit.total_withheld() == 1
        assert node.ledger.category_mj("sensing") == 0.0  # never sampled

    def test_missing_sensor_refusal(self, env):
        node = _node()
        bus = self._bus(node)
        reply = node.handle_command(
            _command("n1", sensor="microphone"), env, bus
        )
        assert reply.payload["ok"] is False

    def test_wrong_kind_rejected(self, env):
        node = _node()
        bus = self._bus(node)
        bad = Message(MessageKind.QUERY, "broker", "n1")
        with pytest.raises(ValueError):
            node.handle_command(bad, env, bus)


class TestContextSensing:
    def test_compressive_detection_correct_and_cheaper(self):
        window = accelerometer_window("driving", CONTEXT_WINDOW, rng=3)
        node_compressive = MobileNode("a", rng=4)
        node_compressive.state.mode = "driving"
        det = node_compressive.sense_activity_context(0.0, window=window)
        assert det.estimate.mode == "driving"
        assert det.m == 32  # TEMPORAL_DUTY_CYCLE of the 256 samples

        node_uniform = MobileNode("b", rng=4)
        node_uniform.state.mode = "driving"
        node_uniform.sense_activity_context(
            0.0, window=window, compressive=False
        )
        assert (
            node_compressive.ledger.category_mj("sensing")
            < node_uniform.ledger.category_mj("sensing")
        )

    def test_cpu_energy_accounted(self):
        node = MobileNode("a", rng=5)
        node.sense_activity_context(0.0)
        assert node.ledger.category_mj("cpu") > 0

    def test_window_length_checked(self):
        node = MobileNode("a", rng=6)
        with pytest.raises(ValueError):
            node.sense_activity_context(0.0, window=np.zeros(100))

    def test_contexts_recorded_for_sharing(self):
        node = MobileNode("a", rng=7)
        node.state.mode = "walking"
        node.sense_activity_context(1.0)
        assert node.shared_contexts
        assert node.shared_contexts[-1].kind == "activity"

    def test_share_context_respects_policy(self):
        node = MobileNode(
            "a", policy=PrivacyPolicy(share_contexts=False), rng=8
        )
        node.sense_activity_context(0.0)
        bus = MessageBus()
        bus.register("broker")
        bus.register("a")
        node.share_context(bus, "broker", node.shared_contexts[-1] if node.shared_contexts else None)
        # With share_contexts=False the node never even records them.
        assert bus.endpoint("broker").pending() == 0


class TestShareContext:
    def test_share_sends_message(self):
        node = MobileNode("a", rng=9)
        node.state.mode = "idle"
        node.sense_activity_context(3.0)
        bus = MessageBus()
        bus.register("broker")
        bus.register("a")
        node.share_context(bus, "broker", node.shared_contexts[-1])
        messages = bus.endpoint("broker").drain()
        assert len(messages) == 1
        assert messages[0].kind is MessageKind.CONTEXT_SHARE
        assert messages[0].payload["kind"] == "activity"
