"""Tests for the metered pub/sub message bus."""

import warnings

import pytest

from repro.network.bus import MessageBus, TrafficStats
from repro.network.links import BLUETOOTH, WIFI
from repro.network.message import Message, MessageKind
from repro.network.transport import Transport


def _msg(src, dst, values=1):
    return Message(
        kind=MessageKind.SENSE_REPORT,
        source=src,
        destination=dst,
        payload_values=values,
    )


class TestRegistration:
    def test_register_and_lookup(self):
        bus = MessageBus()
        endpoint = bus.register("a")
        assert bus.endpoint("a") is endpoint
        assert bus.addresses == ["a"]

    def test_register_is_idempotent(self):
        bus = MessageBus()
        assert bus.register("a") is bus.register("a")

    def test_unknown_endpoint(self):
        with pytest.raises(KeyError):
            MessageBus().endpoint("ghost")

    def test_unregister_cleans_subscriptions(self):
        bus = MessageBus()
        bus.register("a")
        bus.subscribe("a", "topic")
        bus.unregister("a")
        assert bus.subscribers("topic") == set()

    def test_custom_link(self):
        bus = MessageBus()
        endpoint = bus.register("bt-node", BLUETOOTH)
        assert endpoint.link is BLUETOOTH


class TestSend:
    def test_delivery_to_inbox(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send(_msg("a", "b"))
        messages = bus.endpoint("b").drain()
        assert len(messages) == 1
        assert messages[0].source == "a"
        assert bus.endpoint("b").pending() == 0

    def test_unknown_destination_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(KeyError):
            bus.send(_msg("a", "nowhere"))

    def test_stats_accumulate(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        for _ in range(3):
            bus.send(_msg("a", "b", values=10))
        assert bus.stats.messages == 3
        assert bus.stats.bytes == 3 * (32 + 80)
        assert bus.stats.total_energy_mj > 0
        assert bus.stats.by_kind["sense_report"] == 3

    def test_both_parties_metered(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send(_msg("a", "b"))
        assert bus.endpoint("a").stats.messages == 1
        assert bus.endpoint("b").stats.messages == 1

    def test_drain_is_fifo(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        first = _msg("a", "b")
        second = _msg("a", "b")
        bus.send(first)
        bus.send(second)
        ids = [m.message_id for m in bus.endpoint("b").drain()]
        assert ids == [first.message_id, second.message_id]


class TestPubSub:
    def test_publish_reaches_subscribers(self):
        bus = MessageBus()
        for name in ("pub", "s1", "s2", "other"):
            bus.register(name)
        bus.subscribe("s1", "temp")
        bus.subscribe("s2", "temp")
        count = bus.publish("temp", _msg("pub", "temp-topic"))
        assert count == 2
        assert bus.endpoint("s1").pending() == 1
        assert bus.endpoint("s2").pending() == 1
        assert bus.endpoint("other").pending() == 0

    def test_publisher_not_echoed(self):
        bus = MessageBus()
        bus.register("pub")
        bus.subscribe("pub", "temp")
        count = bus.publish("temp", _msg("pub", "temp-topic"))
        assert count == 0
        assert bus.endpoint("pub").pending() == 0

    def test_subscribe_requires_registration(self):
        with pytest.raises(KeyError):
            MessageBus().subscribe("ghost", "topic")

    def test_empty_topic_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(ValueError):
            bus.subscribe("a", "")

    def test_unsubscribe(self):
        bus = MessageBus()
        bus.register("a")
        bus.subscribe("a", "t")
        bus.unsubscribe("a", "t")
        assert bus.subscribers("t") == set()

    def test_each_delivery_metered(self):
        bus = MessageBus()
        for name in ("pub", "s1", "s2"):
            bus.register(name)
        bus.subscribe("s1", "t")
        bus.subscribe("s2", "t")
        bus.publish("t", _msg("pub", "t"))
        assert bus.stats.messages == 2  # one per receiver


class TestTrafficStatsLatency:
    def test_mean_latency_empty(self):
        bus = MessageBus()
        assert bus.stats.mean_latency_s == 0.0

    def test_mean_latency_is_sum_over_messages(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        for _ in range(4):
            bus.send(_msg("a", "b"))
        stats = bus.stats
        assert stats.mean_latency_s == pytest.approx(
            stats.latency_sum_s / stats.messages
        )


class TestDeferredDelivery:
    """latency_mode="link": deliveries ride the sim clock."""

    def _clocked_bus(self, **kwargs):
        from repro.sim.clock import SimClock

        clock = SimClock()
        bus = MessageBus(**kwargs)
        bus.attach_clock(clock, "link")
        return bus, clock

    def test_send_defers_until_link_latency_elapses(self):
        bus, clock = self._clocked_bus()
        bus.register("a", WIFI)
        bus.register("b", WIFI)
        message = _msg("a", "b")
        assert bus.send(message) is True  # scheduled, not delivered
        assert bus.endpoint("b").pending() == 0
        latency = WIFI.transfer_latency_s(message)
        clock.run_until(latency / 2)
        assert bus.endpoint("b").pending() == 0
        clock.run_until(latency)
        assert bus.endpoint("b").pending() == 1
        assert message.arrived_at == pytest.approx(latency)

    def test_zero_mode_with_clock_stays_synchronous(self):
        from repro.sim.clock import SimClock

        bus = MessageBus()
        bus.attach_clock(SimClock(), "zero")
        bus.register("a")
        bus.register("b")
        bus.send(_msg("a", "b"))
        assert bus.endpoint("b").pending() == 1

    def test_arrivals_keep_clock_order_across_links(self):
        # A slow-link message sent first arrives after a fast-link
        # message sent second: latency faithfulness reorders arrivals.
        from repro.network.links import GSM

        bus, clock = self._clocked_bus()
        bus.register("src", WIFI)
        bus.register("slow", GSM)
        bus.register("fast", BLUETOOTH)
        first = _msg("src", "slow")
        second = _msg("src", "fast")
        bus.send(first)
        bus.send(second)
        clock.run_until(10.0)
        assert second.arrived_at < first.arrived_at

    def test_loss_applied_at_delivery_time(self):
        bus, clock = self._clocked_bus(loss_rate=0.5, seed=3)
        bus.register("a", WIFI)
        bus.register("b", WIFI)
        for _ in range(40):
            assert bus.send(_msg("a", "b")) is True  # sender can't know
        clock.run_until(10.0)
        delivered = bus.endpoint("b").pending()
        assert 0 < delivered < 40
        assert bus.messages_lost == 40 - delivered
        assert bus.losses_by_reason["iid-loss"] == 40 - delivered

    def test_destination_churn_mid_flight_is_unreachable_loss(self):
        bus, clock = self._clocked_bus()
        bus.register("a", WIFI)
        bus.register("b", WIFI)
        bus.send(_msg("a", "b"))
        bus.unregister("b")  # churns off while the message is in flight
        clock.run_until(10.0)
        assert bus.messages_lost == 1
        assert bus.losses_by_reason["unreachable"] == 1
        assert bus.endpoint("a").outbound_lost == 1

    def test_fault_extra_latency_delays_arrival(self):
        from repro.network.faults import DegradationWindow, FaultInjector

        injector = FaultInjector(
            DegradationWindow(start=0.0, end=50.0, extra_latency_s=2.0)
        )
        bus, clock = self._clocked_bus(fault_injector=injector)
        bus.register("a", WIFI)
        bus.register("b", WIFI)
        message = _msg("a", "b")
        bus.send(message)
        base = WIFI.transfer_latency_s(message)
        clock.run_until(base + 1.0)
        assert bus.endpoint("b").pending() == 0  # still degraded-delayed
        clock.run_until(base + 2.0)
        assert bus.endpoint("b").pending() == 1
        assert message.arrived_at == pytest.approx(base + 2.0)
        assert bus.stats.latency_sum_s == pytest.approx(base + 2.0)

    def test_handler_consumes_arrival_instead_of_inbox(self):
        bus, clock = self._clocked_bus()
        bus.register("a", WIFI)
        bus.register("b", WIFI)
        seen = []
        bus.set_handler("b", seen.append)
        message = _msg("a", "b")
        bus.send(message)
        clock.run_until(10.0)
        assert seen == [message]
        assert bus.endpoint("b").pending() == 0

    def test_publish_schedules_one_delivery_per_subscriber(self):
        bus, clock = self._clocked_bus()
        for name in ("pub", "s1", "s2"):
            bus.register(name, WIFI)
        bus.subscribe("s1", "t")
        bus.subscribe("s2", "t")
        assert bus.publish("t", _msg("pub", "t")) == 2
        assert bus.endpoint("s1").pending() == 0
        clock.run_until(10.0)
        assert bus.endpoint("s1").pending() == 1
        assert bus.endpoint("s2").pending() == 1
        assert bus.stats.messages == 2


class TestLatencySTombstone:
    """``TrafficStats.latency_s`` is gone (deprecated PR 3, linter-gated
    PR 5, removed PR 8).  Accessing it must fail like any other unknown
    attribute — no alias, no warning machinery left behind."""

    def test_attribute_is_gone(self):
        stats = TrafficStats()
        stats.latency_sum_s = 1.25
        with pytest.raises(AttributeError):
            _ = stats.latency_s
        assert not hasattr(TrafficStats, "latency_s")

    def test_no_warning_machinery_left(self):
        import repro.network.bus as bus_mod

        assert not hasattr(bus_mod, "_LATENCY_S_WARNED")

    def test_replacements_survive(self):
        stats = TrafficStats()
        stats.latency_sum_s = 2.0
        stats.messages = 4
        assert stats.latency_sum_s == pytest.approx(2.0)
        assert stats.mean_latency_s == pytest.approx(0.5)

    def test_no_deprecation_warning_on_normal_use(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = TrafficStats()
            stats.latency_sum_s += 0.75
            _ = stats.mean_latency_s


class TestStatsSnapshot:
    def test_snapshot_is_json_serializable(self):
        import json

        bus = MessageBus()
        bus.register("a", WIFI)
        bus.register("b", BLUETOOTH)
        bus.send(_msg("a", "b"))
        snapshot = bus.stats_snapshot()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded["messages"] == 1
        assert decoded["endpoints"] == 2
        assert decoded["pending"] == 1
        assert decoded["latency_mode"] == "zero"
        assert decoded["deferred"] is False

    def test_snapshot_counts_backpressure_and_peaks(self):
        bus = MessageBus(inbox_capacity=1)
        bus.register("a")
        bus.register("b")
        bus.send(_msg("a", "b"))
        bus.send(_msg("a", "b"))  # overflows the 1-deep inbox
        snapshot = bus.stats_snapshot()
        assert snapshot["backpressure_drops"] == 1
        assert snapshot["inbox_peak"] == 1
        assert snapshot["losses_by_reason"] == {"backpressure": 1}
        assert snapshot["messages_lost"] == 1

    def test_snapshot_tracks_traffic_stats_verbatim(self):
        bus = MessageBus()
        bus.register("a", WIFI)
        bus.register("b", WIFI)
        for _ in range(3):
            bus.send(_msg("a", "b"))
        snapshot = bus.stats_snapshot()
        reference = bus.stats.snapshot()
        for key, value in reference.items():
            assert snapshot[key] == value


class TestTransportProtocol:
    def test_satisfies_transport_protocol(self):
        assert isinstance(MessageBus(), Transport)

    def test_send_and_stats_round_trip(self):
        transport = MessageBus()
        transport.register("a", WIFI)
        transport.register("b", WIFI)
        message = Message(
            kind=MessageKind.SENSE_COMMAND,
            source="a",
            destination="b",
            payload={"grid_index": 5},
        )
        assert transport.send(message)
        assert transport.endpoint("b").pending() == 1
        snapshot = transport.stats_snapshot()
        assert snapshot["messages"] == 1
        assert snapshot["endpoints"] == 2
