"""Unit tests for the composable fault-injection substrate."""

import pytest

from repro.network.bus import MessageBus
from repro.network.faults import (
    CrashSchedule,
    DegradationWindow,
    FaultInjector,
    GilbertElliottLoss,
    IIDLoss,
    Partition,
)
from repro.network.message import Message, MessageKind


def _msg(src="a", dst="b", t=0.0):
    return Message(
        kind=MessageKind.SENSE_REPORT,
        source=src,
        destination=dst,
        timestamp=t,
    )


def _bus_with(*faults, clock=None):
    bus = MessageBus(fault_injector=FaultInjector(*faults, clock=clock))
    bus.register("a")
    bus.register("b")
    bus.register("c")
    return bus


class TestIIDLoss:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            IIDLoss(rate=1.0)
        with pytest.raises(ValueError):
            IIDLoss(rate=-0.1)

    def test_drops_at_roughly_the_rate(self):
        bus = _bus_with(IIDLoss(rate=0.5, seed=1))
        for _ in range(200):
            bus.send(_msg())
        assert 50 < bus.messages_lost < 150
        assert bus.losses_by_reason["iid-loss"] == bus.messages_lost

    def test_zero_rate_never_drops(self):
        bus = _bus_with(IIDLoss(rate=0.0, seed=1))
        for _ in range(50):
            bus.send(_msg())
        assert bus.messages_lost == 0


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_enter_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(loss_bad=-0.2)

    def test_never_leaves_good_state_without_transitions(self):
        fault = GilbertElliottLoss(
            p_enter_bad=0.0, p_exit_bad=0.0, loss_good=0.0, loss_bad=1.0,
            seed=1,
        )
        bus = _bus_with(fault)
        for _ in range(100):
            bus.send(_msg())
        assert bus.messages_lost == 0
        assert fault.state == "good"

    def test_absorbs_into_bad_state(self):
        # Guaranteed transition to bad on the first evaluation, no exit:
        # every delivery from then on is lost.
        fault = GilbertElliottLoss(
            p_enter_bad=1.0, p_exit_bad=0.0, loss_good=0.0, loss_bad=1.0,
            seed=1,
        )
        bus = _bus_with(fault)
        for _ in range(20):
            bus.send(_msg())
        assert bus.messages_lost == 20
        assert fault.state == "bad"

    def test_losses_are_bursty(self):
        # Compare mean loss-run length against an i.i.d. channel of the
        # same average rate: bursts should make runs markedly longer.
        def run_lengths(outcomes):
            lengths, current = [], 0
            for lost in outcomes:
                if lost:
                    current += 1
                elif current:
                    lengths.append(current)
                    current = 0
            if current:
                lengths.append(current)
            return lengths

        ge = GilbertElliottLoss(
            p_enter_bad=0.05, p_exit_bad=0.15, loss_good=0.0, loss_bad=0.8,
            seed=7,
        )
        iid = IIDLoss(rate=ge.stationary_loss_rate, seed=7)
        n = 4000
        ge_outcomes = [ge.evaluate(_msg(), 0.0)[0] for _ in range(n)]
        iid_outcomes = [iid.evaluate(_msg(), 0.0)[0] for _ in range(n)]
        ge_runs = run_lengths(ge_outcomes)
        iid_runs = run_lengths(iid_outcomes)
        assert sum(ge_runs) / len(ge_runs) > 1.5 * (
            sum(iid_runs) / len(iid_runs)
        )

    def test_stationary_rate_matches_empirical(self):
        ge = GilbertElliottLoss(
            p_enter_bad=0.1, p_exit_bad=0.3, loss_good=0.0, loss_bad=0.8,
            seed=3,
        )
        n = 8000
        losses = sum(ge.evaluate(_msg(), 0.0)[0] for _ in range(n))
        assert abs(losses / n - ge.stationary_loss_rate) < 0.05


class TestDegradationWindow:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            DegradationWindow(start=5.0, end=5.0)
        with pytest.raises(ValueError):
            DegradationWindow(start=0.0, end=1.0, extra_loss=1.5)

    def test_total_loss_only_inside_window(self):
        bus = _bus_with(
            DegradationWindow(start=10.0, end=20.0, extra_loss=1.0, seed=1)
        )
        assert bus.send(_msg(t=5.0))
        assert not bus.send(_msg(t=10.0))
        assert not bus.send(_msg(t=19.9))
        assert bus.send(_msg(t=20.0))
        assert bus.losses_by_reason["degraded-window"] == 2

    def test_latency_spike_inside_window(self):
        bus = _bus_with(
            DegradationWindow(start=0.0, end=10.0, extra_latency_s=2.0)
        )
        bus.send(_msg(t=1.0))
        spiked = bus.stats.latency_sum_s
        bus_clean = MessageBus()
        bus_clean.register("a")
        bus_clean.register("b")
        bus_clean.send(_msg(t=1.0))
        assert spiked == pytest.approx(bus_clean.stats.latency_sum_s + 2.0)


class TestPartition:
    def test_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Partition({"a"}, {"a", "b"})

    def test_cut_blocks_both_directions(self):
        bus = _bus_with(Partition({"a"}, {"b"}))
        assert not bus.send(_msg("a", "b"))
        assert not bus.send(_msg("b", "a"))
        assert bus.send(_msg("a", "c"))  # c is in neither group
        assert bus.losses_by_reason["partition"] == 2

    def test_partition_heals_after_end(self):
        bus = _bus_with(Partition({"a"}, {"b"}, start=0.0, end=10.0))
        assert not bus.send(_msg("a", "b", t=5.0))
        assert bus.send(_msg("a", "b", t=10.0))


class TestCrashSchedule:
    def test_rejoin_validation(self):
        with pytest.raises(ValueError):
            CrashSchedule().crash("a", at=5.0, rejoin=5.0)

    def test_is_down_windows(self):
        crash = CrashSchedule().crash("a", at=5.0, rejoin=15.0)
        assert not crash.is_down("a", 0.0)
        assert crash.is_down("a", 5.0)
        assert crash.is_down("a", 14.9)
        assert not crash.is_down("a", 15.0)
        assert not crash.is_down("b", 5.0)

    def test_down_node_neither_sends_nor_receives(self):
        crash = CrashSchedule().crash("b", at=0.0)
        bus = _bus_with(crash)
        assert not bus.send(_msg("a", "b", t=1.0))
        assert not bus.send(_msg("b", "a", t=1.0))
        assert bus.send(_msg("a", "c", t=1.0))
        assert bus.losses_by_reason["crash"] == 2

    def test_injector_reports_liveness(self):
        crash = CrashSchedule().crash("broker", at=10.0)
        injector = FaultInjector(crash)
        assert not injector.is_down("broker", 0.0)
        assert injector.is_down("broker", 10.0)


class TestFaultInjector:
    def test_first_drop_wins_and_is_attributed(self):
        injector = FaultInjector(
            Partition({"a"}, {"b"}),
            IIDLoss(rate=0.9, seed=1),
        )
        verdict = injector.evaluate(_msg("a", "b"))
        assert not verdict.delivered
        assert verdict.reason == "partition"
        assert injector.drops_by_reason == {"partition": 1}

    def test_reset_replays_identically(self):
        injector = FaultInjector(
            IIDLoss(rate=0.4, seed=11),
            GilbertElliottLoss(seed=12),
        )

        def run():
            return [
                injector.evaluate(_msg(t=float(i))).delivered
                for i in range(100)
            ]

        first = run()
        injector.reset()
        assert run() == first
        assert any(not delivered for delivered in first)

    def test_clock_takes_precedence_over_timestamps(self):
        class _Clock:
            now = 50.0

        injector = FaultInjector(
            DegradationWindow(start=40.0, end=60.0, extra_loss=1.0),
            clock=_Clock(),
        )
        # The message claims t=0 but the clock says 50: inside the window.
        assert not injector.evaluate(_msg(t=0.0)).delivered


class TestBusIntegration:
    def test_loss_rate_api_unchanged(self):
        # The legacy constructor path must behave exactly as before.
        bus = MessageBus(loss_rate=0.3, seed=7)
        bus.register("a")
        bus.register("b")
        for _ in range(50):
            bus.send(_msg())
        reference = MessageBus(loss_rate=0.3, seed=7)
        reference.register("a")
        reference.register("b")
        for _ in range(50):
            reference.send(_msg())
        assert bus.messages_lost == reference.messages_lost

    def test_per_endpoint_loss_counters(self):
        bus = _bus_with(IIDLoss(rate=0.5, seed=5))
        for _ in range(100):
            bus.send(_msg("a", "b"))
        assert bus.endpoint("a").outbound_lost == bus.messages_lost
        assert bus.endpoint("b").inbound_lost == bus.messages_lost
        assert bus.endpoint("a").outbound_lost > 0

    def test_nonstrict_send_to_unregistered_counts_and_meters(self):
        bus = MessageBus()
        bus.register("a")
        assert not bus.send(_msg("a", "ghost"), strict=False)
        assert bus.messages_lost == 1
        assert bus.losses_by_reason["unreachable"] == 1
        # The sender still paid for the transmission.
        assert bus.endpoint("a").stats.transmit_energy_mj > 0
        with pytest.raises(KeyError):
            bus.send(_msg("a", "ghost"))

