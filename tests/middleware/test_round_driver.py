"""Event-driven round driver tests: the resumable broker state machine.

Covers the COMMANDING → COLLECTING → SOLVING → FINALIZED lifecycle on a
latency-faithful bus: early completion when every planned cell reports,
partial-report solves at the deadline, per-command timeout retries, and
refusal-driven candidate rotation.
"""

import pytest

from repro.fields.generators import smooth_field
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.localcloud import LocalCloud
from repro.middleware.rounds import RoundState, ZoneRoundDriver, ZoneSchedule
from repro.network.bus import MessageBus
from repro.network.faults import CrashSchedule, FaultInjector
from repro.network.message import MessageKind
from repro.sensors.faults import Adversarial, SensorFaultInjector, StuckAt
from repro.sensors.base import Environment
from repro.sensors.physical import TemperatureSensor
from repro.sim.clock import SimClock


def _env(width=4, height=2):
    return Environment(
        fields={
            "temperature": smooth_field(
                width, height, cutoff=0.3, amplitude=3.0, offset=20.0, rng=0
            )
        }
    )


def _deployment(
    *,
    config: BrokerConfig | None = None,
    fault_injector=None,
    nodes_per_nc: int = 6,
    latency_mode: str = "link",
):
    """A one-NC LocalCloud on a clocked bus (4x2 zone, dense policy so
    every covered cell is planned — failures are then deterministic)."""
    clock = SimClock()
    bus = MessageBus(fault_injector=fault_injector)
    bus.attach_clock(clock, latency_mode)
    config = config or BrokerConfig(policy=CompressionPolicy(mode="dense"))
    lc = LocalCloud(
        "lc0", bus, 4, 2, n_nanoclouds=1, nodes_per_nc=nodes_per_nc,
        config=config, heterogeneous=False, rng=5,
    )
    return clock, bus, lc


class TestZoneSchedule:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            ZoneSchedule(period_s=0.0)

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            ZoneSchedule(period_s=10.0, offset_s=-1.0)


class TestRoundLifecycle:
    def test_round_completes_after_link_latency(self):
        clock, bus, lc = _deployment()
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(45.0)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.started_at == 30.0
        # Command leg + report leg: latency is real but far below the
        # deadline — the round closed early on the last report.
        assert 0.0 < outcome.latency_s < lc.config.report_deadline_s
        assert not outcome.partial
        assert driver.state is RoundState.FINALIZED
        assert driver.rounds_completed == 1
        assert driver.rounds_failed == 0

    def test_outcome_field_matches_zone_shape(self):
        clock, bus, lc = _deployment()
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start()
        clock.run_until(30.5)
        field = outcomes[0].result.field
        assert (field.width, field.height) == (4, 2)

    def test_multiple_rounds_on_own_period_and_offset(self):
        clock, bus, lc = _deployment()
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock,
            period_s=20.0, offset_s=5.0, on_complete=outcomes.append,
        )
        driver.start(until=60.0)
        clock.run_until(60.0)
        assert [o.started_at for o in outcomes] == [5.0, 25.0, 45.0]
        assert [o.index for o in outcomes] == [1, 2, 3]

    def test_zero_latency_mode_completes_at_round_instant(self):
        clock, bus, lc = _deployment(latency_mode="zero")
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(30.0)
        assert outcomes[0].latency_s == 0.0
        assert not outcomes[0].partial


class TestPartialRounds:
    def test_dead_node_cell_closes_early_and_partial(self):
        # One member churns off the bus entirely: its cell can never be
        # realised, the driver marks it exhausted and still solves with
        # the remaining reports — a partial round, well before deadline.
        clock, bus, lc = _deployment()
        victim = sorted(lc.nanoclouds[0].nodes)[0]
        bus.unregister(victim)
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(45.0)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.partial
        assert outcome.latency_s < lc.config.report_deadline_s
        estimate = outcome.result.nc_estimates[0]
        assert estimate.plan.m == 5  # 6 planned cells, one unrealisable
        assert estimate.planned_m == 6
        assert estimate.degraded

    def test_deadline_closes_round_with_infra_fallback(self):
        # The victim node is crash-scheduled down, so its commands are
        # eaten in flight; the per-command timeout chain outlives the
        # report deadline, which closes the round and reads the cell's
        # infrastructure sensor instead.
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
            report_deadline_s=3.0,
            report_timeout_s=5.0,
            command_retries=2,
        )
        injector = FaultInjector(CrashSchedule())
        clock, bus, lc = _deployment(config=config, fault_injector=injector)
        nc = lc.nanoclouds[0]
        victim = sorted(nc.nodes)[0]
        injector.faults[0].crash(victim, 0.0)
        victim_cell = nc.broker.members[victim]
        nc.broker.add_infrastructure(
            victim_cell, TemperatureSensor(rng=0)
        )
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(60.0)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.latency_s == pytest.approx(3.0)  # the deadline
        estimate = outcome.result.nc_estimates[0]
        assert estimate.infra_reads >= 1
        assert estimate.plan.m == 6  # infra realised the missing cell
        assert not outcome.partial

    def test_timeout_retries_then_candidate_exhaustion(self):
        # Down node, short timeouts, no infra: the driver retries the
        # command on timeout (counting telemetry) and finally gives the
        # cell up, solving partially.
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
            report_deadline_s=8.0,
            report_timeout_s=0.5,
            command_retries=2,
        )
        injector = FaultInjector(CrashSchedule())
        clock, bus, lc = _deployment(config=config, fault_injector=injector)
        victim = sorted(lc.nanoclouds[0].nodes)[0]
        injector.faults[0].crash(victim, 0.0)
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(60.0)
        outcome = outcomes[0]
        estimate = outcome.result.nc_estimates[0]
        assert outcome.partial
        assert estimate.retries_used == 2
        assert estimate.plan.m == 5
        # Retries backed off 0.5 + 1.0, then the final 2.0 s timeout
        # exhausted the candidate: closed early, before the deadline.
        assert outcome.latency_s == pytest.approx(0.5 + 1.0 + 2.0)

    def test_refusal_rotates_to_infrastructure(self):
        # A privacy-blocked node refuses; with no co-located alternative
        # the cell falls back to its fixed sensor immediately.
        clock, bus, lc = _deployment()
        nc = lc.nanoclouds[0]
        refuser = sorted(nc.nodes)[0]
        nc.nodes[refuser].policy.blocked_sensors.add("temperature")
        refuser_cell = nc.broker.members[refuser]
        nc.broker.add_infrastructure(refuser_cell, TemperatureSensor(rng=0))
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(45.0)
        outcome = outcomes[0]
        estimate = outcome.result.nc_estimates[0]
        assert estimate.reports_refused == 1
        assert estimate.infra_reads == 1
        assert not outcome.partial

    def test_busy_driver_skips_overlapping_firing(self):
        # Deadline longer than the period is clamped, but a round still
        # collecting when the next firing arrives is skipped, not piled.
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
            report_deadline_s=9.0,
            report_timeout_s=4.0,
            command_retries=5,
        )
        injector = FaultInjector(CrashSchedule())
        clock, bus, lc = _deployment(config=config, fault_injector=injector)
        victim = sorted(lc.nanoclouds[0].nodes)[0]
        injector.faults[0].crash(victim, 0.0)
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=10.0, on_complete=lambda o: None
        )
        # deadline clamped below the period so rounds always close
        assert driver.report_deadline_s == pytest.approx(9.0)
        driver.start(until=40.0)
        clock.run_until(60.0)
        assert driver.rounds_completed >= 3
        assert driver.rounds_skipped == 0


class TestByzantineLifecycle:
    """Trust/quarantine interplay with the event-driven round machinery."""

    def _byzantine_deployment(self, *, nodes_per_nc=6, fault_end=None, **cfg):
        cfg.setdefault("policy", CompressionPolicy(mode="dense"))
        cfg.setdefault("robust_mode", "trim")
        cfg.setdefault("rehab_probes", 0)
        clock, bus, lc = _deployment(
            config=BrokerConfig(**cfg), nodes_per_nc=nodes_per_nc
        )
        nc = lc.nanoclouds[0]
        bad_id = sorted(nc.nodes)[0]
        injector = SensorFaultInjector()
        if fault_end is None:
            injector.attach(bad_id, Adversarial(offset=9.0, claimed_std=0.01))
        else:
            injector.attach(bad_id, StuckAt(60.0, end=fault_end))
        for node in nc.nodes.values():
            node.fault_injector = injector
        return clock, bus, lc, nc, bad_id

    def _spy_commands(self, clock, bus, sent):
        original_send = bus.send

        def spy(message, **kwargs):
            if message.kind is MessageKind.SENSE_COMMAND:
                sent.append((clock.now, message.destination))
            return original_send(message, **kwargs)

        bus.send = spy

    def test_quarantined_node_stops_receiving_commands(self):
        clock, bus, lc, nc, bad_id = self._byzantine_deployment()
        sent = []
        self._spy_commands(clock, bus, sent)
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=300.0)
        clock.run_until(320.0)
        broker = nc.broker
        assert broker.trust.is_quarantined(bad_id)
        bad_commands = [t for t, dest in sent if dest == bad_id]
        assert bad_commands  # commanded while still trusted...
        last_bad = max(bad_commands)
        later_others = [
            t for t, dest in sent if dest != bad_id and t > last_bad + 30.0
        ]
        # ...then rounds kept running without ever commanding it again.
        assert later_others
        assert bad_id not in outcomes[-1].result.nc_estimates[0].trust or (
            outcomes[-1].result.nc_estimates[0].trust[bad_id]
            < broker.trust.quarantine_below
        )
        assert bad_id in outcomes[-1].result.nc_estimates[0].quarantined_nodes

    def test_rounds_stay_within_deadline_after_quarantine(self):
        # Enough members that the quarantined node's cell falls to a
        # co-located replacement inside the same deadline machinery.
        clock, bus, lc, nc, bad_id = self._byzantine_deployment(
            nodes_per_nc=16
        )
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=300.0)
        clock.run_until(320.0)
        assert nc.broker.trust.is_quarantined(bad_id)
        assert driver.rounds_failed == 0
        assert len(outcomes) >= 8
        for outcome in outcomes:
            assert outcome.latency_s <= driver.report_deadline_s
        # Post-quarantine rounds still produce full (non-partial) solves.
        assert not outcomes[-1].partial

    def test_rehab_probe_restores_recovered_node(self):
        clock, bus, lc, nc, bad_id = self._byzantine_deployment(
            fault_end=100.0, rehab_probes=1, rehab_interval=1
        )
        sent = []
        self._spy_commands(clock, bus, sent)
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=lambda o: None
        )
        driver.start(until=600.0)
        clock.run_until(620.0)
        broker = nc.broker
        record = broker.trust.get(bad_id)
        # It was quarantined (stuck through t<100), probed after the
        # sensor recovered, and released once trust climbed back.
        assert record.probes >= 1
        assert not record.quarantined
        assert record.trust >= broker.trust.release_at
        bad_commands = [t for t, dest in sent if dest == bad_id]
        # Commanded again as a regular candidate after release.
        assert max(bad_commands) > 400.0
