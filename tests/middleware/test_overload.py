"""Overload protection: detector, breaker, ladder, and driver wiring.

Unit-level state-machine coverage for ``repro.middleware.overload``,
then integration through :class:`ZoneRoundDriver`: deadline-timeout
rounds trip the circuit breaker into stale serving, queue floods walk
the degradation ladder down and back up, failover carries the whole
controller to the promoted broker, and — property-tested — the default
(all-off) config leaves a same-seed scenario bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields.generators import smooth_field
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.localcloud import LocalCloud
from repro.middleware.overload import (
    BREAKER_COOLDOWN_ROUNDS,
    BREAKER_FAILURES,
    BUSY_SKIP_BUDGET,
    COARSE_M_SCALE,
    LATENCY_ALPHA,
    LATENCY_HIGH_FRAC,
    LEVEL_COARSE,
    LEVEL_FULL,
    LEVEL_REDUCED_M,
    LEVEL_STALE,
    PASSTHROUGH,
    QUEUE_ALPHA,
    RECOVER_BELOW,
    RECOVER_ROUNDS,
    REDUCED_M_SCALE,
    BreakerState,
    CircuitBreaker,
    DegradationLadder,
    OverloadConfig,
    OverloadController,
    OverloadDetector,
)
from repro.middleware.rounds import ZoneRoundDriver
from repro.network.bus import MessageBus
from repro.network.faults import CrashSchedule, FaultInjector
from repro.network.message import Message, MessageKind
from repro.sensors.base import Environment
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
    rng: int = 5,
):
    clock = SimClock()
    bus = MessageBus(fault_injector=fault_injector)
    bus.attach_clock(clock, latency_mode)
    config = config or BrokerConfig(policy=CompressionPolicy(mode="dense"))
    lc = LocalCloud(
        "lc0", bus, 4, 2, n_nanoclouds=1, nodes_per_nc=nodes_per_nc,
        config=config, heterogeneous=False, rng=rng,
    )
    return clock, bus, lc


class TestOverloadConfig:
    def test_defaults_are_all_off(self):
        config = OverloadConfig()
        assert not config.any_enabled

    def test_any_feature_flag_enables(self):
        assert OverloadConfig(admission_control=True).any_enabled
        assert OverloadConfig(breaker_enabled=True).any_enabled
        assert OverloadConfig(ladder_enabled=True).any_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadConfig(queue_high=0.0)
        with pytest.raises(ValueError):
            OverloadConfig(coarse_sparsity_cap=0)


class TestOverloadDetector:
    def test_queue_ewma_tracks_depth(self):
        detector = OverloadDetector()
        detector.observe_queue(8)
        first = QUEUE_ALPHA * 8.0
        assert detector.queue_ewma == pytest.approx(first)
        detector.observe_queue(8)
        assert detector.queue_ewma == pytest.approx(
            first + QUEUE_ALPHA * (8.0 - first)
        )

    def test_pressure_is_worse_of_both_signals(self):
        detector = OverloadDetector(config=OverloadConfig(queue_high=10.0))
        detector.observe_queue(2)
        detector.observe_latency(9.0, 10.0)
        queue_ewma = QUEUE_ALPHA * 2.0
        latency_pressure = LATENCY_ALPHA * 0.9 / LATENCY_HIGH_FRAC
        assert latency_pressure > queue_ewma / 10.0
        assert detector.pressure == pytest.approx(latency_pressure)
        # A deep queue alone is enough too.
        detector.observe_queue(40)
        queue_ewma += QUEUE_ALPHA * (40.0 - queue_ewma)
        assert queue_ewma / 10.0 > latency_pressure
        assert detector.pressure == pytest.approx(queue_ewma / 10.0)

    def test_latency_requires_positive_deadline(self):
        with pytest.raises(ValueError):
            OverloadDetector().observe_latency(1.0, 0.0)


def _tripped_breaker() -> CircuitBreaker:
    breaker = CircuitBreaker()
    for _ in range(BREAKER_FAILURES):
        breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    return breaker


def _probing_breaker() -> CircuitBreaker:
    breaker = _tripped_breaker()
    for _ in range(BREAKER_COOLDOWN_ROUNDS - 1):
        assert not breaker.allow_round()
    assert breaker.allow_round()  # the probe
    return breaker


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_FAILURES - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker()
        for _ in range(BREAKER_FAILURES - 1):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(BREAKER_FAILURES - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_then_half_open_probe(self):
        breaker = _tripped_breaker()
        # Every cooldown slot but the last serves stale ...
        for _ in range(BREAKER_COOLDOWN_ROUNDS - 1):
            assert not breaker.allow_round()
            assert breaker.state is BreakerState.OPEN
        assert breaker.allow_round()  # ... the last is the probe
        assert breaker.probing

    def test_probe_success_closes(self):
        breaker = _probing_breaker()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_probe_failure_reopens(self):
        breaker = _probing_breaker()
        breaker.record_failure()  # one failed probe, not BREAKER_FAILURES
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2


class TestDegradationLadder:
    def test_escalates_one_level_per_hot_observation(self):
        ladder = DegradationLadder()
        assert ladder.update(1.5) == LEVEL_REDUCED_M
        assert ladder.update(1.5) == LEVEL_COARSE
        assert ladder.update(1.5) == LEVEL_STALE
        assert ladder.update(1.5) == LEVEL_STALE  # saturates

    def test_recovery_needs_consecutive_calm_rounds(self):
        ladder = DegradationLadder()
        ladder.update(1.5)
        ladder.update(1.5)
        assert ladder.level == LEVEL_COARSE
        calm = RECOVER_BELOW / 5
        for _ in range(RECOVER_ROUNDS - 1):
            ladder.update(calm)
        assert ladder.level == LEVEL_COARSE  # one calm round short
        ladder.update(calm)
        assert ladder.level == LEVEL_REDUCED_M
        # Mid-band pressure breaks the calm streak (hysteresis).
        for _ in range(RECOVER_ROUNDS - 1):
            ladder.update(calm)
        ladder.update(0.7)
        for _ in range(RECOVER_ROUNDS - 1):
            ladder.update(calm)
        assert ladder.level == LEVEL_REDUCED_M

    def test_scales_per_level(self):
        ladder = DegradationLadder(
            config=OverloadConfig(coarse_sparsity_cap=5)
        )
        assert ladder.m_scale() == 1.0
        assert ladder.sparsity_cap() is None
        ladder.level = LEVEL_REDUCED_M
        assert ladder.m_scale() == REDUCED_M_SCALE
        assert ladder.sparsity_cap() is None
        ladder.level = LEVEL_COARSE
        assert ladder.m_scale() == COARSE_M_SCALE
        assert ladder.sparsity_cap() == 5


class TestOverloadController:
    def test_disabled_controller_is_passthrough(self):
        controller = OverloadController(OverloadConfig())
        directives = controller.begin_round(queue_depth=10_000)
        assert directives is PASSTHROUGH
        controller.finish_round(latency_s=99.0, deadline_s=1.0, timed_out=True)
        assert controller.detector.observations == 0
        assert controller.breaker.state is BreakerState.CLOSED
        assert controller.ladder.level == LEVEL_FULL

    def test_open_breaker_serves_stale(self):
        controller = OverloadController(OverloadConfig(breaker_enabled=True))
        for _ in range(BREAKER_FAILURES):
            controller.finish_round(
                latency_s=10.0, deadline_s=10.0, timed_out=True
            )
        directives = controller.begin_round(queue_depth=0)
        assert directives.serve_stale
        assert controller.stale_serves == 1

    def test_ladder_stale_level_serves_stale(self):
        controller = OverloadController(OverloadConfig(ladder_enabled=True))
        controller.ladder.level = LEVEL_STALE
        directives = controller.begin_round(queue_depth=0)
        assert directives.serve_stale
        assert directives.level == LEVEL_STALE

    def test_stale_level_unlatches_after_calm_stale_serves(self):
        controller = OverloadController(OverloadConfig(ladder_enabled=True))
        controller.ladder.level = LEVEL_STALE
        controller.detector.latency_ewma = 2.0  # saturated at trip time
        directives = controller.begin_round(queue_depth=0)
        assert directives.serve_stale  # pressure still decaying
        for _ in range(10):
            directives = controller.begin_round(queue_depth=0)
            if not directives.serve_stale:
                break
        # Each stale slot is a zero-latency observation: the EWMA
        # decays, pressure clears, and the ladder climbs back.
        assert not directives.serve_stale
        assert controller.ladder.level < LEVEL_STALE

    def test_busy_skips_over_budget_escalate(self):
        controller = OverloadController(
            OverloadConfig(admission_control=True, ladder_enabled=True)
        )
        controller.record_busy_skip(over_budget=False)
        assert controller.ladder.level == LEVEL_FULL
        controller.record_busy_skip(over_budget=True)
        assert controller.ladder.level == LEVEL_REDUCED_M
        assert controller.pressure_skips == 1

    def test_snapshot_keys(self):
        snapshot = OverloadController(OverloadConfig()).snapshot()
        assert set(snapshot) == {
            "level", "pressure", "breaker", "breaker_trips",
            "stale_serves", "pressure_skips",
        }


#: The drivers' COLLECTING deadline under :func:`_timeout_config`.
DEADLINE_S = 9.0


def _timeout_config(**overload_kwargs):
    """Dense rounds whose dead-node cells retry past the
    :data:`DEADLINE_S` deadline, so every round is closed by the
    deadline event (the breaker's failure signal) deterministically."""
    return BrokerConfig(
        policy=CompressionPolicy(mode="dense"),
        command_retries=10,
        report_timeout_s=2.0,
        overload=OverloadConfig(**overload_kwargs),
    )


def _kill_one_node(lc):
    """Crash one member node for the whole run (its planned cell can
    then never report, and with retries armed the round only closes at
    the deadline)."""
    crash = CrashSchedule()
    victim = sorted(lc.nanoclouds[0].nodes)[0]
    crash.crash(victim, at=0.0)
    return FaultInjector(crash)


class TestBreakerThroughDriver:
    def test_timeout_rounds_trip_breaker_into_stale_serving(self):
        config = _timeout_config(breaker_enabled=True)
        clock, bus, lc = _deployment(config=config)
        injector = _kill_one_node(lc)
        bus.fault_injector = injector
        injector.clock = clock
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=10.0,
            report_deadline_s=DEADLINE_S, on_complete=outcomes.append,
        )
        driver.start(until=80.0)
        clock.run_until(100.0)

        timed_out = [o for o in outcomes if not o.stale]
        stale = [o for o in outcomes if o.stale]
        # The first BREAKER_FAILURES rounds time out (deadline-closed
        # partial solves) and trip the breaker; later slots serve the
        # last good estimate.
        assert len(timed_out) >= BREAKER_FAILURES
        assert all(
            o.latency_s >= driver.report_deadline_s for o in timed_out
        )
        assert stale, "breaker never opened into stale serving"
        assert driver.rounds_stale_served == len(stale)
        assert driver.overload.breaker.trips >= 1
        for o in stale:
            for estimate in o.result.nc_estimates:
                assert estimate.staleness_rounds >= 1
                assert estimate.degraded

    def test_consecutive_stale_serves_accumulate_staleness(self):
        # Each breaker trip serves stale until its probe round.  With the
        # ladder armed as well, the timed-out rounds' latency walks it
        # to LEVEL_STALE, whose unbroken run of stale serves each
        # re-serves the previous stale outcome — staleness compounds.
        config = _timeout_config(breaker_enabled=True, ladder_enabled=True)
        clock, bus, lc = _deployment(config=config)
        injector = _kill_one_node(lc)
        bus.fault_injector = injector
        injector.clock = clock
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=10.0,
            report_deadline_s=DEADLINE_S, on_complete=outcomes.append,
        )
        driver.start(until=120.0)
        clock.run_until(140.0)
        staleness = [
            o.result.nc_estimates[0].staleness_rounds
            for o in outcomes
            if o.stale
        ]
        assert driver.overload.breaker.trips >= 1
        assert staleness == sorted(staleness)
        assert staleness and staleness[-1] >= 2


class TestLadderThroughDriver:
    def _flood(self, bus, lc, count):
        broker_id = lc.nanoclouds[0].broker.broker_id
        source = sorted(lc.nanoclouds[0].nodes)[0]
        for i in range(count):
            bus.send(
                Message(
                    kind=MessageKind.CONTEXT_SHARE,
                    source=source,
                    destination=broker_id,
                    payload={"kind": "noise", "value": float(i)},
                ),
                strict=False,
            )

    def test_queue_flood_escalates_then_recovers(self):
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
            overload=OverloadConfig(ladder_enabled=True, queue_high=8.0),
        )
        clock, bus, lc = _deployment(config=config)
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=300.0)

        # Two congested rounds: a standing queue well above queue_high.
        self._flood(bus, lc, 30)
        clock.run_until(65.0)
        assert driver.overload.ladder.level >= LEVEL_REDUCED_M
        degraded = [
            e.degraded_level
            for o in outcomes
            if not o.stale
            for e in o.result.nc_estimates
        ]
        assert degraded and max(degraded) >= LEVEL_REDUCED_M

        # Drain the backlog; pressure collapses and the zone climbs back.
        lc.nanoclouds[0].broker.process_inbox(bus, 65.0)
        clock.run_until(300.0)
        assert driver.overload.ladder.level == LEVEL_FULL
        assert driver.overload.ladder.recoveries >= 1

    def test_reduced_level_shrinks_planned_m(self):
        def run_round(level):
            config = BrokerConfig(
                policy=CompressionPolicy(mode="dense"),
                overload=OverloadConfig(ladder_enabled=True),
            )
            clock, bus, lc = _deployment(
                config=config, latency_mode="zero", nodes_per_nc=8
            )
            lc.nanoclouds[0].broker.overload.ladder.level = level
            outcomes = []
            driver = ZoneRoundDriver(
                0, lc, _env(), clock, period_s=30.0,
                on_complete=outcomes.append,
            )
            driver.start(until=30.0)
            clock.run_until(30.0)
            return outcomes[0].result.nc_estimates[0]

        full = run_round(LEVEL_FULL)
        reduced = run_round(LEVEL_REDUCED_M)
        assert full.degraded_level == LEVEL_FULL
        assert reduced.degraded_level == LEVEL_REDUCED_M
        assert reduced.planned_m < full.planned_m
        assert reduced.staleness_rounds == 0


class TestAdmissionControl:
    def _busy_driver(self, *, extra_firings, ladder=False):
        config = _timeout_config(
            admission_control=True, ladder_enabled=ladder
        )
        clock, bus, lc = _deployment(config=config)
        injector = _kill_one_node(lc)
        bus.fault_injector = injector
        injector.clock = clock
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0,
            report_deadline_s=DEADLINE_S, on_complete=outcomes.append,
        )
        driver.start(until=60.0)
        # Extra mid-round firings (operator-requested rounds, say) at
        # t=31, 32, ...: the dead-node round is deadline-bound, so the
        # driver is still collecting and each firing lands busy.
        for i in range(extra_firings):
            clock.schedule_in(31.0 + i, driver._begin_round)
        clock.run_until(80.0)
        return driver, outcomes

    def test_busy_firing_retries_within_budget(self):
        assert BUSY_SKIP_BUDGET >= 2
        driver, outcomes = self._busy_driver(extra_firings=1)
        # t=31 busy -> retry at 38.5 (still collecting until the t=39
        # deadline), the second busy skip and still within budget ->
        # second retry at 46 finds the driver idle.
        assert driver.rounds_skipped == 2
        assert driver.rounds_rescheduled == 2
        assert [o.started_at for o in outcomes] == [30.0, 46.0, 60.0]

    def test_over_budget_skips_escalate_instead_of_retrying(self):
        driver, outcomes = self._busy_driver(
            extra_firings=BUSY_SKIP_BUDGET, ladder=True
        )
        # The retry at 38.5 is busy skip BUSY_SKIP_BUDGET + 1 in a row and
        # blows the budget: no further retry, the skip is treated as
        # pressure on the ladder.
        assert driver.rounds_skipped == BUSY_SKIP_BUDGET + 1
        assert driver.rounds_rescheduled == 1
        assert driver.overload.pressure_skips >= 1
        assert driver.overload.ladder.level >= LEVEL_REDUCED_M


class TestFailoverCarryOver:
    def test_promoted_broker_inherits_breaker_and_ladder(self):
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
            overload=OverloadConfig(
                breaker_enabled=True, ladder_enabled=True
            ),
        )
        clock, bus, lc = _deployment(config=config)
        nc = lc.nanoclouds[0]
        old = nc.broker
        # Mid-degradation state: breaker OPEN, ladder at coarse.
        controller = old.overload
        controller.ladder.level = LEVEL_COARSE
        for _ in range(BREAKER_FAILURES):
            controller.breaker.record_failure()
        assert controller.breaker.state is BreakerState.OPEN

        # Heartbeat failover: crash the broker address and prepare the
        # next round — the NanoCloud promotes the healthiest member.
        crash = CrashSchedule()
        crash.crash(old.broker_id, at=10.0)
        bus.fault_injector = FaultInjector(crash, clock=clock)
        promoted = nc.prepare_round(20.0)
        assert promoted.broker_id != old.broker_id

        # The whole controller travelled: same object, same state.
        assert promoted.overload is controller
        assert promoted.overload.breaker.state is BreakerState.OPEN
        assert promoted.overload.ladder.level == LEVEL_COARSE

        # And the driver's view follows the promotion.
        driver = ZoneRoundDriver(0, lc, _env(), clock, period_s=30.0)
        assert driver.overload is controller


def _scenario_estimates(overload: OverloadConfig, seed: int):
    """One three-round deferred-mode scenario; returns per-round
    estimate payloads plus the bus traffic counters."""
    config = BrokerConfig(
        policy=CompressionPolicy(mode="dense"), overload=overload
    )
    clock, bus, lc = _deployment(config=config, rng=seed)
    outcomes = []
    driver = ZoneRoundDriver(
        0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
    )
    driver.start(until=90.0)
    clock.run_until(120.0)
    payload = [
        (
            o.started_at,
            o.completed_at,
            [e.field.grid.copy() for e in o.result.nc_estimates],
            [e.plan.locations.copy() for e in o.result.nc_estimates],
            [e.planned_m for e in o.result.nc_estimates],
            [e.degraded_level for e in o.result.nc_estimates],
            [e.staleness_rounds for e in o.result.nc_estimates],
        )
        for o in outcomes
    ]
    stats = (bus.stats.messages, bus.stats.bytes, dict(bus.stats.by_kind))
    return payload, stats


class TestDefaultOffBitIdentity:
    """The default config can never perturb a round (Hypothesis pin)."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_default_config_matches_inert_tuned_config(self, seed):
        # Arm A: the stock default (all overload features off).
        payload_a, stats_a = _scenario_estimates(OverloadConfig(), seed)
        # Arm B: same seed, aggressively re-tuned thresholds but every
        # feature flag still off — if any disabled code path consulted
        # a threshold, these runs would diverge.
        payload_b, stats_b = _scenario_estimates(
            OverloadConfig(queue_high=0.001, coarse_sparsity_cap=1),
            seed,
        )
        assert stats_a == stats_b
        assert len(payload_a) == len(payload_b) == 3
        for round_a, round_b in zip(payload_a, payload_b):
            assert round_a[0] == round_b[0]
            assert round_a[1] == round_b[1]
            for grid_a, grid_b in zip(round_a[2], round_b[2]):
                assert np.array_equal(grid_a, grid_b)  # bit-identical
            for loc_a, loc_b in zip(round_a[3], round_b[3]):
                assert np.array_equal(loc_a, loc_b)
            assert round_a[4:] == round_b[4:]
