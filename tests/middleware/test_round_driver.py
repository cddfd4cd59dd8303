"""Event-driven round driver tests: the resumable broker state machine.

Covers the COMMANDING → COLLECTING → SOLVING → FINALIZED lifecycle on a
latency-faithful bus: early completion when every planned cell reports,
partial-report solves at the deadline, per-command timeout retries, and
refusal-driven candidate rotation.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.fields.generators import smooth_field
from repro.middleware.broker import Broker, _Collector
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.localcloud import LocalCloud
from repro.middleware.rounds import (
    REPORT_DEADLINE_S,
    RoundState,
    ZoneRoundDriver,
    ZoneSchedule,
)
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


class TestDriverDeadline:
    def test_defaults_to_the_module_constant(self):
        clock, bus, lc = _deployment()
        driver = ZoneRoundDriver(0, lc, _env(), clock, period_s=30.0)
        assert driver.report_deadline_s == REPORT_DEADLINE_S

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_rejects_nonpositive_deadline(self, deadline):
        clock, bus, lc = _deployment()
        with pytest.raises(ValueError):
            ZoneRoundDriver(
                0, lc, _env(), clock, period_s=30.0,
                report_deadline_s=deadline,
            )


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
        assert 0.0 < outcome.latency_s < driver.report_deadline_s
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
        assert outcome.latency_s < driver.report_deadline_s
        estimate = outcome.result.nc_estimates[0]
        assert estimate.plan.m == 5  # 6 planned cells, one unrealisable
        assert estimate.planned_m == 6
        assert estimate.degraded

    def test_zero_mode_partial_means_an_unrealised_planned_cell(self):
        clock, bus, lc = _deployment(latency_mode="zero")
        bus.unregister(sorted(lc.nanoclouds[0].nodes)[0])
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=30.0)
        clock.run_until(30.0)
        (outcome,) = outcomes
        assert outcome.latency_s == 0.0
        assert outcome.partial
        assert outcome.result.nc_estimates[0].plan.m == 5

    def test_deadline_closes_round_with_infra_fallback(self):
        # The victim node is crash-scheduled down, so its commands are
        # eaten in flight; the per-command timeout chain outlives the
        # report deadline, which closes the round and reads the cell's
        # infrastructure sensor instead.
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
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
            0, lc, _env(), clock, period_s=30.0,
            report_deadline_s=3.0, on_complete=outcomes.append,
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
            report_timeout_s=0.5,
            command_retries=2,
        )
        injector = FaultInjector(CrashSchedule())
        clock, bus, lc = _deployment(config=config, fault_injector=injector)
        victim = sorted(lc.nanoclouds[0].nodes)[0]
        injector.faults[0].crash(victim, 0.0)
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0,
            report_deadline_s=8.0, on_complete=outcomes.append,
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

    def test_refused_cell_counts_no_retry(self):
        # A refusal exhausts its cell at once; the refused command's
        # report timer must not count a retry when it fires later (the
        # round is still open, waiting out a crashed node's retries).
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"),
            report_timeout_s=0.5,
            command_retries=2,
        )
        injector = FaultInjector(CrashSchedule())
        clock, bus, lc = _deployment(config=config, fault_injector=injector)
        nc = lc.nanoclouds[0]
        crashed, refuser = sorted(nc.nodes)[:2]
        injector.faults[0].crash(crashed, 0.0)
        nc.nodes[refuser].policy.blocked_sensors.add("temperature")
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0,
            report_deadline_s=8.0, on_complete=outcomes.append,
        )
        driver.start(until=30.0)
        clock.run_until(60.0)
        estimate = outcomes[0].result.nc_estimates[0]
        assert estimate.reports_refused == 1
        assert estimate.plan.m == 4
        assert estimate.retries_used == 2  # the crashed node's, only

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
            report_timeout_s=4.0,
            command_retries=5,
        )
        injector = FaultInjector(CrashSchedule())
        clock, bus, lc = _deployment(config=config, fault_injector=injector)
        victim = sorted(lc.nanoclouds[0].nodes)[0]
        injector.faults[0].crash(victim, 0.0)
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=10.0, report_deadline_s=12.0,
            on_complete=lambda o: None,
        )
        # deadline clamped below the period so rounds always close
        assert driver.report_deadline_s == pytest.approx(9.0)
        driver.start(until=40.0)
        clock.run_until(60.0)
        assert driver.rounds_completed >= 3
        assert driver.rounds_skipped == 0


class TestRaisingRound:
    """A phase that raises fails its round, not every later one."""

    @pytest.mark.parametrize(
        "phase, latency_mode",
        [
            ("plan_round", "link"),
            ("solve_round", "link"),
            ("solve_round", "zero"),
        ],
    )
    def test_one_raise_in_ten_rounds_fails_only_that_round(
        self, monkeypatch, phase, latency_mode
    ):
        clock, bus, lc = _deployment(latency_mode=latency_mode)
        real = getattr(Broker, phase)
        calls = []

        def planted(broker, *args, **kwargs):
            calls.append(phase)
            if len(calls) == 4:
                raise ValueError("planted")
            return real(broker, *args, **kwargs)

        monkeypatch.setattr(Broker, phase, planted)
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=outcomes.append
        )
        driver.start(until=300.0)
        # SimClock lets the error out of run_until; running on resumes.
        with pytest.raises(ValueError, match="planted"):
            clock.run_until(320.0)
        clock.run_until(320.0)
        assert len(calls) == 10
        assert len(outcomes) == 9
        assert driver.rounds_completed == 9
        assert driver.rounds_failed == 1
        assert driver.rounds_skipped == 0
        assert [o.started_at for o in outcomes] == [
            30.0 * i for i in range(1, 11) if i != 4
        ]

    def test_raising_on_complete_counts_its_round_once(self):
        clock, bus, lc = _deployment()
        outcomes = []

        def on_complete(outcome):
            outcomes.append(outcome)
            if len(outcomes) == 4:
                raise ValueError("planted")

        driver = ZoneRoundDriver(
            0, lc, _env(), clock, period_s=30.0, on_complete=on_complete
        )
        driver.start(until=300.0)
        with pytest.raises(ValueError, match="planted"):
            clock.run_until(320.0)
        clock.run_until(320.0)
        assert len(outcomes) == 10
        assert driver.rounds_completed == 10
        assert driver.rounds_failed == 0


class _Planted(Exception):
    """The raise a :class:`DriverMachine` plants in one round phase."""


class DriverMachine(RuleBasedStateMachine):
    """One driver on a link-latency bus, advanced in random steps, with
    one-shot raises planted in plan, collect, solve and finish and
    out-of-band firings that land on a busy round.  After every step no
    round is half-built, no collector of a round at rest is open, and
    every firing is counted exactly once."""

    # Round phase -> the (class, method) a planted raise replaces: plan
    # and collect raise inside the firing, solve and finish inside the
    # report or deadline event that closes the collection.
    PHASES = {
        "plan": (Broker, "plan_round"),
        "collect": (_Collector, "run"),
        "solve": (Broker, "solve_round"),
        "finish": (LocalCloud, "finish_round"),
    }

    def __init__(self):
        super().__init__()
        self.clock, _, lc = _deployment()
        self.driver = ZoneRoundDriver(
            0, lc, _env(), self.clock, period_s=10.0,
            on_complete=lambda outcome: None,
        )
        self.firings = 0
        self.armed = None
        self.raised_at_generation = None
        self._originals = []
        for phase, (owner, name) in self.PHASES.items():
            real = getattr(owner, name)
            self._originals.append((owner, name, real))
            setattr(owner, name, self._planted(phase, real))
        begin = self.driver._begin_round

        def counted(now):
            self.firings += 1
            begin(now)

        # Bound before start(), so the periodic chain fires through it.
        self.driver._begin_round = counted
        self.driver.start()

    def _planted(self, phase, real):
        def planted(*args, **kwargs):
            if self.armed == phase:
                self.armed = None
                self.raised_at_generation = self.driver._generation
                raise _Planted(phase)
            return real(*args, **kwargs)

        return planted

    def teardown(self):
        for owner, name, real in self._originals:
            setattr(owner, name, real)

    @rule(phase=st.sampled_from(sorted(PHASES)))
    def arm(self, phase):
        self.armed = phase

    def _run(self, advance):
        """Call ``advance`` until it returns, checking each planted raise
        it lets out (SimClock re-raises, and running on resumes)."""
        while True:
            failed = self.driver.rounds_failed
            try:
                return advance()
            except _Planted:
                # The raise failed its round and nothing else: the
                # generation moved past it (voiding its deadline), the
                # driver is idle and the failure was counted once.
                assert self.driver.state is RoundState.IDLE
                assert self.driver._generation > self.raised_at_generation
                assert self.driver.rounds_failed == failed + 1

    @rule(dt=st.floats(min_value=1e-3, max_value=25.0))
    def advance(self, dt):
        end = self.clock.now + dt
        self._run(lambda: self.clock.run_until(end))

    @rule()
    def step(self):
        # One event: a firing, a report or a deadline — so the machine
        # also rests mid-round, where a busy firing can land.
        self._run(self.clock.step)

    @precondition(lambda self: self.driver.state is RoundState.COLLECTING)
    @rule()
    def fire_while_busy(self):
        self.clock.schedule_in(0.0, self.driver._begin_round)

    @invariant()
    def at_rest_between_events(self):
        assert self.driver.state in (
            RoundState.IDLE, RoundState.COLLECTING, RoundState.FINALIZED
        )

    @invariant()
    def no_collector_left_open(self):
        if self.driver.state is not RoundState.COLLECTING:
            assert all(
                col is None or col.closed for col in self.driver._collections
            )

    @invariant()
    def every_firing_counted_once(self):
        d = self.driver
        in_flight = int(d.state is RoundState.COLLECTING)
        assert (
            d.rounds_completed + d.rounds_failed + d.rounds_idle
            + d.rounds_skipped + in_flight
        ) == self.firings


DriverMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestDriverStateMachine = DriverMachine.TestCase


class TestLinkModeHonoursConfig:
    """Collector settings hold on a latency-faithful bus too."""

    def test_unsuppressed_cells_average_every_colocated_report(self):
        config = BrokerConfig(
            policy=CompressionPolicy(mode="dense"), suppress_redundant=False
        )
        clock, bus, lc = _deployment(config=config, nodes_per_nc=16)
        nc = lc.nanoclouds[0]
        # Two phones on each of the 8 cells (zone height 2).
        for index, node_id in enumerate(sorted(nc.nodes)):
            cell = index // 2
            nc.nodes[node_id].state.x = float(cell // 2)
            nc.nodes[node_id].state.y = float(cell % 2)
        frozen = []
        finish_round = lc.finish_round

        def spy(pairs, solved, timestamp):
            frozen.extend(pending for _, pending in pairs)
            return finish_round(pairs, solved, timestamp)

        lc.finish_round = spy
        driver = ZoneRoundDriver(0, lc, _env(), clock, period_s=30.0)
        driver.start(until=30.0)
        clock.run_until(45.0)
        assert driver.rounds_completed == 1
        (pending,) = frozen
        assert pending.locations.size == 8
        assert [len(row) for row in pending.sources] == [2] * 8

    def test_topup_keeps_a_lossy_round_near_the_plan(self):
        clock = SimClock()
        bus = MessageBus(loss_rate=0.3, seed=4)
        bus.attach_clock(clock, "link")
        config = BrokerConfig(
            command_retries=1,
            topup_resampling=True,
            report_timeout_s=1.0,
        )
        lc = LocalCloud(
            "lc0", bus, 8, 6, n_nanoclouds=1, nodes_per_nc=48,
            config=config, heterogeneous=False, rng=5,
        )
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, _env(8, 6), clock, period_s=100.0,
            report_deadline_s=60.0, measurements_per_nc=[20],
            on_complete=outcomes.append,
        )
        driver.start(until=300.0)
        clock.run_until(400.0)
        assert len(outcomes) == 3
        for outcome in outcomes:
            (estimate,) = outcome.result.nc_estimates
            assert estimate.planned_m == 20
            assert estimate.effective_m >= 0.9 * estimate.planned_m


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
        ledger = broker.trust
        # It was quarantined (stuck through t<100), probed after the
        # sensor recovered, and released once trust climbed back.
        assert ledger.probes[ledger.slot(bad_id)] >= 1
        assert not ledger.is_quarantined(bad_id)
        assert ledger.trust_of(bad_id) >= ledger.release_at
        bad_commands = [t for t, dest in sent if dest == bad_id]
        # Commanded again as a regular candidate after release.
        assert max(bad_commands) > 400.0
