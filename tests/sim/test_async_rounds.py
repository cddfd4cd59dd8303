"""Event-driven rounds: zero-mode equivalence, determinism, async engine.

The acceptance contract of the event-driven round pipeline:

1. With ``latency_mode="zero"`` the event-driven drivers reproduce the
   synchronous lockstep rounds *bit-identically* — same zone estimates,
   same sampling plans, same traffic counters (property-tested across
   seeds and zone layouts).
2. With nonzero link latency, loss, and different per-zone periods and
   offsets, a run is deterministic: the same seed replays the same
   :class:`repro.sim.engine.SimulationResult` event for event.
3. The async engine records per-zone rounds with the simulated
   command-to-estimate latency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields.generators import smooth_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.sensors.base import Environment
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import ZoneSchedule, smart_building_scenario


def _system(seed, zones_x=2, zones_y=1, nodes_per_nc=10, width=16, height=8):
    gen = np.random.default_rng(seed)
    truth = smooth_field(
        width, height, cutoff=0.2, amplitude=4.0, offset=20.0,
        rng=gen.integers(2**31),
    )
    env = Environment(fields={"temperature": truth})
    system = SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=zones_x, zones_y=zones_y, nodes_per_nanocloud=nodes_per_nc
        ),
        broker_config=BrokerConfig(),
        rng=gen.integers(2**31),
    )
    return env, system


def _estimates_identical(lcr_a, lcr_b) -> bool:
    """Bit-exact comparison of two LocalCloudResults."""
    if not np.array_equal(lcr_a.field.grid, lcr_b.field.grid):
        return False
    for ea, eb in zip(lcr_a.nc_estimates, lcr_b.nc_estimates):
        if not np.array_equal(ea.reconstruction.x_hat, eb.reconstruction.x_hat):
            return False
        if not np.array_equal(ea.plan.locations, eb.plan.locations):
            return False
        if (
            ea.sparsity_estimate != eb.sparsity_estimate
            or ea.planned_m != eb.planned_m
            or ea.reports_ok != eb.reports_ok
            or ea.reports_refused != eb.reports_refused
            or ea.infra_reads != eb.infra_reads
            or ea.commands_lost != eb.commands_lost
            or ea.reports_lost != eb.reports_lost
            or ea.retries_used != eb.retries_used
        ):
            return False
    return True


class TestZeroModeBitIdentity:
    """latency_mode="zero" event-driven == synchronous lockstep."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_drivers_reproduce_lockstep_rounds(self, seed):
        period = 30.0
        times = (30.0, 60.0, 90.0)

        # Arm A: the synchronous lockstep path.
        env_a, sys_a = _system(seed)
        results_a = [
            sys_a.hierarchy.run_global_round(env_a, t) for t in times
        ]

        # Arm B: event-driven drivers in zero mode on the same cadence.
        env_b, sys_b = _system(seed)
        clock = SimClock()
        sys_b.hierarchy.bus.attach_clock(clock, "zero")
        outcomes = []
        drivers = sys_b.hierarchy.async_drivers(
            env_b, clock, default_period_s=period,
            on_complete=outcomes.append,
        )
        for zone_id in sorted(drivers):
            drivers[zone_id].start(until=times[-1])
        clock.run_until(times[-1])

        by_zone = {}
        for outcome in outcomes:
            by_zone.setdefault(outcome.zone_id, []).append(outcome)
        for i, global_estimate in enumerate(results_a):
            for zone_id, lcr_a in global_estimate.zone_results.items():
                outcome = by_zone[zone_id][i]
                assert outcome.started_at == global_estimate.timestamp
                assert outcome.latency_s == 0.0
                assert not outcome.partial
                assert _estimates_identical(lcr_a, outcome.result)

        # Traffic accounting: counts and bytes bit-exact globally and
        # per endpoint; energy/latency sums only reorder across zones
        # (float addition is not associative), so compare tightly.
        stats_a = sys_a.hierarchy.bus.stats
        stats_b = sys_b.hierarchy.bus.stats
        assert stats_a.messages == stats_b.messages
        assert stats_a.bytes == stats_b.bytes
        assert dict(stats_a.by_kind) == dict(stats_b.by_kind)
        assert stats_a.transmit_energy_mj == pytest.approx(
            stats_b.transmit_energy_mj, rel=1e-12
        )
        assert stats_a.latency_sum_s == pytest.approx(
            stats_b.latency_sum_s, rel=1e-12
        )
        assert sys_a.hierarchy.bus.messages_lost == (
            sys_b.hierarchy.bus.messages_lost
        )
        bus_a, bus_b = sys_a.hierarchy.bus, sys_b.hierarchy.bus
        for address in bus_a.addresses:
            ep_a, ep_b = bus_a.endpoint(address), bus_b.endpoint(address)
            assert ep_a.stats.messages == ep_b.stats.messages
            assert ep_a.stats.bytes == ep_b.stats.bytes
            assert ep_a.outbound_lost == ep_b.outbound_lost
            assert ep_a.inbound_lost == ep_b.inbound_lost

        # Node-side energy (sensing posts) must also agree bit-exactly.
        assert sys_a.hierarchy.total_node_energy_mj() == (
            sys_b.hierarchy.total_node_energy_mj()
        )


def _async_result(seed=7):
    """One two-zone async run: different periods/offsets, real latency,
    channel loss — returns (engine, result)."""
    scenario = smart_building_scenario(
        width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=10,
        zone_periods={0: 20.0, 1: 30.0},
        zone_offsets={0: 5.0, 1: 12.0},
        latency_mode="link",
        link_latency_s=0.3,
        rng=seed,
    )
    bus = scenario.system.hierarchy.bus
    bus.loss_rate = 0.05
    bus._loss_rng.seed(99)  # the hierarchy builds its bus unseeded
    engine = SimulationEngine(
        scenario.system,
        round_mode="async",
        zone_schedules=scenario.schedules,
        latency_mode=scenario.latency_mode,
        report_deadline_s=8.0,
        rng=3,
    )
    result = engine.run(120.0)
    return engine, result


class TestAsyncDeterminism:
    def test_same_seed_identical_simulation_result(self):
        _, first = _async_result(seed=7)
        _, second = _async_result(seed=7)
        assert first.rounds == second.rounds


class TestAsyncEngine:
    def test_zones_run_on_own_periods_with_latency(self):
        engine, result = _async_result(seed=7)
        by_zone = result.rounds_by_zone()
        assert set(by_zone) == {0, 1}
        # Zone 0: offset 5, period 20 -> starts 5, 25, 45, ...
        starts_0 = [r.timestamp for r in by_zone[0]]
        assert starts_0[:3] == [5.0, 25.0, 45.0]
        # Zone 1: offset 12, period 30 -> starts 12, 42, 72, ...
        starts_1 = [r.timestamp for r in by_zone[1]]
        assert starts_1[:3] == [12.0, 42.0, 72.0]
        # Real link latency: every round takes simulated time and every
        # record carries it.
        for record in result.rounds:
            assert record.round_latency_s > 0.0
            assert record.zone_id in (0, 1)
        assert result.mean_round_latency_s() > 0.0

    def test_per_zone_errors_are_reasonable(self):
        _, result = _async_result(seed=7)
        # Lossy channel and partial rounds allowed; the estimates must
        # still track the truth per zone.
        assert result.mean_error() < 0.5

    def test_lockstep_mode_unchanged_by_default(self):
        scenario = smart_building_scenario(
            width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=10,
            rng=5,
        )
        engine = SimulationEngine(scenario.system, rng=3)
        assert engine.round_mode == "lockstep"
        result = engine.run(60.0)
        # Lockstep records keep the defaults for the async-only fields.
        assert all(r.zone_id == -1 for r in result.rounds)
        assert all(r.round_latency_s == 0.0 for r in result.rounds)

    def test_async_engine_rejects_unknown_mode(self):
        scenario = smart_building_scenario(
            width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=10,
            rng=5,
        )
        with pytest.raises(ValueError):
            SimulationEngine(scenario.system, round_mode="warp")


class TestScenarioKnobs:
    def test_schedules_built_from_period_and_offset_maps(self):
        scenario = smart_building_scenario(
            width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=10,
            zone_periods={0: 20.0}, zone_offsets={1: 7.0}, rng=5,
        )
        assert scenario.schedules[0] == ZoneSchedule(period_s=20.0)
        assert scenario.schedules[1] == ZoneSchedule(
            period_s=30.0, offset_s=7.0
        )

    def test_no_knobs_means_no_schedules(self):
        scenario = smart_building_scenario(
            width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=10,
            rng=5,
        )
        assert scenario.schedules is None
        assert scenario.latency_mode == "zero"

    def test_link_latency_override_applies_everywhere(self):
        scenario = smart_building_scenario(
            width=16, height=8, zones_x=2, zones_y=1, nodes_per_nc=10,
            link_latency_s=0.25, rng=5,
        )
        bus = scenario.system.hierarchy.bus
        assert bus.default_link.base_latency_s == 0.25
        for address in bus.addresses:
            assert bus.endpoint(address).link.base_latency_s == 0.25
