"""A zone round's books, pinned bit for bit, and what one round reads.

Two guarantees of the object-per-node path on the event clock:

1. Every emitted bit is pinned: a sha256 over every field of every
   :class:`repro.sim.engine.RoundRecord`, the bus's
   ``stats.snapshot()`` and ``clock.events_run`` of a small seeded async
   deployment, with link latency, channel loss, a degradation window
   (extra delivery latency), a broker crash (failover rewrites a
   NanoCloud's membership) and random-waypoint mobility (membership
   refresh and field reads off the grid).
2. A zone round pays for its zone: the number of ledger totals read per
   zone round does not grow with the number of zones.
"""

import dataclasses
import hashlib
import json

from repro.analysis import contracts
from repro.energy.accounting import EnergyLedger
from repro.mobility.models import RandomWaypoint
from repro.network.faults import (
    CrashSchedule,
    DegradationWindow,
    FaultInjector,
    IIDLoss,
)
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import smart_building_scenario

EDGE_PER_ZONE = 8
PERIOD_S = 10.0
SIM_S = 40.0

# Taken on the tree before the O(zone) energy roll-up, the single
# per-delivery meter, the tuple event heap and the scalar clamps; every
# one of those changes must leave it exactly as it is.
GOLDEN = {
    "rounds": 16,
    "messages": 307,
    "events_run": 583,
    "sha256": "55990953c32bc9a40f364e59320d076241eaed594d114b1426d78824a13a301b",
}


def _run(zones: int, *, offsets: bool, faults: bool) -> SimulationEngine:
    n_zones = zones * zones
    scenario = smart_building_scenario(
        width=EDGE_PER_ZONE * zones,
        height=EDGE_PER_ZONE * zones,
        zones_x=zones,
        zones_y=zones,
        nodes_per_nc=12,
        zone_periods=dict.fromkeys(range(n_zones), PERIOD_S),
        zone_offsets={
            z: float(z % 10) if offsets else 0.0 for z in range(n_zones)
        },
        latency_mode="link",
        link_latency_s=0.05,
        rng=5,
    )
    mobility = None
    if faults:
        scenario.system.hierarchy.bus.fault_injector = FaultInjector(
            IIDLoss(0.03, seed=1),
            DegradationWindow(15.0, 25.0, extra_latency_s=0.02, seed=2),
            CrashSchedule().crash("lc1/nc0/broker", at=18.0),
        )
        mobility = RandomWaypoint(
            EDGE_PER_ZONE * zones, EDGE_PER_ZONE * zones, rng=3
        )
    engine = SimulationEngine(
        scenario.system,
        mobility=mobility,
        round_mode="async",
        zone_schedules=scenario.schedules,
        latency_mode=scenario.latency_mode,
        report_deadline_s=4.0,
        context_period_s=10.0 * SIM_S,
        rng=5,
    )
    engine.run(SIM_S)
    return engine


class TestGoldenBooks:
    def test_records_stats_and_events_match_committed_digest(self):
        engine = _run(2, offsets=True, faults=True)
        rounds = engine.result.rounds
        snapshot = engine.system.hierarchy.bus.stats.snapshot()
        digest = hashlib.sha256()
        for record in rounds:
            digest.update(repr(dataclasses.astuple(record)).encode())
        digest.update(json.dumps(snapshot, sort_keys=True).encode())
        digest.update(str(engine.clock.events_run).encode())
        assert {
            "rounds": len(rounds),
            "messages": snapshot["messages"],
            "events_run": engine.clock.events_run,
            "sha256": digest.hexdigest(),
        } == GOLDEN


class TestZoneRoundCost:
    def test_ledger_reads_per_round_do_not_grow_with_the_city(
        self, monkeypatch
    ):
        reads = [0]
        total_mj = EnergyLedger.total_mj

        def counted(ledger):
            reads[0] += 1
            return total_mj(ledger)

        monkeypatch.setattr(EnergyLedger, "total_mj", counted)
        # The sanitizer re-sums every cached read on purpose; count the
        # production path.
        monkeypatch.setattr(contracts, "_ENABLED", False)
        per_round = {}
        for zones in (2, 4):
            reads[0] = 0
            # Same phase for every zone: all of a period's sensing posts
            # land before its first round completes, so each NanoCloud's
            # subtotal goes stale exactly once per round.
            engine = _run(zones, offsets=False, faults=False)
            per_round[zones] = reads[0] / len(engine.result.rounds)
        assert per_round[2] == per_round[4] == 12

