#!/usr/bin/env python3
"""One zone under a 10x traffic flood: brownout instead of cliff.

A background CONTEXT_SHARE flood swamps the zone broker at ten times
its per-round service budget.  With the overload protection armed —
bounded priority inboxes on the bus, the EWMA pressure detector and the
graceful-degradation ladder on the broker — the zone sheds the bulk
traffic (accounted as ``backpressure`` losses, commands always
outliving shares), walks down the ladder (full fidelity -> reduced M ->
coarse -> stale serving), and keeps answering every round slot.  When
the flood stops, the ladder climbs back to full fidelity on its own.

Run:  python examples/overload_zone.py
"""

from repro.fields.generators import smooth_field
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.localcloud import LocalCloud
from repro.middleware.overload import OverloadConfig
from repro.middleware.rounds import ZoneRoundDriver
from repro.network.bus import BACKPRESSURE_REASON, MessageBus
from repro.network.message import Message, MessageKind
from repro.sensors.base import Environment
from repro.sim.clock import SimClock

W, H = 6, 4
PERIOD_S = 30.0
SERVICE = 12  # backlog messages the broker consumes per round slot
FLOOD = 10 * SERVICE  # offered load: 10x the service budget
FLOOD_ROUNDS = 5
CALM_ROUNDS = 11
LEVEL_NAMES = {0: "full", 1: "reduced-M", 2: "coarse", 3: "stale"}


def main() -> None:
    env = Environment(
        fields={
            "temperature": smooth_field(
                W, H, cutoff=0.3, amplitude=3.0, offset=20.0, rng=0
            )
        }
    )
    clock = SimClock()
    bus = MessageBus(inbox_capacity=60, drop_policy="priority")
    bus.attach_clock(clock, "link")
    config = BrokerConfig(
        policy=CompressionPolicy(mode="dense"),
        overload=OverloadConfig(
            admission_control=True,
            breaker_enabled=True,
            ladder_enabled=True,
            queue_high=float(SERVICE),
        ),
    )
    lc = LocalCloud(
        "lc0", bus, W, H, n_nanoclouds=1, nodes_per_nc=18,
        config=config, heterogeneous=False, rng=5,
    )
    broker_id = lc.nanoclouds[0].broker.broker_id
    flood_source = sorted(lc.nanoclouds[0].nodes)[0]

    def flood(now: float) -> None:
        for i in range(FLOOD):
            bus.send(
                Message(
                    kind=MessageKind.CONTEXT_SHARE,
                    source=flood_source,
                    destination=broker_id,
                    payload={"kind": "noise", "value": float(i)},
                    timestamp=now,
                ),
                strict=False,
            )

    def on_complete(outcome) -> None:
        # Broker service budget: consume SERVICE backlog messages per
        # slot, re-enqueue the rest through the bounded bus API.
        for message in bus.endpoint(broker_id).drain()[SERVICE:]:
            bus.requeue(message)
        snapshot = driver.overload.snapshot()
        kind = "stale " if outcome.stale else "sensed"
        estimate = outcome.result.nc_estimates[0]
        print(
            f"  t={outcome.completed_at:6.1f}  {kind}  "
            f"level={LEVEL_NAMES[snapshot['level']]:<9}  "
            f"m={estimate.plan.m:2d}/{estimate.planned_m:<2d}  "
            f"staleness={estimate.staleness_rounds}  "
            f"queue_pressure={snapshot['pressure']:.2f}"
        )

    driver = ZoneRoundDriver(
        0, lc, env, clock, period_s=PERIOD_S, on_complete=on_complete
    )
    total_rounds = FLOOD_ROUNDS + CALM_ROUNDS
    driver.start(until=total_rounds * PERIOD_S)
    clock.schedule_periodic(
        PERIOD_S, flood,
        start=PERIOD_S + 5.0, until=FLOOD_ROUNDS * PERIOD_S + 6.0,
    )

    print(f"zone {W}x{H}: flood of {FLOOD} shares/round "
          f"(10x the service budget of {SERVICE}) for "
          f"{FLOOD_ROUNDS} rounds, then calm\n")
    clock.run_until((total_rounds + 1) * PERIOD_S)

    shed = bus.losses_by_reason[BACKPRESSURE_REASON]
    print(f"\nshed as backpressure: {shed} messages "
          f"(bounded queue, peak {bus.endpoint(broker_id).inbox_peak})")
    print(f"stale slots served: {driver.rounds_stale_served}; "
          f"ladder now back at "
          f"{LEVEL_NAMES[driver.overload.ladder.level]}")
    assert driver.overload.ladder.level == 0
    assert shed > 0
    print("the zone browned out under the flood and recovered after it.")


if __name__ == "__main__":
    main()
