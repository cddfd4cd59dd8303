"""INGEST — the real-socket ingestion gateway under a device fleet.

PR 8's acceptance bench: an :class:`repro.gateway.server
.IngestionGateway` (real WebSocket frontend, a MessageBus and an
unmodified ZoneRoundDriver on the wall clock) is driven by the seeded
:class:`repro.gateway.loadgen.LoadGenerator` at increasing fleet sizes,
up to ≥1k concurrent clients in the full run.  Two measurements per
step:

- **sustained ingest rate**: device reading frames decoded and applied
  per second of wall time (plus the bus's own message counter for
  the middleware traffic they generate), and
- **command→estimate latency**: the round driver's measured p50/p99
  from SENSE_COMMAND fan-out to the finalized ZoneEstimate — the
  end-to-end figure a live query sees, over real sockets and real time.

Results go to ``benchmarks/results/INGEST-*.txt`` and are merged into
``BENCH_INGEST.json`` at the repo root.  Smoke mode
(``REPRO_INGEST_SMOKE=1``) shrinks the fleet and drops the rate
assertions so CI can execute the full socket path on shared runners.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import GatewayConfig, IngestionGateway

from _util import record_series

SMOKE = os.environ.get("REPRO_INGEST_SMOKE", "") not in ("", "0")
BENCH_JSON = (
    Path(__file__).resolve().parent / "results" / "BENCH_INGEST.smoke.json"
    if SMOKE
    else Path(__file__).resolve().parent.parent / "BENCH_INGEST.json"
)

#: Concurrent WebSocket devices per step; the full run's top step is
#: the ≥1k-client acceptance point.
FLEET_STEPS = (10, 50) if SMOKE else (100, 400, 1000)
DURATION_S = 1.5 if SMOKE else 6.0
RATE_HZ = 2.0
ZONE_EDGE = 8 if SMOKE else 16
PERIOD_S = 0.3 if SMOKE else 0.5


def _run_step(n_clients: int) -> dict:
    """One fleet size: fresh gateway + seeded fleet, measured run."""
    gateway = IngestionGateway(
        GatewayConfig(
            zone_width=ZONE_EDGE,
            zone_height=ZONE_EDGE,
            period_s=PERIOD_S,
            seed=7,
        )
    )

    async def scenario():
        await gateway.start()
        load = LoadGenerator(
            "127.0.0.1",
            gateway.port,
            n_clients=n_clients,
            rate_hz=RATE_HZ,
            zone_width=ZONE_EDGE,
            zone_height=ZONE_EDGE,
            seed=3,
            connect_concurrency=128,
        )
        report = await load.run(DURATION_S)
        stats = gateway.stats()
        await gateway.stop()
        return report, stats

    try:
        report, stats = gateway.clock.run_until_complete(scenario())
    finally:
        gateway.clock.close()
    return {
        "clients": n_clients,
        "connected": report.connected,
        "failures": report.failures,
        "duration_s": DURATION_S,
        "frames_in": stats["frames_in"],
        "ingest_msgs_per_s": stats["frames_in"] / DURATION_S,
        "transport_msgs": stats["transport"]["messages"],
        "rounds_completed": stats["rounds_completed"],
        "latency_p50_s": stats["round_latency_p50_s"],
        "latency_p99_s": stats["round_latency_p99_s"],
    }


def test_ingest_gateway_fleet(benchmark):
    runs = [_run_step(n) for n in FLEET_STEPS]

    for run in runs:
        # Every step must actually connect its whole fleet and complete
        # estimate-producing rounds with measured latency.
        assert run["connected"] == run["clients"]
        assert run["failures"] == 0
        assert run["rounds_completed"] >= 2
        assert run["frames_in"] > 0
        assert 0.0 < run["latency_p50_s"] <= run["latency_p99_s"]
    if not SMOKE:
        top = runs[-1]
        assert top["clients"] >= 1000
        # The fleet nominally offers clients*RATE_HZ readings/s; demand
        # at least half of that actually ingested, sustained.
        assert top["ingest_msgs_per_s"] >= 0.5 * top["clients"] * RATE_HZ
        # Rounds must keep making their period under the full fleet.
        assert top["latency_p99_s"] <= PERIOD_S

    record_series(
        "INGEST-FLEET",
        "gateway ingest rate and command→estimate latency vs fleet size",
        [
            "clients", "connected", "frames_in", "msgs_per_s",
            "transport_msgs", "rounds", "p50_s", "p99_s",
        ],
        [
            [
                run["clients"], run["connected"], run["frames_in"],
                run["ingest_msgs_per_s"], run["transport_msgs"],
                run["rounds_completed"], run["latency_p50_s"],
                run["latency_p99_s"],
            ]
            for run in runs
        ],
        notes=(
            f"{DURATION_S:.1f}s per step at {RATE_HZ:.0f} Hz/client, "
            f"{ZONE_EDGE}x{ZONE_EDGE} zone, {PERIOD_S}s rounds, real "
            "WebSocket clients over localhost TCP"
            + ("; SMOKE sizes" if SMOKE else "")
        ),
    )
    document = {
        "schema": "bench-ingest/1",
        "smoke": SMOKE,
        "rate_hz_per_client": RATE_HZ,
        "zone_edge": ZONE_EDGE,
        "period_s": PERIOD_S,
        "runs": runs,
    }
    BENCH_JSON.parent.mkdir(exist_ok=True)
    BENCH_JSON.write_text(json.dumps(document, indent=2) + "\n")

    # One small timed step for the pytest-benchmark record.
    benchmark.pedantic(
        _run_step, args=(FLEET_STEPS[0],), rounds=1, iterations=1
    )
