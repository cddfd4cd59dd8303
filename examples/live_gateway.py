#!/usr/bin/env python3
"""Live ingestion gateway: real WebSocket devices, real sensing rounds.

Starts an :class:`repro.gateway.server.IngestionGateway` on an
ephemeral localhost port — a real asyncio socket server fronting a
MessageBus and an *unmodified* ZoneRoundDriver, both on the wall clock
— then drives it with a seeded 40-device WebSocket fleet from
:mod:`repro.gateway.loadgen` for a few seconds and queries the results
back over plain HTTP, exactly as an external dashboard would.

To run a long-lived gateway for your own clients instead:

    PYTHONPATH=src python -m repro.gateway --port 8765

Run:  python examples/live_gateway.py
"""

import asyncio
import json

from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import GatewayConfig, IngestionGateway

EDGE = 8
N_DEVICES = 40
DURATION_S = 2.5


async def http_get(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


def main() -> None:
    gateway = IngestionGateway(
        GatewayConfig(
            zone_width=EDGE, zone_height=EDGE, period_s=0.4, seed=7
        )
    )

    async def scenario():
        await gateway.start()
        port = gateway.port
        print(f"gateway listening on 127.0.0.1:{port}")
        fleet = LoadGenerator(
            "127.0.0.1", port,
            n_clients=N_DEVICES, rate_hz=3.0,
            zone_width=EDGE, zone_height=EDGE, seed=3,
        )
        report = await fleet.run(DURATION_S)
        print(
            f"fleet: {report.connected}/{report.clients} devices "
            f"connected, {report.frames_sent} readings pushed, "
            f"{report.commands_seen} sense commands observed"
        )
        latest = await http_get(port, "/zones/latest")
        stats = await http_get(port, "/stats")
        await gateway.stop()
        return latest, stats

    try:
        latest, stats = gateway.clock.run_until_complete(scenario())
    finally:
        gateway.clock.close()

    print(
        f"rounds: {stats['rounds_completed']} completed, "
        f"{stats['rounds_failed']} failed (pre-fleet), "
        f"command→estimate p50 {stats['round_latency_p50_s'] * 1e3:.1f} ms / "
        f"p99 {stats['round_latency_p99_s'] * 1e3:.1f} ms"
    )
    print(
        f"transport: {stats['transport']['messages']} messages, "
        f"{stats['transport']['bytes']} bytes, "
        f"{stats['frames_in']} device frames in / "
        f"{stats['frames_out']} out"
    )
    field = latest["field"]
    estimate = latest["estimates"][0]
    print(
        f"latest estimate: round {latest['round']}, "
        f"{estimate['reports_ok']} live reports, "
        f"{len(field)}x{len(field[0])} grid, "
        f"corner values "
        f"{field[0][0]:.2f} {field[0][-1]:.2f} "
        f"{field[-1][0]:.2f} {field[-1][-1]:.2f}"
    )


if __name__ == "__main__":
    main()
