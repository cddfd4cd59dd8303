"""Real-traffic ingestion gateway: live devices behind the middleware.

The gateway is the socket face of the stack: a hand-rolled asyncio
WebSocket/HTTP server (:mod:`repro.gateway.server`) accepts per-stream
device connections on ``/sensor/connect``, turns their JSON frames into
bus traffic for a live NanoCloud riding a
:class:`repro.network.bus.MessageBus` whose deliveries are scheduled on
a :class:`repro.sim.wallclock.WallClock`, and drives real sensing
rounds with an *unmodified*
:class:`repro.middleware.rounds.ZoneRoundDriver` on that clock.  A
query frontend serves the latest zone estimates (``/zones/latest``) and
the bus's traffic accounting (``/stats``).
:mod:`repro.gateway.loadgen` replays seeded sensor traces from
thousands of concurrent WebSocket clients against it — the INGEST
bench's traffic source.

Production hardening lives in the same server: its
:class:`~repro.gateway.server.ResilienceConfig` (default-off) arms
ping/pong liveness probing, seeded resume tokens that let reconnecting
devices reclaim their node identity and trust state, accept-time
admission control (HTTP 503 / WebSocket close 1013) and per-session
rate limiting; the load generator grows matching client-side reconnect
with capped backoff + resume replay; and :mod:`repro.gateway.chaos`
provides the seeded socket fault injector (connection kills, frame
delay/truncation, reconnect storms) the ROB-GATE bench drives both
through.
"""

from .chaos import ChaosConfig, ChaosProxy
from .loadgen import LoadGenerator, LoadReport
from .server import GatewayConfig, IngestionGateway, ResilienceConfig
from .streams import GatewayNode

__all__ = [
    "ChaosConfig",
    "ChaosProxy",
    "GatewayConfig",
    "IngestionGateway",
    "GatewayNode",
    "LoadGenerator",
    "LoadReport",
    "ResilienceConfig",
]
