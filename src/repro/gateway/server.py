"""The ingestion gateway: live WebSocket devices behind a real NanoCloud.

One :class:`IngestionGateway` owns the whole socket-facing stack:

- an :class:`repro.network.asyncio_transport.AsyncioTransport` (the
  socket backend of the Transport seam) carrying all middleware traffic,
- a :class:`repro.sim.wallclock.WallClock` on the same event loop,
- one zone — broker + (initially empty) NanoCloud wrapped by
  :meth:`repro.middleware.localcloud.LocalCloud.from_nanoclouds` — whose
  membership is the set of currently connected devices,
- an **unmodified** :class:`repro.middleware.rounds.ZoneRoundDriver`
  running real sensing rounds on the wall clock, and
- a hand-rolled HTTP/WebSocket server (:mod:`repro.gateway.protocol`):

  - ``GET /sensor/connect?type=...&x=...&y=...&mode=...`` upgrades to a
    per-device WebSocket stream; JSON frames carry readings/moves down
    and SENSE_COMMAND notifications up,
  - ``GET /zones/latest`` serves the newest zone estimate (the query
    frontend),
  - ``GET /stats`` serves the transport's ``stats_snapshot()`` plus
    gateway, resilience, overload and round telemetry,
  - ``GET /field/truth`` serves the synthetic ground-truth grid (load
    generators sample it), and ``GET /healthz`` answers liveness (plus
    the admission/overload state a load balancer would key on).

**Session resilience** (:class:`ResilienceConfig`, all default-off so
the PR-8 calm path is byte-identical): server-initiated ping/pong
liveness probes with idle-deadline dead-peer eviction, seeded resume
tokens that park a disconnected device's state — node identity, broker
membership, trust/quarantine standing, cached reading — for
``resume_ttl_s`` so a reconnect reclaims it instead of being churned
and re-admitted as a stranger, accept-time admission control (plain
HTTP 503 / WebSocket close 1013 when over capacity or degraded past
``shed_at_level``), and per-session token-bucket inbound rate limiting.
The session lifecycle state machine is documented in
``docs/architecture.md``.

This module is on reprolint RPR002's sanctioned realtime-module
allowlist (see ``docs/invariants.md``).
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field

import numpy as np

from ..fields.generators import smooth_field
from ..middleware.broker import Broker
from ..middleware.config import BrokerConfig
from ..middleware.localcloud import LocalCloud
from ..middleware.nanocloud import NanoCloud
from ..middleware.overload import MAX_LEVEL
from ..middleware.rounds import ZoneRoundDriver, ZoneRoundOutcome
from ..network.asyncio_transport import AsyncioTransport
from ..sensors.base import Environment, NodeState
from ..sensors.physical import TemperatureSensor
from ..sim.wallclock import WallClock, WallPeriodicHandle
from . import protocol
from .streams import STREAM_MODES, GatewayNode, parse_device_frame

__all__ = ["GatewayConfig", "ResilienceConfig", "IngestionGateway"]

#: Eviction books start from these reasons so ``/stats`` always shows
#: every counter, including the zero ones.
_EVICTION_REASONS = ("idle", "reset", "shed", "expired")

#: Bytes a device session reads, and so the most work it does, per turn
#: of the event loop.  Measured on the layered bench's flood (one device
#: at ~1.9x the old capacity): 4 KiB keeps ``/zones/latest`` p50 within
#: 3x its unloaded latency, 16 KiB does not, and capacity is the same —
#: a property of the loop, not of a deployment, hence not a config field.
_READ_BUDGET = 4096


@dataclass(frozen=True)
class ResilienceConfig:
    """Session-lifecycle hardening knobs (all default-off).

    Attributes
    ----------
    ping_interval_s:
        Server-initiated WebSocket ping cadence (0 = never ping).
        Pings and any inbound frame refresh the session's liveness
        stamp; a responsive device therefore survives arbitrarily long
        idle spells.
    idle_timeout_s:
        Dead-peer deadline: a session whose last inbound frame (data,
        ping or pong) is older than this is evicted with close code
        1001 (0 = never evict on idleness).  Meaningful with pings
        armed at a shorter interval, but also works alone for
        push-only devices.
    resume_enabled:
        Issue a seeded resume token in the ``joined`` frame and *park*
        disconnected sessions instead of churning them: node identity,
        broker membership, trust/quarantine standing and the cached
        reading all survive, and a reconnect presenting the token
        reattaches to them (``resumed`` frame).
    resume_ttl_s:
        How long a parked session waits for its device before the
        state is churned for real (eviction reason ``expired``).
    max_sessions:
        Accept-time admission cap on live device sessions (0 = no
        cap).  Over the cap, plain HTTP connects get 503 and WebSocket
        upgrades get an RFC 6455 close with code 1013 ("try again
        later") immediately after the handshake.
    shed_at_level:
        Shed new connections whenever the broker's degradation ladder
        (PR 6) sits at or above this level (0 = never).  This is the
        gateway-side wiring of the overload controller: an overloaded
        zone stops *accepting* load before it starts dropping it.
    rate_limit_hz / rate_limit_burst:
        Per-session token bucket on inbound device frames: sustained
        rate and burst allowance.  Frames over budget are dropped and
        counted (``frames_rate_limited``), not disconnected — shedding
        excess readings is cheaper than churning the member
        (0 Hz = unlimited).
    """

    ping_interval_s: float = 0.0
    idle_timeout_s: float = 0.0
    resume_enabled: bool = False
    resume_ttl_s: float = 30.0
    max_sessions: int = 0
    shed_at_level: int = 0
    rate_limit_hz: float = 0.0
    rate_limit_burst: int = 8

    def __post_init__(self) -> None:
        if self.ping_interval_s < 0:
            raise ValueError("ping_interval_s must be non-negative")
        if self.idle_timeout_s < 0:
            raise ValueError("idle_timeout_s must be non-negative")
        if self.resume_ttl_s <= 0:
            raise ValueError("resume_ttl_s must be positive")
        if self.max_sessions < 0:
            raise ValueError("max_sessions must be non-negative")
        if not 0 <= self.shed_at_level <= MAX_LEVEL:
            raise ValueError(
                f"shed_at_level must be in [0, {MAX_LEVEL}]"
            )
        if self.rate_limit_hz < 0:
            raise ValueError("rate_limit_hz must be non-negative")
        if self.rate_limit_burst < 1:
            raise ValueError("rate_limit_burst must be >= 1")

    @property
    def any_enabled(self) -> bool:
        """True when any resilience feature can alter gateway behavior."""
        return (
            self.ping_interval_s > 0
            or self.idle_timeout_s > 0
            or self.resume_enabled
            or self.max_sessions > 0
            or self.shed_at_level > 0
            or self.rate_limit_hz > 0
        )

    @property
    def sweep_interval_s(self) -> float:
        """Cadence of the session-lifecycle sweep (0 = sweep not armed)."""
        candidates = [
            interval
            for interval in (
                self.ping_interval_s,
                self.idle_timeout_s / 2.0,
                self.resume_ttl_s / 4.0 if self.resume_enabled else 0.0,
            )
            if interval > 0.0
        ]
        return max(0.05, min(candidates)) if candidates else 0.0


@dataclass(frozen=True)
class GatewayConfig:
    """Deployment shape and cadence of one ingestion gateway."""

    zone_width: int = 8
    zone_height: int = 8
    sensor_name: str = "temperature"
    period_s: float = 0.5
    max_staleness_s: float = 5.0
    #: Fixed sensors installed every N cells (0 = none): the fallback
    #: that keeps rounds solvable while few devices are connected.
    infrastructure_every: int = 0
    field_cutoff: float = 0.3
    field_amplitude: float = 3.0
    field_offset: float = 20.0
    seed: int = 0
    broker: BrokerConfig | None = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self) -> None:
        if self.zone_width < 1 or self.zone_height < 1:
            raise ValueError("zone dimensions must be positive")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.infrastructure_every < 0:
            raise ValueError("infrastructure_every must be non-negative")


class _DeviceSession:
    """Book-keeping for one connected (or parked) WebSocket device."""

    def __init__(
        self,
        node: GatewayNode,
        writer: asyncio.StreamWriter,
        *,
        connected_at: float = 0.0,
        resume_token: str | None = None,
        bucket_capacity: int = 8,
    ) -> None:
        self.node = node
        self.writer = writer
        self.frames_in = 0
        self.connected_at = connected_at
        #: Liveness stamp: refreshed by every inbound frame (data, ping
        #: or pong); the lifecycle sweep evicts against it.
        self.last_seen = connected_at
        self.resume_token = resume_token
        #: Set while the session sits in the parked book awaiting resume.
        self.parked_at: float | None = None
        #: Why this session left the live book (None while live); also
        #: the reentrancy guard between the read loop, write-failure
        #: eviction and the lifecycle sweep.
        self.closed_reason: str | None = None
        # Token bucket (inbound rate limit): starts full.
        self.bucket = float(bucket_capacity)
        self.bucket_at = connected_at
        self.frames_limited = 0
        self.resumes = 0


class IngestionGateway:
    """Assembles transport + clock + zone + driver + socket frontends."""

    def __init__(
        self,
        config: GatewayConfig | None = None,
        *,
        clock: WallClock | None = None,
    ) -> None:
        self.config = cfg = config or GatewayConfig()
        self.clock = clock if clock is not None else WallClock()
        self.transport = AsyncioTransport(self.clock)
        rng = np.random.default_rng(cfg.seed)
        truth = smooth_field(
            cfg.zone_width,
            cfg.zone_height,
            cutoff=cfg.field_cutoff,
            amplitude=cfg.field_amplitude,
            offset=cfg.field_offset,
            rng=cfg.seed,
        )
        self.env = Environment(fields={cfg.sensor_name: truth})
        broker = Broker(
            broker_id="gw/nc0/broker",
            zone_width=cfg.zone_width,
            zone_height=cfg.zone_height,
            sensor_name=cfg.sensor_name,
            config=cfg.broker,
            rng=int(rng.integers(2**31)),
        )
        self.transport.register(broker.broker_id)
        if cfg.infrastructure_every:
            n = cfg.zone_width * cfg.zone_height
            for cell in range(0, n, cfg.infrastructure_every):
                broker.add_infrastructure(
                    cell, TemperatureSensor(rng=int(rng.integers(2**31)))
                )
        self.nanocloud = NanoCloud(
            broker=broker, nodes={}, bus=self.transport
        )
        self.localcloud = LocalCloud.from_nanoclouds(
            "gw", self.transport, [self.nanocloud], config=broker.config
        )
        self.driver = ZoneRoundDriver(
            0,
            self.localcloud,
            self.env,
            self.clock,
            period_s=cfg.period_s,
            on_complete=self._on_round,
        )
        self.latest: ZoneRoundOutcome | None = None
        self.latencies_s: list[float] = []
        self.sessions: dict[str, _DeviceSession] = {}
        #: Disconnected-but-resumable sessions, keyed by resume token.
        self._parked: dict[str, _DeviceSession] = {}
        #: Seeded token stream: same gateway seed -> same token series,
        #: so chaos runs replay (tokens never leave the deployment, so
        #: predictability is a feature here, not a leak).
        self._token_rng = random.Random(cfg.seed ^ 0x52455355)
        self.devices_joined = 0
        self.frames_in = 0
        self.frames_out = 0
        self.evictions: dict[str, int] = dict.fromkeys(_EVICTION_REASONS, 0)
        self.sessions_resumed = 0
        self.sessions_parked = 0
        self.resume_misses = 0
        self.frames_rate_limited = 0
        self.pings_sent = 0
        self.pongs_received = 0
        self._server: asyncio.AbstractServer | None = None
        self._sweep: WallPeriodicHandle | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Bind the frontend and arm the round + lifecycle schedules."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.driver.start()
        interval = self.config.resilience.sweep_interval_s
        if interval > 0.0:
            self._sweep = self.clock.schedule_periodic(
                interval, self._lifecycle_sweep
            )
        return self._server

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def stop(self) -> None:
        self.driver.stop()
        if self._sweep is not None:
            self.clock.cancel(self._sweep)
            self._sweep = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def run_forever(self, host: str = "127.0.0.1", port: int = 8765) -> None:
        """CLI entry point: serve until interrupted (owns the loop)."""
        loop = self.clock.loop
        loop.run_until_complete(self.start(host, port))
        try:
            loop.run_forever()
        except KeyboardInterrupt:
            pass
        finally:
            loop.run_until_complete(self.stop())

    def _on_round(self, outcome: ZoneRoundOutcome) -> None:
        self.latest = outcome
        if not outcome.stale:
            self.latencies_s.append(outcome.latency_s)

    # -- connection routing --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await protocol.read_http_request(reader)
            if request is None:
                return
            if request.path == "/sensor/connect" and request.wants_websocket:
                await self._serve_device(request, reader, writer)
                return
            writer.write(self._route_http(request))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    def _route_http(self, request: protocol.HttpRequest) -> bytes:
        if request.method != "GET":
            return protocol.http_response(400, b'{"error":"GET only"}')
        if request.path == "/healthz":
            body = self.health()
        elif request.path == "/stats":
            body = self.stats()
        elif request.path == "/zones/latest":
            body = self.latest_estimate()
        elif request.path == "/field/truth":
            truth = self.env.fields[self.config.sensor_name]
            body = {
                "sensor": self.config.sensor_name,
                "grid": truth.grid.tolist(),
            }
        elif request.path == "/sensor/connect":
            # A plain (non-upgrade) connect: tell shed clients to back
            # off with a real 503 rather than a generic 404.
            if self._shed_reason() is not None:
                return protocol.http_response(
                    503, b'{"error":"over capacity","retry":true}'
                )
            return protocol.http_response(
                400, b'{"error":"websocket upgrade required"}'
            )
        else:
            return protocol.http_response(404, b'{"error":"not found"}')
        return protocol.http_response(200, json.dumps(body))

    # -- query frontend ------------------------------------------------

    def latest_estimate(self) -> dict[str, object]:
        """The newest ZoneEstimate round, JSON-shaped (``/zones/latest``)."""
        outcome = self.latest
        if outcome is None:
            return {"round": None, "rounds_completed": 0}
        return {
            "round": outcome.index,
            "zone_id": outcome.zone_id,
            "started_at": outcome.started_at,
            "completed_at": outcome.completed_at,
            "latency_s": outcome.latency_s,
            "partial": outcome.partial,
            "stale": outcome.stale,
            "rounds_completed": self.driver.rounds_completed,
            "field": outcome.result.field.grid.tolist(),
            "estimates": [
                {
                    "m": e.m,
                    "planned_m": e.planned_m,
                    "reports_ok": e.reports_ok,
                    "reports_refused": e.reports_refused,
                    "infra_reads": e.infra_reads,
                    "degraded": e.degraded,
                    "staleness_rounds": e.staleness_rounds,
                }
                for e in outcome.result.nc_estimates
            ],
        }

    def health(self) -> dict[str, object]:
        """Liveness plus the admission state a balancer keys on."""
        shed = self._shed_reason()
        overload = self.nanocloud.broker.overload
        return {
            "ok": True,
            "now": self.clock.now,
            "devices": len(self.sessions),
            "parked": len(self._parked),
            "shedding": shed is not None,
            "shed_reason": shed,
            "overload_level": overload.ladder.level,
            "overload_pressure": overload.detector.pressure,
        }

    def stats(self) -> dict[str, object]:
        """Transport snapshot + gateway and round telemetry (``/stats``)."""
        latencies = sorted(self.latencies_s)
        res = self.config.resilience
        return {
            "transport": self.transport.stats_snapshot(),
            "devices": len(self.sessions),
            "devices_joined": self.devices_joined,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "rounds_completed": self.driver.rounds_completed,
            "rounds_failed": self.driver.rounds_failed,
            "rounds_skipped": self.driver.rounds_skipped,
            "rounds_stale_served": self.driver.rounds_stale_served,
            "round_latency_p50_s": _percentile(latencies, 0.50),
            "round_latency_p99_s": _percentile(latencies, 0.99),
            "overload": self.nanocloud.broker.overload.snapshot(),
            "resilience": {
                "enabled": res.any_enabled,
                "parked": len(self._parked),
                "sessions_resumed": self.sessions_resumed,
                "sessions_parked": self.sessions_parked,
                "resume_misses": self.resume_misses,
                "frames_rate_limited": self.frames_rate_limited,
                "pings_sent": self.pings_sent,
                "pongs_received": self.pongs_received,
                "evictions": dict(self.evictions),
            },
        }

    # -- admission -----------------------------------------------------

    def _shed_reason(self) -> str | None:
        """Why a *new* device connection would be refused (None = admit)."""
        res = self.config.resilience
        if res.max_sessions and len(self.sessions) >= res.max_sessions:
            return "capacity"
        if res.shed_at_level:
            overload = self.nanocloud.broker.overload
            if (
                overload.enabled
                and overload.ladder.level >= res.shed_at_level
            ):
                return "overload"
        return None

    # -- device streams ------------------------------------------------

    def _assign_cell(self, request: protocol.HttpRequest) -> tuple[int, float, float]:
        """Map the query's position (or a round-robin slot) to a cell."""
        cfg = self.config
        n = cfg.zone_width * cfg.zone_height
        if "x" in request.query and "y" in request.query:
            x = float(request.query["x"])
            y = float(request.query["y"])
        else:
            slot = self.devices_joined % n
            x = float(slot // cfg.zone_height)
            y = float(slot % cfg.zone_height)
        i = int(np.clip(round(x), 0, cfg.zone_width - 1))
        j = int(np.clip(round(y), 0, cfg.zone_height - 1))
        return i * cfg.zone_height + j, x, y

    async def _serve_device(
        self,
        request: protocol.HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.header("sec-websocket-key")
        if not key:
            writer.write(
                protocol.http_response(400, b'{"error":"missing key"}')
            )
            await writer.drain()
            return
        sensor = request.query.get("type", self.config.sensor_name)
        mode = request.query.get("mode", "stream")
        if mode not in STREAM_MODES:
            writer.write(
                protocol.http_response(400, b'{"error":"bad mode"}')
            )
            await writer.drain()
            return
        shed = self._shed_reason()
        if shed is not None:
            # Complete the upgrade, then refuse at the WebSocket layer:
            # the client gets a real close frame with 1013 ("try again
            # later") instead of a silently dropped TCP stream.
            self.evictions["shed"] += 1
            writer.write(protocol.ws_handshake_response(key))
            writer.write(
                protocol.ws_encode(
                    protocol.ws_close_payload(
                        protocol.CLOSE_TRY_AGAIN_LATER, shed
                    ),
                    opcode=protocol.OP_CLOSE,
                )
            )
            await writer.drain()
            return
        writer.write(protocol.ws_handshake_response(key))
        await writer.drain()

        res = self.config.resilience
        session: _DeviceSession | None = None
        token = request.query.get("resume", "")
        if token and res.resume_enabled:
            session = self._resume_session(token, writer)
            if session is None:
                self.resume_misses += 1
        if session is not None:
            node_id = session.node.node_id
            self.sessions_resumed += 1
            session.resumes += 1
            session.node.send_json(
                {
                    "type": "resumed",
                    "node_id": node_id,
                    "cell": self.nanocloud.broker.members.get(node_id),
                    "resume": session.resume_token,
                }
            )
        else:
            session = self._admit_session(request, writer, sensor, mode)
        try:
            await self._pump_device(session, reader)
        finally:
            self._release_session(session)

    def _admit_session(
        self,
        request: protocol.HttpRequest,
        writer: asyncio.StreamWriter,
        sensor: str,
        mode: str,
    ) -> _DeviceSession:
        """Fresh join: mint the node, register everywhere, greet it."""
        cell, x, y = self._assign_cell(request)
        self.devices_joined += 1
        requested = request.query.get("id", f"dev{self.devices_joined}")
        node_id = f"gw/nc0/{requested}"
        # Duplicate id — live *or parked* (a parked node keeps its
        # NanoCloud slot, so a stranger reusing the id must not steal
        # it): make the newcomer unique.  devices_joined is monotone,
        # so one suffix suffices unless the client guessed it too; the
        # loop closes that corner.
        while node_id in self.sessions or node_id in self.nanocloud.nodes:
            node_id = f"{node_id}.{self.devices_joined}"

        res = self.config.resilience
        token = self._issue_token() if res.resume_enabled else None
        node = GatewayNode(
            node_id,
            sensor,
            send_json=_NO_UPLINK,
            now_fn=lambda: self.clock.now,
            mode=mode,
            max_staleness_s=self.config.max_staleness_s,
            state=NodeState(x=x, y=y),
        )
        session = _DeviceSession(
            node,
            writer,
            connected_at=self.clock.now,
            resume_token=token,
            bucket_capacity=res.rate_limit_burst,
        )
        node.attach(self._make_sender(session))
        self.sessions[node_id] = session
        self.transport.register(node_id)
        self.nanocloud.nodes[node_id] = node
        self.nanocloud.broker.join(node_id, cell)
        joined: dict[str, object] = {
            "type": "joined", "node_id": node_id, "cell": cell,
        }
        if token is not None:
            joined["resume"] = token
        node.send_json(joined)
        return session

    def _issue_token(self) -> str:
        """Mint a resume token unique across live and parked sessions."""
        while True:
            token = f"r{self._token_rng.getrandbits(64):016x}"
            if token in self._parked:
                continue
            if any(
                s.resume_token == token for s in self.sessions.values()
            ):
                continue
            return token

    def _resume_session(
        self, token: str, writer: asyncio.StreamWriter
    ) -> _DeviceSession | None:
        """Reattach a parked session to a fresh socket (None = miss)."""
        session = self._parked.pop(token, None)
        if session is None:
            return None
        parked_at = session.parked_at or 0.0
        if self.clock.now - parked_at > self.config.resilience.resume_ttl_s:
            # Presented too late (sweep hasn't fired yet): the state is
            # forfeit either way — churn it and treat this as a miss.
            self._churn(session)
            self.evictions["expired"] += 1
            return None
        session.writer = writer
        session.parked_at = None
        session.closed_reason = None
        session.last_seen = self.clock.now
        session.node.attach(self._make_sender(session))
        self.sessions[session.node.node_id] = session
        return session

    def _make_sender(self, session: _DeviceSession):
        """Uplink closure bound to the session's *current* writer.

        A write against a closing/broken transport evicts the session
        immediately (reason ``reset``) — a half-open peer must not
        linger in the live book until the next read happens to fail.
        """
        writer = session.writer

        def send_json(payload: dict) -> None:
            if writer.is_closing():
                self._on_write_failure(session)
                return
            try:
                self.frames_out += 1
                writer.write(
                    protocol.ws_encode(
                        json.dumps(payload, separators=(",", ":"))
                    )
                )
            except (ConnectionError, RuntimeError):
                self._on_write_failure(session)

        return send_json

    async def _pump_device(
        self, session: _DeviceSession, reader: asyncio.StreamReader
    ) -> None:
        """The per-connection read loop (shared by join and resume).

        One wake-up handles one socket buffer: read at most
        ``_READ_BUDGET`` bytes, handle every message they completed,
        then yield, so queries, timers and other sessions get the loop
        between buffers however fast this device sends.
        """
        node = session.node
        res = self.config.resilience
        limited = res.rate_limit_hz > 0.0
        parser = protocol.WsParser()
        try:
            while not parser.closed:
                messages = parser.feed(await reader.read(_READ_BUDGET))
                if messages:
                    session.last_seen = self.clock.now
                for opcode, payload in messages:
                    if opcode == protocol.OP_PING:
                        session.writer.write(
                            protocol.ws_encode(payload, opcode=protocol.OP_PONG)
                        )
                        continue
                    if opcode == protocol.OP_PONG:
                        self.pongs_received += 1
                        continue
                    if opcode == protocol.OP_CLOSE:
                        break
                    frame = parse_device_frame(payload)
                    if frame is None:
                        continue
                    if limited and not self._take_token(session):
                        session.frames_limited += 1
                        self.frames_rate_limited += 1
                        continue
                    self.frames_in += 1
                    session.frames_in += 1
                    node.handle_device_frame(frame, self.transport)
                await asyncio.sleep(0)
        except ConnectionError:
            pass

    def _take_token(self, session: _DeviceSession) -> bool:
        """Refill and draw from the session's inbound token bucket."""
        res = self.config.resilience
        now = self.clock.now
        session.bucket = min(
            float(res.rate_limit_burst),
            session.bucket + (now - session.bucket_at) * res.rate_limit_hz,
        )
        session.bucket_at = now
        if session.bucket >= 1.0:
            session.bucket -= 1.0
            return True
        return False

    # -- session teardown ----------------------------------------------

    def _release_session(self, session: _DeviceSession) -> None:
        """Read loop ended: park (resume armed) or churn the session.

        No-op when the session was already evicted for cause (idle
        sweep, write failure, ...) — ``closed_reason`` is the guard.
        """
        if session.closed_reason is not None:
            return
        session.closed_reason = "disconnect"
        self._park_or_churn(session)

    def _on_write_failure(self, session: _DeviceSession) -> None:
        """An uplink write hit a dead transport: evict immediately."""
        if session.closed_reason is not None:
            return
        self._evict(session, "reset")

    def _evict(
        self,
        session: _DeviceSession,
        reason: str,
        *,
        close_code: int | None = None,
        close_reason: str = "",
    ) -> None:
        """Server-initiated removal of a live session, counted by reason."""
        if session.closed_reason is not None:
            return
        session.closed_reason = reason
        self.evictions[reason] += 1
        writer = session.writer
        if close_code is not None and not writer.is_closing():
            try:
                writer.write(
                    protocol.ws_encode(
                        protocol.ws_close_payload(close_code, close_reason),
                        opcode=protocol.OP_CLOSE,
                    )
                )
            except (ConnectionError, RuntimeError):
                pass
        try:
            writer.close()
        except RuntimeError:
            pass
        self._park_or_churn(session)

    def _park_or_churn(self, session: _DeviceSession) -> None:
        """Disconnected-session disposition: the resume seam."""
        node_id = session.node.node_id
        self.sessions.pop(node_id, None)
        res = self.config.resilience
        if res.resume_enabled and session.resume_token is not None:
            session.parked_at = self.clock.now
            session.node.detach()
            self._parked[session.resume_token] = session
            self.sessions_parked += 1
            return
        self._churn(session)

    def _churn(self, session: _DeviceSession) -> None:
        """Full removal: the device is gone for real, everywhere."""
        node_id = session.node.node_id
        self.sessions.pop(node_id, None)
        if session.resume_token is not None:
            self._parked.pop(session.resume_token, None)
        self.nanocloud.nodes.pop(node_id, None)
        self.nanocloud.broker.members.pop(node_id, None)
        self.transport.unregister(node_id)

    # -- liveness sweep ------------------------------------------------

    def _lifecycle_sweep(self, now: float) -> None:
        """Periodic session upkeep: idle eviction, pings, parked expiry."""
        res = self.config.resilience
        if res.idle_timeout_s > 0.0:
            for session in list(self.sessions.values()):
                if now - session.last_seen > res.idle_timeout_s:
                    self._evict(
                        session,
                        "idle",
                        close_code=protocol.CLOSE_GOING_AWAY,
                        close_reason="idle timeout",
                    )
        if res.ping_interval_s > 0.0:
            for session in list(self.sessions.values()):
                writer = session.writer
                try:
                    if writer.is_closing():
                        self._on_write_failure(session)
                        continue
                    writer.write(
                        protocol.ws_encode(b"", opcode=protocol.OP_PING)
                    )
                    self.pings_sent += 1
                except (ConnectionError, RuntimeError):
                    self._on_write_failure(session)
        if res.resume_enabled:
            for session in list(self._parked.values()):
                parked_at = session.parked_at or 0.0
                if now - parked_at > res.resume_ttl_s:
                    self._churn(session)
                    self.evictions["expired"] += 1


def _no_uplink(payload: dict) -> None:
    """Placeholder sender used only during node construction."""


_NO_UPLINK = _no_uplink


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return float(sorted_values[idx])
