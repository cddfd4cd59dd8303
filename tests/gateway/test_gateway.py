"""End-to-end ingestion gateway tests over real localhost sockets.

The acceptance path of PR 8: WebSocket devices connect to
``/sensor/connect``, push readings, the **unmodified**
:class:`repro.middleware.rounds.ZoneRoundDriver` runs real sensing
rounds on the wall clock, and the query frontend serves the resulting
ZoneEstimates over plain HTTP.
"""

import asyncio
import json
import random

import pytest

from repro.gateway import protocol, server
from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import (
    GatewayConfig,
    IngestionGateway,
    ResilienceConfig,
)
from repro.sim.wallclock import WallClock

W = H = 4
PERIOD_S = 0.25


@pytest.fixture
def gateway():
    gw = IngestionGateway(
        GatewayConfig(
            zone_width=W, zone_height=H, period_s=PERIOD_S, seed=7
        )
    )
    yield gw
    gw.clock.close()


async def _http_get(port: int, path: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()  # Connection: close bounds it
    writer.close()
    head, body = raw.split(b"\r\n\r\n", 1)
    return int(head.split()[1]), json.loads(body)


class TestHttpFrontend:
    def test_endpoints_before_any_device(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            status, health = await _http_get(port, "/healthz")
            assert status == 200 and health["ok"] is True
            status, latest = await _http_get(port, "/zones/latest")
            assert status == 200
            assert latest == {"round": None, "rounds_completed": 0}
            status, truth = await _http_get(port, "/field/truth")
            assert status == 200
            assert truth["sensor"] == "temperature"
            assert len(truth["grid"]) == H
            assert len(truth["grid"][0]) == W
            status, stats = await _http_get(port, "/stats")
            assert status == 200
            assert stats["devices"] == 0
            assert stats["transport"]["deferred"] is True
            status, _ = await _http_get(port, "/nope")
            assert status == 404
            await gateway.stop()

        gateway.clock.run_until_complete(scenario())


class TestDeviceRoundTrip:
    def test_stream_device_feeds_a_round(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            rng = random.Random(11)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            await protocol.ws_client_handshake(
                reader, writer,
                "/sensor/connect?x=1&y=2&mode=stream&id=t1",
                rng=rng,
            )
            opcode, payload = await protocol.ws_read_message(reader)
            joined = json.loads(payload)
            assert joined["type"] == "joined"
            assert joined["node_id"] == "gw/nc0/t1"
            assert joined["cell"] == 1 * H + 2
            assert gateway.nanocloud.broker.members["gw/nc0/t1"] == (
                joined["cell"]
            )

            # Push a reading, then sit through rounds answering pings
            # and counting commands until an estimate lands.
            writer.write(
                protocol.ws_encode(
                    '{"type":"reading","value":21.5,"noise_std":0.4}',
                    mask=True, rng=rng,
                )
            )
            await writer.drain()
            commands = 0
            deadline = gateway.clock.now + 10 * PERIOD_S
            while (
                gateway.driver.rounds_completed < 2
                and gateway.clock.now < deadline
            ):
                try:
                    message = await asyncio.wait_for(
                        protocol.ws_read_message(reader),
                        timeout=PERIOD_S,
                    )
                except asyncio.TimeoutError:
                    continue
                if message is None:
                    break
                opcode, payload = message
                if opcode == protocol.OP_PING:
                    writer.write(
                        protocol.ws_encode(
                            payload, opcode=protocol.OP_PONG,
                            mask=True, rng=rng,
                        )
                    )
                elif opcode == protocol.OP_TEXT:
                    if json.loads(payload).get("type") == "command":
                        commands += 1
            assert gateway.driver.rounds_completed >= 2
            assert commands >= 1
            node = gateway.sessions["gw/nc0/t1"].node
            assert node.readings_received == 1
            assert node.commands_answered >= 1

            status, latest = await _http_get(port, "/zones/latest")
            assert status == 200
            assert latest["rounds_completed"] >= 2
            assert len(latest["field"]) == H
            assert latest["estimates"][0]["reports_ok"] >= 1

            # Disconnect: the member must churn out everywhere.
            writer.write(
                protocol.ws_encode(
                    b"", opcode=protocol.OP_CLOSE, mask=True, rng=rng
                )
            )
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            assert "gw/nc0/t1" not in gateway.sessions
            assert "gw/nc0/t1" not in gateway.nanocloud.nodes
            assert "gw/nc0/t1" not in gateway.nanocloud.broker.members
            await gateway.stop()

        gateway.clock.run_until_complete(scenario())

    def test_bad_mode_rejected(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            status, body = await _http_get(
                port, "/sensor/connect?mode=teleport"
            )
            # Not an upgrade request -> routed as plain HTTP -> 404;
            # an upgrade with a bad mode is refused with 400.
            assert status == 404 or "error" in body
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            with pytest.raises(ConnectionError):
                await protocol.ws_client_handshake(
                    reader, writer, "/sensor/connect?mode=teleport"
                )
            writer.close()
            await gateway.stop()

        gateway.clock.run_until_complete(scenario())


class TestLoadGenerator:
    def test_seeded_fleet_drives_rounds(self, gateway):
        async def scenario():
            await gateway.start()
            port = gateway.port
            load = LoadGenerator(
                "127.0.0.1", port,
                n_clients=20, rate_hz=4.0,
                zone_width=W, zone_height=H, seed=3,
            )
            report = await load.run(1.5)
            status, stats = await _http_get(port, "/stats")
            await gateway.stop()
            return report, status, stats

        report, status, stats = gateway.clock.run_until_complete(
            scenario()
        )
        assert report.connected == 20
        assert report.failures == 0
        assert report.frames_sent >= 20
        assert report.commands_seen >= 1
        assert status == 200
        assert stats["devices_joined"] == 20
        assert stats["frames_in"] >= report.frames_sent
        assert stats["rounds_completed"] >= 2
        assert stats["round_latency_p50_s"] > 0.0
        assert stats["round_latency_p99_s"] >= stats["round_latency_p50_s"]
        assert stats["transport"]["messages"] > 0


class _FrameClock(WallClock):
    """1 ms of ``now`` per frame the gateway has ruled on, however often
    and from wherever the time is read."""

    gateway: IngestionGateway | None = None

    @property
    def now(self) -> float:
        gw = self.gateway
        if gw is None:
            return 0.0
        return 1e-3 * (gw.frames_in + gw.frames_rate_limited)


class _Sink:
    """The writer half of a device socket: keeps what the gateway wrote
    and how many frames it had ingested at that moment."""

    def __init__(self, gw: IngestionGateway) -> None:
        self.gw = gw
        self.writes: list[tuple[int, bytes]] = []

    def write(self, data: bytes) -> None:
        self.writes.append((self.gw.frames_in, data))

    def is_closing(self) -> bool:
        return False

    def close(self) -> None:
        pass


class TestReadLoop:
    """The device read loop handles one socket buffer per loop turn."""

    FRAMES = 2400
    PING_AFTER = 1000

    def _pump(self, resilience: ResilienceConfig):
        """Feed FRAMES readings (one ping among them) to a session in a
        single ``feed_data``; a second task samples ``frames_in`` on
        each of its own loop turns."""
        clock = _FrameClock()
        gw = IngestionGateway(
            GatewayConfig(
                zone_width=W, zone_height=H, period_s=PERIOD_S, seed=7,
                resilience=resilience,
            ),
            clock=clock,
        )
        clock.gateway = gw
        rng = random.Random(5)
        frames = [
            protocol.ws_encode(
                json.dumps(
                    {"type": "reading", "value": 20.0 + k, "noise_std": 0.5}
                ),
                mask=True, rng=rng,
            )
            for k in range(self.FRAMES)
        ]
        frames.insert(
            self.PING_AFTER,
            protocol.ws_encode(
                b"mid", opcode=protocol.OP_PING, mask=True, rng=rng
            ),
        )
        stream = b"".join(frames)
        sink = _Sink(gw)
        request = protocol.HttpRequest(
            "GET", "/sensor/connect", "/sensor/connect",
            query={"x": "1", "y": "1", "id": "t"},
        )
        seen: list[int] = []

        async def sampler():
            while True:
                seen.append(gw.frames_in + gw.frames_rate_limited)
                await asyncio.sleep(0)

        async def scenario():
            session = gw._admit_session(request, sink, "temperature", "stream")
            reader = asyncio.StreamReader()
            reader.feed_data(stream)
            reader.feed_eof()
            other = asyncio.ensure_future(sampler())
            await gw._pump_device(session, reader)
            other.cancel()
            await asyncio.gather(other, return_exceptions=True)
            return session

        try:
            session = clock.run_until_complete(scenario())
        finally:
            clock.close()
        return gw, session, sink, seen, frames

    def test_yields_every_buffer_and_keeps_order(self):
        gw, session, sink, seen, frames = self._pump(ResilienceConfig())
        stream = b"".join(frames)
        budgets = -(-len(stream) // server._READ_BUDGET)
        assert budgets >= 32
        assert gw.frames_in == session.frames_in == self.FRAMES
        assert session.node.readings_received == self.FRAMES
        # The other task ran at least once per budget consumed, and never
        # found more than one budget's worth of frames gone by.
        assert len(seen) >= budgets
        per_budget = server._READ_BUDGET // (len(stream) // (self.FRAMES + 1))
        steps = [b - a for a, b in zip(seen, seen[1:])]
        assert max(steps) <= per_budget + 1
        # The ping is answered after the 1000 frames before it and
        # before any frame after it ...
        pongs = [
            (at, data) for at, data in sink.writes
            if data[0] & 0x0F == protocol.OP_PONG
        ]
        assert pongs == [
            (self.PING_AFTER, protocol.ws_encode(b"mid", opcode=protocol.OP_PONG))
        ]
        # ... and it did sit mid-buffer, frames either side of it.
        ping_at = sum(len(f) for f in frames[: self.PING_AFTER])
        assert 256 < ping_at % server._READ_BUDGET < server._READ_BUDGET - 256

    def test_rate_limit_split_matches_per_frame_arithmetic(self):
        res = ResilienceConfig(rate_limit_hz=100.0, rate_limit_burst=5)
        gw, session, _sink, _seen, _frames = self._pump(res)
        # The per-frame loop, written out: frame i is ruled on at i ms.
        bucket, bucket_at, accepted = float(res.rate_limit_burst), 0.0, 0
        for i in range(self.FRAMES):
            now = 1e-3 * i
            bucket = min(
                float(res.rate_limit_burst),
                bucket + (now - bucket_at) * res.rate_limit_hz,
            )
            bucket_at = now
            if bucket >= 1.0:
                bucket -= 1.0
                accepted += 1
        assert 0 < accepted < self.FRAMES
        assert gw.frames_in == session.frames_in == accepted
        assert gw.frames_rate_limited == self.FRAMES - accepted
        assert session.frames_limited == self.FRAMES - accepted
