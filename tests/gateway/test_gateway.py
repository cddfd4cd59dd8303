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
from repro.middleware import broker as broker_module
from repro.network.links import LOOPBACK
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
        # Device and broker hops ride LOOPBACK and bill no radio
        # energy; only the zone's WiFi uplink into its LocalCloud head
        # does.
        bus = gateway.transport
        assert bus.default_link is LOOPBACK
        head = bus.endpoint(gateway.localcloud.head_address)
        assert head.link is not LOOPBACK
        assert head.stats.messages == stats["transport"]["by_kind"]["aggregate"]
        assert stats["transport"]["total_energy_mj"] == pytest.approx(
            head.stats.total_energy_mj
        )
        assert bus.endpoint("gw/nc0/broker").link is LOOPBACK


class TestRoundLiveness:
    def test_a_raising_solve_fails_one_round_and_rounds_go_on(
        self, monkeypatch
    ):
        # One planted raise in the solve of round 4 of 10: the gateway
        # keeps publishing the other nine, and /stats counts the tenth.
        period = 0.05
        gw = IngestionGateway(
            GatewayConfig(
                zone_width=W, zone_height=H, period_s=period, seed=7,
                infrastructure_every=1,
            )
        )
        errors = []
        gw.clock.loop.set_exception_handler(
            lambda loop, context: errors.append(context.get("exception"))
        )
        real = broker_module.solve_pending
        calls = []

        def planted(pending):
            calls.append(pending)
            if len(calls) == 4:
                raise ValueError("planted")
            return real(pending)

        monkeypatch.setattr(broker_module, "solve_pending", planted)

        async def scenario():
            await gw.start()
            seen = []
            while True:
                done = len(calls) >= 10
                status, latest = await _http_get(gw.port, "/zones/latest")
                assert status == 200
                if latest["round"] is not None:
                    seen.append(latest["round"])
                if done:
                    break
                await asyncio.sleep(period / 2)
            gw.driver.stop()
            status, stats = await _http_get(gw.port, "/stats")
            await gw.stop()
            return seen, stats

        try:
            seen, stats = gw.clock.run_until_complete(scenario())
        finally:
            gw.clock.close()
        assert [str(e) for e in errors] == ["planted"]
        assert stats["rounds_failed"] == 1
        assert stats["rounds_completed"] >= 9
        # /zones/latest kept advancing past the failed fourth solve: the
        # tenth solve published round index 9.
        assert seen == sorted(seen)
        assert seen[-1] >= 9

    def test_an_idle_gateway_counts_idle_rounds_not_failed(self):
        # No devices and no infrastructure nodes: every firing finds
        # nobody to command.  That is an idle round, not a fault.
        gw = IngestionGateway(
            GatewayConfig(
                zone_width=W, zone_height=H, period_s=0.05, seed=7,
                infrastructure_every=0,
            )
        )

        async def scenario():
            await gw.start()
            await asyncio.sleep(0.5)
            status, stats = await _http_get(gw.port, "/stats")
            await gw.stop()
            return status, stats

        try:
            status, stats = gw.clock.run_until_complete(scenario())
        finally:
            gw.clock.close()
        assert status == 200
        assert stats["rounds_failed"] == 0
        assert stats["rounds_completed"] == 0
        assert stats["rounds_idle"] >= 5


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
        res = ResilienceConfig(rate_limit_hz=100.0)
        gw, session, _sink, _seen, _frames = self._pump(res)
        # The per-frame loop, written out: frame i is ruled on at i ms.
        burst = float(server._RATE_LIMIT_BURST)
        bucket, bucket_at, accepted = burst, 0.0, 0
        for i in range(self.FRAMES):
            now = 1e-3 * i
            bucket = min(
                burst,
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


def _pump_frames(texts: list[str]):
    """Admit one stream-mode device at cell (1, 1) and feed it ``texts``
    as masked text frames, without sockets."""
    gw = IngestionGateway(
        GatewayConfig(zone_width=W, zone_height=H, period_s=PERIOD_S, seed=7)
    )
    rng = random.Random(3)
    stream = b"".join(
        protocol.ws_encode(text, mask=True, rng=rng) for text in texts
    )
    request = protocol.HttpRequest(
        "GET", "/sensor/connect", "/sensor/connect",
        query={"x": "1", "y": "1", "id": "t"},
    )

    async def scenario():
        session = gw._admit_session(request, _Sink(gw), "temperature", "stream")
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        await gw._pump_device(session, reader)
        return session

    try:
        session = gw.clock.run_until_complete(scenario())
    finally:
        gw.clock.close()
    return gw, session.node


class TestHostileDeviceFrames:
    """A frame with a bad number is dropped and counted, never applied."""

    def test_non_finite_move_keeps_membership_refreshable(self):
        gw, node = _pump_frames(['{"type":"move","x":NaN,"y":0}'])
        assert (node.state.x, node.state.y) == (1.0, 1.0)
        assert gw.stats()["frames_malformed"] == 1
        # The round driver re-maps positions first thing every round.
        gw.nanocloud.refresh_membership()
        assert gw.nanocloud.broker.members[node.node_id] == 1 * H + 1

    def test_non_finite_reading_never_becomes_latest(self):
        gw, node = _pump_frames(
            [
                '{"type":"reading","value":NaN}',
                '{"type":"reading","value":1.0,"noise_std":Infinity}',
                '{"type":"reading","value":1.0,"noise_std":-0.5}',
            ]
        )
        assert node.latest is None
        assert node.readings_received == 0
        assert gw.stats()["frames_malformed"] == 3

    def test_bad_reading_fields_do_not_end_the_session(self):
        gw, node = _pump_frames(
            [
                '{"type":"reading","value":"abc"}',
                '{"type":"reading"}',
                "[1, 2]",
                # Past json's recursion and integer-digit limits: these
                # raise RecursionError and a plain ValueError.
                "[" * 5000 + "]" * 5000,
                '{"type":"reading","value":' + "1" * 5000 + "}",
                '{"type":"reading","value":21.5,"noise_std":0.4}',
            ]
        )
        assert node.readings_received == 1
        assert (node.latest.value, node.latest.noise_std) == (21.5, 0.4)
        assert gw.stats()["frames_malformed"] == 5


class TestConnectPosition:
    @pytest.mark.parametrize("query", ["x=abc&y=1", "x=nan&y=1", "x=1&y=inf"])
    def test_bad_position_refused_before_upgrade(self, gateway, query):
        async def scenario():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(
                (
                    f"GET /sensor/connect?{query} HTTP/1.1\r\n"
                    "Host: t\r\nUpgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await gateway.stop()
            return raw

        raw = gateway.clock.run_until_complete(scenario())
        head, body = raw.split(b"\r\n\r\n", 1)
        assert int(head.split()[1]) == 400
        assert json.loads(body) == {"error": "bad position"}
        assert gateway.devices_joined == 0
