"""Gateway session-resilience tests over real localhost sockets.

The PR-9 acceptance path: seeded resume tokens reattach a reconnecting
device to its parked session (same node id, same trust ledger entry,
same cached reading), server-initiated ping/pong probes evict dead
peers on an idle deadline, admission control sheds connections with
HTTP 503 / WebSocket close 1013, per-session token buckets bound
inbound rates, and every eviction is counted by reason.  Everything is
default-off: with a default :class:`ResilienceConfig` the gateway runs
the PR-8 path untouched (the unmodified ``test_gateway.py`` suite is
that regression gate).
"""

import asyncio
import json
import random

import pytest

from repro.gateway import protocol, server
from repro.gateway.chaos import ChaosConfig, ChaosProxy
from repro.gateway.loadgen import LoadGenerator
from repro.gateway.server import (
    GatewayConfig,
    IngestionGateway,
    ResilienceConfig,
)
from repro.middleware.config import BrokerConfig
from repro.middleware.overload import OverloadConfig

W = H = 4
PERIOD_S = 0.25


def make_gateway(resilience: ResilienceConfig, **kwargs) -> IngestionGateway:
    return IngestionGateway(
        GatewayConfig(
            zone_width=W,
            zone_height=H,
            period_s=PERIOD_S,
            seed=7,
            resilience=resilience,
            **kwargs,
        )
    )


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


class _Device:
    """Minimal scripted WebSocket device for lifecycle tests."""

    def __init__(self, port: int, path: str, seed: int = 11) -> None:
        self.port = port
        self.path = path
        self.rng = random.Random(seed)
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> dict:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        await protocol.ws_client_handshake(
            self.reader, self.writer, self.path, rng=self.rng
        )
        greeting = await self.read_json()
        assert greeting is not None
        return greeting

    async def read_json(
        self, timeout: float = 2.0, *, answer_pings: bool = True
    ) -> dict | None:
        """Next OP_TEXT frame as JSON; ``None`` on EOF or timeout."""
        assert self.reader is not None and self.writer is not None
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                return None
            try:
                message = await asyncio.wait_for(
                    protocol.ws_read_message(
                        self.reader, include_close=True
                    ),
                    timeout=remaining,
                )
            except asyncio.TimeoutError:
                return None
            if message is None:
                return None
            opcode, payload = message
            if opcode == protocol.OP_PING:
                if answer_pings:
                    self.writer.write(
                        protocol.ws_encode(
                            payload, opcode=protocol.OP_PONG,
                            mask=True, rng=self.rng,
                        )
                    )
                continue
            if opcode == protocol.OP_CLOSE:
                return {"type": "__closed__", **dict(
                    zip(("code", "reason"), protocol.ws_parse_close(payload))
                )}
            if opcode == protocol.OP_TEXT:
                return json.loads(payload)

    async def read_close(
        self, timeout: float = 2.0, *, answer_pings: bool = True
    ) -> tuple[int | None, str]:
        """Drain frames until the server's close frame (or EOF)."""
        while True:
            frame = await self.read_json(
                timeout, answer_pings=answer_pings
            )
            if frame is None:
                return None, ""
            if frame.get("type") == "__closed__":
                return frame["code"], frame["reason"]

    def push_reading(self, value: float, noise_std: float = 0.4) -> None:
        assert self.writer is not None
        self.writer.write(
            protocol.ws_encode(
                json.dumps(
                    {"type": "reading", "value": value,
                     "noise_std": noise_std},
                    separators=(",", ":"),
                ),
                mask=True, rng=self.rng,
            )
        )

    async def close(self) -> None:
        assert self.writer is not None
        try:
            self.writer.write(
                protocol.ws_encode(
                    protocol.ws_close_payload(protocol.CLOSE_NORMAL),
                    opcode=protocol.OP_CLOSE, mask=True, rng=self.rng,
                )
            )
            await self.writer.drain()
        except ConnectionError:
            pass
        self.writer.close()


class TestResilienceConfig:
    def test_default_is_fully_off(self):
        cfg = ResilienceConfig()
        assert cfg.any_enabled is False
        assert cfg.sweep_interval_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(ping_interval_s=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(idle_timeout_s=-0.1)
        with pytest.raises(ValueError):
            ResilienceConfig(resume_ttl_s=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_sessions=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(shed_at_level=4)
        with pytest.raises(ValueError):
            ResilienceConfig(rate_limit_hz=-2.0)

    def test_sweep_interval_tracks_fastest_need(self):
        assert ResilienceConfig(
            ping_interval_s=0.4
        ).sweep_interval_s == pytest.approx(0.4)
        assert ResilienceConfig(
            ping_interval_s=0.4, idle_timeout_s=0.5
        ).sweep_interval_s == pytest.approx(0.25)
        assert ResilienceConfig(
            resume_enabled=True, resume_ttl_s=2.0
        ).sweep_interval_s == pytest.approx(0.5)
        # Rate limiting alone needs no sweep.
        assert ResilienceConfig(rate_limit_hz=2.0).sweep_interval_s == 0.0

    def test_default_gateway_arms_no_sweep_and_issues_no_token(self):
        gw = make_gateway(ResilienceConfig())

        async def scenario():
            await gw.start()
            assert gw._sweep is None
            device = _Device(gw.port, "/sensor/connect?x=1&y=1&id=t0")
            joined = await device.connect()
            assert joined["type"] == "joined"
            assert "resume" not in joined  # byte-identical PR-8 greeting
            await device.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


class TestResume:
    def test_resume_retains_identity_trust_and_reading(self):
        gw = make_gateway(
            ResilienceConfig(resume_enabled=True, resume_ttl_s=5.0)
        )

        async def scenario():
            await gw.start()
            port = gw.port
            device = _Device(port, "/sensor/connect?x=1&y=2&id=t1")
            joined = await device.connect()
            assert joined["type"] == "joined"
            node_id = joined["node_id"]
            assert node_id == "gw/nc0/t1"
            token = joined["resume"]
            assert isinstance(token, str) and token

            device.push_reading(21.5)
            await device.writer.drain()
            await asyncio.sleep(0.05)
            node = gw.sessions[node_id].node
            assert node.readings_received == 1

            # Give the node distinctive trust standing to carry across.
            ledger = gw.nanocloud.broker.trust
            slot = ledger.slot(node_id)
            ledger.trust[slot] = 0.42
            ledger.accepted[slot] = 9
            ledger.rejected[slot] = 3

            await device.close()
            await asyncio.sleep(0.1)
            # Parked, not churned: the live book dropped it, the zone
            # did not.
            assert node_id not in gw.sessions
            assert node_id in gw.nanocloud.nodes
            assert node_id in gw.nanocloud.broker.members
            assert gw.sessions_parked == 1
            status, stats = await _http_get(port, "/stats")
            assert status == 200
            assert stats["resilience"]["parked"] == 1

            # Reconnect presenting the token: same node, same ledger.
            back = _Device(
                port, f"/sensor/connect?x=1&y=2&id=t1&resume={token}",
                seed=13,
            )
            resumed = await back.connect()
            assert resumed["type"] == "resumed"
            assert resumed["node_id"] == node_id
            assert resumed["resume"] == token
            assert gw.sessions_resumed == 1
            assert gw.sessions[node_id].node is node  # the same object

            # Trust continuity across the reconnect (acceptance).
            assert ledger.trust_of(node_id) == pytest.approx(0.42)
            slot = ledger.slot(node_id)
            assert ledger.accepted[slot] == 9 and ledger.rejected[slot] == 3
            # The cached reading survived too; new pushes accumulate.
            back.push_reading(22.0)
            await back.writer.drain()
            await asyncio.sleep(0.05)
            assert node.readings_received == 2

            await back.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    def test_unknown_token_falls_back_to_fresh_join(self):
        gw = make_gateway(
            ResilienceConfig(resume_enabled=True, resume_ttl_s=5.0)
        )

        async def scenario():
            await gw.start()
            device = _Device(
                gw.port, "/sensor/connect?x=0&y=0&id=t9&resume=rdeadbeef"
            )
            joined = await device.connect()
            assert joined["type"] == "joined"
            assert joined["resume"] != "rdeadbeef"
            assert gw.resume_misses == 1
            assert gw.sessions_resumed == 0
            await device.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    def test_parked_session_expires_after_ttl(self):
        gw = make_gateway(
            ResilienceConfig(resume_enabled=True, resume_ttl_s=0.3)
        )

        async def scenario():
            await gw.start()
            device = _Device(gw.port, "/sensor/connect?x=1&y=1&id=t2")
            joined = await device.connect()
            node_id = joined["node_id"]
            await device.close()
            await asyncio.sleep(0.1)
            assert node_id in gw.nanocloud.broker.members  # parked
            await asyncio.sleep(0.7)  # past TTL + a sweep period
            assert node_id not in gw.nanocloud.nodes
            assert node_id not in gw.nanocloud.broker.members
            assert gw.evictions["expired"] == 1
            assert not gw._parked
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


class TestLiveness:
    def test_silent_peer_evicted_with_going_away(self):
        gw = make_gateway(
            ResilienceConfig(ping_interval_s=0.1, idle_timeout_s=0.35)
        )

        async def scenario():
            await gw.start()
            device = _Device(gw.port, "/sensor/connect?x=1&y=1&id=mute")
            joined = await device.connect()
            node_id = joined["node_id"]
            # Go silent: never answer pings, never push.  The sweep
            # must evict after the idle deadline and say why.
            code, reason = await device.read_close(
                timeout=3.0, answer_pings=False
            )
            assert code == protocol.CLOSE_GOING_AWAY
            assert "idle" in reason
            assert gw.evictions["idle"] == 1
            assert node_id not in gw.sessions
            # No resume configured: eviction is a full churn.
            assert node_id not in gw.nanocloud.broker.members
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    async def _responsive_device(self, gw, duration_s):
        device = _Device(gw.port, "/sensor/connect?x=1&y=1&id=alive")
        joined = await device.connect()
        deadline = asyncio.get_running_loop().time() + duration_s
        while asyncio.get_running_loop().time() < deadline:
            # read_json answers pings internally; commands are ignored.
            await device.read_json(timeout=0.2)
        return device, joined["node_id"]

    def test_responsive_peer_survives_idle_deadline(self):
        gw = make_gateway(
            ResilienceConfig(ping_interval_s=0.1, idle_timeout_s=0.35)
        )

        async def scenario():
            await gw.start()
            device, node_id = await self._responsive_device(gw, 1.0)
            # Lived ~3x the idle deadline on pong liveness alone.
            assert node_id in gw.sessions
            assert gw.pings_sent > 0
            assert gw.pongs_received > 0
            assert gw.evictions["idle"] == 0
            await device.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    def test_write_failure_evicts_immediately(self):
        """Satellite: a half-open peer must not linger in the live book
        until the next read fails — the first failed *write* evicts it."""
        gw = make_gateway(ResilienceConfig(ping_interval_s=5.0))

        async def scenario():
            await gw.start()
            device = _Device(gw.port, "/sensor/connect?x=1&y=1&id=gone")
            joined = await device.connect()
            node_id = joined["node_id"]
            session = gw.sessions[node_id]
            # Simulate the half-open state: the server-side transport is
            # dead but the read loop hasn't noticed yet.
            session.writer.transport.close()
            assert node_id in gw.sessions
            # The next uplink write (here: a command notification path,
            # driven directly) detects the dead transport and evicts.
            session.node.send_json({"type": "command", "sensor": "t"})
            assert node_id not in gw.sessions
            assert gw.evictions["reset"] == 1
            assert session.closed_reason == "reset"
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


class TestAdmission:
    def test_over_capacity_sheds_with_1013_and_503(self):
        gw = make_gateway(ResilienceConfig(max_sessions=1))

        async def scenario():
            await gw.start()
            port = gw.port
            first = _Device(port, "/sensor/connect?x=0&y=0&id=a")
            joined = await first.connect()
            assert joined["type"] == "joined"

            # WebSocket upgrade over capacity: handshake completes, then
            # an RFC 6455 close with 1013 "try again later".
            second = _Device(port, "/sensor/connect?x=0&y=1&id=b", seed=12)
            second.reader, second.writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            await protocol.ws_client_handshake(
                second.reader, second.writer, second.path, rng=second.rng
            )
            code, reason = await second.read_close()
            assert code == protocol.CLOSE_TRY_AGAIN_LATER
            assert reason == "capacity"
            assert gw.evictions["shed"] == 1
            assert len(gw.sessions) == 1
            second.writer.close()

            # Plain HTTP connect over capacity: a real 503.
            status, body = await _http_get(port, "/sensor/connect")
            assert status == 503
            assert body["retry"] is True
            status, health = await _http_get(port, "/healthz")
            assert health["shedding"] is True
            assert health["shed_reason"] == "capacity"

            # Capacity freed: the next connect is admitted again.
            await first.close()
            await asyncio.sleep(0.1)
            third = _Device(port, "/sensor/connect?x=0&y=2&id=c", seed=14)
            joined = await third.connect()
            assert joined["type"] == "joined"
            await third.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    def test_overload_level_sheds_new_devices(self):
        gw = make_gateway(
            ResilienceConfig(shed_at_level=1),
            broker=BrokerConfig(
                overload=OverloadConfig(ladder_enabled=True)
            ),
        )
        ladder = gw.nanocloud.broker.overload.ladder

        async def scenario():
            await gw.start()
            gw.driver.stop()  # no round moves the ladder under the test
            port = gw.port
            ladder.level = 1
            status, body = await _http_get(port, "/sensor/connect")
            assert status == 503
            assert body["retry"] is True
            status, health = await _http_get(port, "/healthz")
            assert health["shedding"] is True
            assert health["shed_reason"] == "overload"
            refused = _Device(port, "/sensor/connect?x=0&y=0&id=a")
            refused.reader, refused.writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            await protocol.ws_client_handshake(
                refused.reader, refused.writer, refused.path, rng=refused.rng
            )
            code, reason = await refused.read_close()
            assert code == protocol.CLOSE_TRY_AGAIN_LATER
            assert reason == "overload"
            assert not gw.sessions
            refused.writer.close()

            # Back at level 0 the same device is admitted.
            ladder.level = 0
            status, health = await _http_get(port, "/healthz")
            assert health["shed_reason"] is None
            admitted = _Device(port, "/sensor/connect?x=0&y=0&id=a", seed=12)
            joined = await admitted.connect()
            assert joined["type"] == "joined"
            assert len(gw.sessions) == 1
            await admitted.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    def test_plain_connect_without_upgrade_is_400_when_not_shedding(self):
        gw = make_gateway(ResilienceConfig())

        async def scenario():
            await gw.start()
            status, body = await _http_get(gw.port, "/sensor/connect")
            assert status == 400
            assert "upgrade" in body["error"]
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


class TestRateLimit:
    def test_token_bucket_bounds_inbound_frames(self):
        gw = make_gateway(ResilienceConfig(rate_limit_hz=2.0))
        burst = server._RATE_LIMIT_BURST

        async def scenario():
            await gw.start()
            device = _Device(gw.port, "/sensor/connect?x=1&y=1&id=flood")
            joined = await device.connect()
            node = gw.sessions[joined["node_id"]].node
            for i in range(burst + 9):
                device.push_reading(20.0 + i)
            await device.writer.drain()
            await asyncio.sleep(0.2)
            # The burst plus at most ~1 refilled token in 0.2 s.
            assert node.readings_received <= burst + 2
            assert gw.frames_rate_limited >= 7
            assert (
                node.readings_received + gw.frames_rate_limited
                == burst + 9
            )
            status, stats = await _http_get(gw.port, "/stats")
            assert (
                stats["resilience"]["frames_rate_limited"]
                == gw.frames_rate_limited
            )
            await device.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


class TestDuplicateIds:
    def test_renamed_session_is_independently_addressable(self):
        """Satellite: two devices claiming one id must become two fully
        independent sessions, and resume tokens must never collide with
        either node id."""
        gw = make_gateway(
            ResilienceConfig(resume_enabled=True, resume_ttl_s=5.0)
        )

        async def scenario():
            await gw.start()
            a = _Device(gw.port, "/sensor/connect?x=1&y=1&id=dup")
            joined_a = await a.connect()
            b = _Device(gw.port, "/sensor/connect?x=2&y=2&id=dup", seed=12)
            joined_b = await b.connect()

            assert joined_a["node_id"] == "gw/nc0/dup"
            assert joined_b["node_id"] != joined_a["node_id"]
            assert joined_b["node_id"].startswith("gw/nc0/dup.")
            # Both live in every membership book under distinct ids.
            for node_id in (joined_a["node_id"], joined_b["node_id"]):
                assert node_id in gw.sessions
                assert node_id in gw.nanocloud.nodes
                assert node_id in gw.nanocloud.broker.members
                assert gw.transport.endpoint(node_id) is not None

            # Independently addressable: each socket feeds its own node.
            a.push_reading(21.0)
            b.push_reading(25.0)
            await a.writer.drain()
            await b.writer.drain()
            await asyncio.sleep(0.05)
            node_a = gw.sessions[joined_a["node_id"]].node
            node_b = gw.sessions[joined_b["node_id"]].node
            assert node_a.readings_received == 1
            assert node_b.readings_received == 1
            assert node_a.latest.value == pytest.approx(21.0)
            assert node_b.latest.value == pytest.approx(25.0)

            # Distinct resume tokens, colliding with no node id.
            tokens = {joined_a["resume"], joined_b["resume"]}
            assert len(tokens) == 2
            node_ids = set(gw.sessions)
            assert tokens.isdisjoint(node_ids)

            # A third claimant while both squat on the name still lands
            # on a free id.
            c = _Device(gw.port, "/sensor/connect?x=3&y=3&id=dup", seed=13)
            joined_c = await c.connect()
            assert joined_c["node_id"] not in (
                joined_a["node_id"], joined_b["node_id"]
            )
            assert joined_c["resume"] not in tokens

            for device in (a, b, c):
                await device.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()

    def test_stranger_cannot_steal_a_parked_identity(self):
        gw = make_gateway(
            ResilienceConfig(resume_enabled=True, resume_ttl_s=5.0)
        )

        async def scenario():
            await gw.start()
            owner = _Device(gw.port, "/sensor/connect?x=1&y=1&id=me")
            joined = await owner.connect()
            await owner.close()
            await asyncio.sleep(0.1)
            assert joined["node_id"] in gw.nanocloud.broker.members

            # Same id, no token: admitted as a *renamed* stranger — the
            # parked node keeps its slot for the rightful resumer.
            stranger = _Device(
                gw.port, "/sensor/connect?x=1&y=1&id=me", seed=12
            )
            joined_s = await stranger.connect()
            assert joined_s["node_id"] != joined["node_id"]
            assert joined["node_id"] in gw.nanocloud.broker.members
            await stranger.close()
            await asyncio.sleep(0.05)
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


class TestTrustLifecycle:
    def test_churn_forgets_and_parking_keeps_trust(self):
        """A churned node's trust record goes with it; a parked one's
        stays for its resumer.  Devices reusing one id while an earlier
        holder is parked are renamed ``gw/nc0/me.<n>``; each feeds a
        robust round (so the broker holds a record for it), disconnects,
        parks, and is churned when its resume window lapses."""
        gw = make_gateway(
            ResilienceConfig(resume_enabled=True, resume_ttl_s=0.4),
            broker=BrokerConfig(robust_mode="trim"),
        )

        async def scenario():
            await gw.start()
            node_ids = []
            for k in range(6):
                device = _Device(
                    gw.port, "/sensor/connect?x=1&y=1&id=me", seed=20 + k
                )
                joined = await device.connect()
                node_ids.append(joined["node_id"])
                device.push_reading(21.0 + k)
                await device.writer.drain()
                await asyncio.sleep(2 * PERIOD_S)  # a round reads it
                await device.close()
                await asyncio.sleep(0.05)
            await asyncio.sleep(0.1)
            trust = gw.nanocloud.broker.trust.snapshot()
            assert len(set(node_ids)) > 1  # renamed while parked
            assert gw.evictions["expired"] >= 3
            assert len(trust) <= len(gw.sessions) + len(gw._parked)
            # Parking keeps: the newest device is parked, standing intact.
            assert node_ids[-1] in gw.nanocloud.broker.members
            assert node_ids[-1] in trust
            await gw.stop()

        gw.clock.run_until_complete(scenario())
        gw.clock.close()


def _untemper(y: int) -> int:
    """Invert MT19937's output tempering (one 32-bit word)."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(4):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t
    t = y
    for _ in range(2):
        t = y ^ (t >> 11)
    return t & 0xFFFFFFFF


def _predict_next_64(values: list[int]) -> int:
    """Clone an MT19937 from 312 consecutive ``getrandbits(64)`` draws
    (624 words, low word first) and draw the next 64 bits."""
    words = []
    for value in values:
        words += [value & 0xFFFFFFFF, value >> 32]
    clone = random.Random()
    clone.setstate((3, tuple(_untemper(w) for w in words) + (624,), None))
    return clone.getrandbits(64)


class TestResumeTokens:
    def test_untwisting_predicts_a_plain_mersenne_stream(self):
        rng = random.Random(0x5EED)
        draws = [rng.getrandbits(64) for _ in range(312)]
        assert _predict_next_64(draws) == rng.getrandbits(64)

    def test_observed_tokens_do_not_predict_the_next(self):
        gw = make_gateway(ResilienceConfig(resume_enabled=True))
        try:
            tokens = [gw._issue_token() for _ in range(313)]
        finally:
            gw.clock.close()
        assert len(set(tokens)) == len(tokens)
        observed = [int(token[1:], 16) & (2**64 - 1) for token in tokens]
        predicted = _predict_next_64(observed[:312])
        assert predicted != observed[312]
        assert f"r{predicted:016x}" != tokens[312]
        # Same seed, same token series: chaos runs still replay.
        again = make_gateway(ResilienceConfig(resume_enabled=True))
        try:
            assert [again._issue_token() for _ in range(3)] == tokens[:3]
        finally:
            again.clock.close()


class TestLoadgenResilience:
    def test_fleet_outlives_chaos_kills_via_resume(self):
        gw = make_gateway(
            ResilienceConfig(
                resume_enabled=True,
                resume_ttl_s=5.0,
                ping_interval_s=0.5,
                idle_timeout_s=2.0,
            )
        )

        async def scenario():
            await gw.start()
            proxy = ChaosProxy(
                "127.0.0.1",
                gw.port,
                ChaosConfig(kill_after_s=(0.2, 0.6), seed=5),
            )
            await proxy.start()
            load = LoadGenerator(
                "127.0.0.1", proxy.port,
                n_clients=5, rate_hz=8.0,
                zone_width=W, zone_height=H, seed=3,
                reconnect=True, resume=True,
                backoff_initial_s=0.02, backoff_max_s=0.2,
            )
            report = await load.run(2.0)
            await proxy.stop()
            await asyncio.sleep(0.1)  # let aborted sessions tear down
            await gw.stop()
            return report

        report = gw.clock.run_until_complete(scenario())
        gw.clock.close()
        # Every client survived the kill schedule by reconnecting, and
        # the gateway reattached (not re-admitted) at least some of
        # them via their resume tokens.
        assert report.connected == 5
        assert report.failures == 0
        assert report.reconnects > 0
        assert report.resumes > 0
        # A "resumed" frame can be killed in flight before the client
        # reads it, so the server count dominates the client count.
        assert gw.sessions_resumed >= report.resumes
        assert report.frames_sent > 0
