"""AsyncioTransport: the MessageBus contract over real sockets.

Covers the two attachment paths — :meth:`bind_remote` byte sinks and the
wire-frame TCP server/:func:`connect` client pair — plus the invariants
the backend inherits from the bus: metering, loss accounting for churned
peers, and always-deferred delivery.
"""

import asyncio
import struct

import numpy as np
import pytest

from repro.network.asyncio_transport import (
    LOOPBACK,
    AsyncioTransport,
    connect,
)
from repro.network.frames import WireDecoder
from repro.network.message import Message, MessageKind
from repro.network.transport import Transport


@pytest.fixture
def transport():
    t = AsyncioTransport()
    yield t
    t.wall_clock.run_until_complete(t.aclose())
    t.wall_clock.close()


def _msg(source, destination, payload=None):
    return Message(
        kind=MessageKind.SENSE_REPORT,
        source=source,
        destination=destination,
        payload=payload or {"value": 21.5},
    )


class TestBackendContract:
    def test_always_deferred_and_satisfies_protocol(self, transport):
        assert transport.deferred is True
        assert transport.latency_mode == "link"
        assert isinstance(transport, Transport)
        assert transport.default_link is LOOPBACK

    def test_bind_remote_encodes_arrivals_to_sink(self, transport):
        frames = []
        transport.bind_remote("dev1", frames.append)
        transport.register("hub")
        assert transport.remote_addresses == ["dev1"]
        assert transport.send(_msg("hub", "dev1"))
        transport.wall_clock.run_for(0.05)

        assert len(frames) == 1
        (decoded,) = WireDecoder().feed(frames[0])
        assert decoded.destination == "dev1"
        assert decoded.payload == {"value": 21.5}
        assert transport.stats.messages == 1

    def test_unbound_peer_counts_unreachable(self, transport):
        frames = []
        transport.bind_remote("dev1", frames.append)
        transport.register("hub")
        transport.unbind_remote("dev1")
        assert transport.remote_addresses == []
        assert not transport.inject(_msg("hub", "dev1"))
        assert transport.stats.losses_by_reason["unreachable"] == 1

    def test_ndarray_payload_survives_the_sink_path(self, transport):
        frames = []
        grid = np.linspace(0.0, 1.0, 8).reshape(2, 4)
        transport.bind_remote("dev1", frames.append)
        transport.register("hub")
        transport.send(_msg("hub", "dev1", {"grid": grid}))
        transport.wall_clock.run_for(0.05)
        (decoded,) = WireDecoder().feed(frames[0])
        assert np.array_equal(decoded.payload["grid"], grid)


class TestTcpRoundTrip:
    def test_serve_connect_bidirectional(self, transport):
        inbound = []
        transport.register("hub")
        transport.set_handler("hub", inbound.append)

        async def scenario():
            server = await transport.serve()
            port = server.sockets[0].getsockname()[1]
            client = await connect("127.0.0.1", port, "dev9")
            await asyncio.sleep(0.05)  # hello decoded, peer bound
            assert transport.remote_addresses == ["dev9"]

            # Inbound: client frame -> injected -> hub handler.
            await client.send(_msg("dev9", "hub", {"reading": 20.25}))
            await asyncio.sleep(0.05)
            assert len(inbound) == 1
            assert inbound[0].payload == {"reading": 20.25}

            # Outbound: bus send -> wire frame -> client recv.
            transport.send(_msg("hub", "dev9", {"cmd": 3}))
            reply = await asyncio.wait_for(client.recv(), timeout=2.0)
            assert reply.payload == {"cmd": 3}

            await client.close()
            await asyncio.sleep(0.05)  # churn unbinds the peer
            assert transport.remote_addresses == []

        transport.wall_clock.run_until_complete(scenario())

    def test_first_frame_must_be_hello(self, transport):
        transport.register("hub")

        async def scenario():
            server = await transport.serve()
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            # Skip the hello: the peer must be dropped, nothing bound.
            from repro.network.frames import encode_wire

            writer.write(encode_wire(_msg("rogue", "hub")))
            await writer.drain()
            await asyncio.sleep(0.05)
            assert transport.remote_addresses == []
            assert await reader.read() == b""  # server closed on us
            writer.close()

        transport.wall_clock.run_until_complete(scenario())
        assert transport.stats.messages == 0

    def test_malformed_frame_churns_the_peer(self, transport):
        """A well-framed body that is not a message (``{}``) ends the
        peer like any corrupt stream: unbound and closed, with no
        exception escaping the connection task."""
        errors = []
        transport.loop.set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        transport.register("hub")

        async def scenario():
            server = await transport.serve()
            port = server.sockets[0].getsockname()[1]
            client = await connect("127.0.0.1", port, "dev9")
            await asyncio.sleep(0.05)  # hello decoded, peer bound
            assert transport.remote_addresses == ["dev9"]
            client.writer.write(struct.pack(">I", 2) + b"{}")
            await client.writer.drain()
            assert await asyncio.wait_for(client.reader.read(), 2.0) == b""
            await asyncio.sleep(0.05)  # connection task callbacks run
            assert transport.remote_addresses == []
            await client.close()

        transport.wall_clock.run_until_complete(scenario())
        assert errors == []
