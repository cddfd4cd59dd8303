"""Real-socket transport backend: the MessageBus API on an asyncio loop.

:class:`AsyncioTransport` is the second implementation of the
:class:`repro.network.transport.Transport` seam.  It subclasses
:class:`repro.network.bus.MessageBus` — so registration, unicast delivery,
metering, fault injection and bounded-inbox backpressure are literally
the same code paths the simulation exercises — and changes exactly one
thing: deliveries are scheduled on a
:class:`repro.sim.wallclock.WallClock`, i.e. ``loop.call_later`` on a
real asyncio event loop, instead of a sim-clock heap.  ``deferred`` is
therefore always True on this backend.

Remote peers attach in two ways:

- :meth:`bind_remote` maps a bus address to a byte sink.  Arrivals for
  that address are encoded with :func:`repro.network.frames.encode_wire`
  and pushed to the sink — this is how the ingestion gateway hands
  broker traffic to a WebSocket device, and how TCP peers receive.
- :meth:`serve` accepts raw TCP peers speaking the length-prefixed wire
  frames.  A peer's first frame must be a DISCOVERY hello carrying
  ``{"register": <address>}``; every later inbound frame is decoded and
  injected as a normal ``send`` (``strict=False`` — churned destinations
  are counted, never raised).  :func:`connect` is the matching client.

This module is on reprolint RPR002's sanctioned realtime-module
allowlist (see ``docs/invariants.md``): its clock *is* wall time.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # runtime import is lazy: repro.sim imports the
    from ..sim.wallclock import WallClock  # middleware, which imports us

from .bus import MessageBus
from .faults import FaultInjector
from .frames import WireDecoder, encode_wire
from .links import LinkModel
from .message import Message, MessageKind

__all__ = ["LOOPBACK", "AsyncioTransport", "TransportClient", "connect"]

#: Link model for co-located processes: gigabit-class serialisation and
#: sub-millisecond base latency, no radio energy.  Metering still runs
#: (messages and bytes are counted); the energy columns simply stay 0,
#: which is the truthful figure for a wired loopback hop.
LOOPBACK = LinkModel(
    name="loopback",
    bandwidth_bps=1e9,
    base_latency_s=0.0005,
    energy_per_message_mj=0.0,
    energy_per_byte_uj=0.0,
    range_m=1.0,
)

_HELLO_KEY = "register"


class AsyncioTransport(MessageBus):
    """Socket-facing transport: same bus semantics, wall-clock delivery.

    Parameters mirror :class:`repro.network.bus.MessageBus` except that
    the clock is a :class:`WallClock` (a fresh one owning a private loop
    when not supplied) and is always attached in ``latency_mode="link"``
    — real sockets have no synchronous delivery to fall back to.
    """

    def __init__(
        self,
        clock: WallClock | None = None,
        *,
        default_link: LinkModel = LOOPBACK,
        loss_rate: float = 0.0,
        seed: int | None = None,
        fault_injector: FaultInjector | None = None,
        inbox_capacity: int | None = None,
        drop_policy: str = "drop-newest",
    ) -> None:
        super().__init__(
            default_link=default_link,
            loss_rate=loss_rate,
            seed=seed,
            fault_injector=fault_injector,
            inbox_capacity=inbox_capacity,
            drop_policy=drop_policy,
        )
        if clock is None:
            from ..sim.wallclock import WallClock

            clock = WallClock()
        self.wall_clock = clock
        self.attach_clock(self.wall_clock, latency_mode="link")
        self._remotes: dict[str, Callable[[bytes], None]] = {}
        self._server: asyncio.AbstractServer | None = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self.wall_clock.loop

    # -- remote peers --------------------------------------------------

    def bind_remote(
        self,
        address: str,
        send_frame: Callable[[bytes], None],
        link: LinkModel | None = None,
    ) -> None:
        """Attach a byte sink as the consumer behind ``address``.

        Registers the endpoint (if new) and installs a handler that wire-
        encodes every arrival and hands it to ``send_frame``.  Delivery
        metering, loss draws and backpressure all ran before the handler
        fires, exactly as for an in-process endpoint.
        """
        self.register(address, link)
        self._remotes[address] = send_frame
        self.set_handler(
            address, lambda message: send_frame(encode_wire(message))
        )

    def unbind_remote(self, address: str) -> None:
        """Detach a remote peer and drop its endpoint (peer churn)."""
        self._remotes.pop(address, None)
        self.unregister(address)

    @property
    def remote_addresses(self) -> list[str]:
        return sorted(self._remotes)

    def inject(self, message: Message, *, strict: bool = False) -> bool:
        """Feed a decoded inbound frame into the bus as a normal send.

        Lenient by default: a frame addressed to a peer that churned off
        is accounted as an ``unreachable`` loss, not an exception — a
        socket cannot un-receive a frame.
        """
        return self.send(message, strict=strict)

    # -- TCP server ----------------------------------------------------

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Accept wire-frame TCP peers; returns the listening server.

        Use ``server.sockets[0].getsockname()[1]`` for the bound port
        when ``port=0``.
        """
        self._server = await asyncio.start_server(
            self._handle_peer, host, port
        )
        return self._server

    async def aclose(self) -> None:
        """Stop accepting TCP peers (bound endpoints stay registered)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = WireDecoder()
        address: str | None = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for message in decoder.feed(data):
                    if address is None:
                        # First frame must be the hello; anything else
                        # is a protocol violation and drops the peer.
                        if (
                            message.kind is MessageKind.DISCOVERY
                            and _HELLO_KEY in message.payload
                        ):
                            address = str(message.payload[_HELLO_KEY])
                            self.bind_remote(address, writer.write)
                            continue
                        return
                    self.inject(message)
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            pass  # peer reset or corrupt stream: treat as churn
        finally:
            if address is not None:
                self.unbind_remote(address)
            writer.close()


class TransportClient:
    """Client side of a wire-frame TCP connection (see :func:`connect`)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        address: str,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.address = address
        self._decoder = WireDecoder()
        self._pending: deque[Message] = deque()

    async def send(self, message: Message) -> None:
        self.writer.write(encode_wire(message))
        await self.writer.drain()

    async def recv(self) -> Message:
        """Return the next inbound message, reading frames as needed."""
        while not self._pending:
            data = await self.reader.read(65536)
            if not data:
                raise ConnectionError("transport peer closed the stream")
            self._pending.extend(self._decoder.feed(data))
        return self._pending.popleft()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def connect(host: str, port: int, address: str) -> TransportClient:
    """Open a wire-frame connection and register as ``address``.

    Sends the DISCOVERY hello the server's peer loop requires, then
    returns the connected client.  From that point every message the
    transport delivers to ``address`` arrives on :meth:`TransportClient
    .recv`, and every :meth:`TransportClient.send` is injected into the
    remote bus.
    """
    reader, writer = await asyncio.open_connection(host, port)
    client = TransportClient(reader, writer, address)
    await client.send(
        Message(
            kind=MessageKind.DISCOVERY,
            source=address,
            destination="transport",
            payload={_HELLO_KEY: address},
        )
    )
    return client
