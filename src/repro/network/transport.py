"""Backend-agnostic transport interface: the seam the middleware rides.

Every layer above the network — brokers, :class:`repro.middleware.rounds
.ZoneRoundDriver`, LocalClouds, the hierarchy — talks to its transport
through the same small surface: register/unregister endpoints, unicast
``send``, sanctioned re-enqueue via ``requeue``, and the clock
attachment that switches delivery from synchronous to scheduled.
:class:`Transport` names that surface as a :class:`typing.Protocol` so
"backend" is a constructor argument, not an architecture:

- :class:`repro.network.bus.MessageBus` is the in-process simulation
  backend (fault injection, backpressure, ``latency_mode`` and
  TrafficStats accounting), pinned by the golden digests in
  ``tests/network/test_bus_golden.py``.
- :class:`repro.network.asyncio_transport.AsyncioTransport` carries the
  same Endpoint API over real sockets, with deliveries scheduled
  on a :class:`repro.sim.wallclock.WallClock` and remote peers speaking
  the length-prefixed wire frames of :mod:`repro.network.frames`.

The delivery-scheduling hook is ``_schedule_delivery(message)``: the
deferred path (``deferred`` is True once a clock is attached in
``latency_mode="link"``) routes every send through it, and it
schedules ``_deliver`` at ``clock.now + link latency`` via the clock's
``schedule_in``.  A backend changes *when and where* that callback runs
(sim event queue, asyncio loop) — never the metering, loss or
backpressure accounting around it, which live in the shared base.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from .bus import Endpoint, TrafficStats
from .links import LinkModel
from .message import Message

__all__ = ["Transport"]


@runtime_checkable
class Transport(Protocol):
    """What the middleware requires of a message transport.

    Structural: any object with these members qualifies —
    ``isinstance(obj, Transport)`` checks presence, and the middleware
    layers only ever call through this surface.
    """

    stats: TrafficStats

    # -- registration --------------------------------------------------

    def register(
        self,
        address: str,
        link: LinkModel | None = None,
        *,
        inbox_capacity: int | None = None,
        drop_policy: str | None = None,
    ) -> Endpoint: ...

    def unregister(self, address: str) -> None: ...

    def endpoint(self, address: str) -> Endpoint: ...

    def set_handler(
        self, address: str, handler: Callable[[Message], None] | None
    ) -> None: ...

    # -- point-to-point ------------------------------------------------

    def send(self, message: Message, *, strict: bool = True) -> bool: ...

    def requeue(self, message: Message) -> bool: ...

    # -- delivery scheduling -------------------------------------------

    def attach_clock(self, clock, latency_mode: str = "link") -> None: ...

    @property
    def deferred(self) -> bool: ...

    # -- observability -------------------------------------------------

    def stats_snapshot(self) -> dict[str, object]: ...
