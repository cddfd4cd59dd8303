"""In-process point-to-point message bus (the transport substrate).

SenseDroid's rounds are chains of unicasts over WiFi/BT/GSM: the broker
commands nodes, nodes report back, and each NanoCloud sends its
AGGREGATE to the LocalCloud head.  This bus is the in-process
equivalent: endpoints register under an address, ``send`` delivers one
message to one address, and every delivery is metered through a
:class:`repro.network.links.LinkModel` so experiments can count
messages, bytes, latency and radio energy without real sockets.

The bus has two delivery disciplines:

- ``latency_mode="zero"`` (default): delivery is synchronous and
  deterministic (no threads) — ``send`` enqueues to the destination's
  inbox and updates the traffic accounting immediately.  Higher layers
  drain inboxes explicitly, which keeps every experiment replayable.
  This is the seed behaviour, bit-for-bit.
- ``latency_mode="link"`` with an attached :class:`repro.sim.clock
  .SimClock`: ``send`` *schedules* delivery at ``now +
  link.transfer_latency_s(message)``.  Loss and fault injection are
  evaluated at delivery time (the channel eats the message in flight,
  not at the send call), fault-model extra latency further delays the
  arrival, and the clock's (time, sequence) ordering keeps interleaved
  traffic deterministic.  Endpoints may install a ``handler`` to consume
  arrivals event-style instead of polling an inbox.
"""

from __future__ import annotations

import random as _random
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from .faults import FaultInjector
from .links import WIFI, LinkModel
from .message import Message, MessageKind

__all__ = ["TrafficStats", "MessageBus", "Endpoint", "DROP_POLICIES"]

LATENCY_MODES = ("zero", "link")

#: Bounded-inbox overflow policies.
#:
#: - ``drop-newest``: the arriving message is refused (tail drop).
#: - ``drop-oldest``: the oldest queued message is evicted to make room.
#: - ``priority``: the lowest-priority queued message is evicted if the
#:   arrival outranks it, else the arrival is refused — commands and
#:   control traffic outlive bulk SENSE_REPORTs under overload.
DROP_POLICIES = ("drop-newest", "drop-oldest", "priority")

#: Delivery priority rank per message kind (lower rank = kept longer
#: under the ``priority`` drop policy).  Commands and queries steer the
#: system; aggregates and control fan-out matter next; bulk telemetry
#: (reports, context shares) is the first thing a saturated endpoint
#: sheds — CS recovery treats a shed report as one more dropped row of
#: Phi, which is exactly the degradation mode the solver tolerates.
_KIND_RANK: dict[MessageKind, int] = {
    MessageKind.SENSE_COMMAND: 0,
    MessageKind.QUERY: 0,
    MessageKind.AGGREGATE: 1,
    MessageKind.DISSEMINATE: 1,
    MessageKind.QUERY_RESULT: 1,
    MessageKind.SENSE_REPORT: 2,
    MessageKind.CONTEXT_SHARE: 2,
}

#: Loss reason for bounded-inbox drops: distinct from every injected
#: network-fault reason ("iid-loss", "bursty-loss", "partition",
#: "crash", "degraded-window", "unreachable") so backpressure is never
#: mistaken for a hostile channel.
BACKPRESSURE_REASON = "backpressure"

# TrafficStats.latency_s — tombstone.  The alias (always the *sum* of
# per-message latencies, never a per-message figure) was deprecated in
# PR 3, linter-gated to zero internal callers in PR 5 (reprolint
# RPR007), and removed here.  Read ``latency_sum_s``, or
# ``mean_latency_s`` for the per-message mean.


@dataclass
class TrafficStats:
    """Accumulated traffic accounting for one bus or one endpoint.

    ``latency_sum_s`` is the *sum* of per-message transfer latencies
    (plus any fault-injected extra delay) — divide by ``messages`` for
    the mean, which :attr:`mean_latency_s` does.
    """

    messages: int = 0
    bytes: int = 0
    transmit_energy_mj: float = 0.0
    receive_energy_mj: float = 0.0
    latency_sum_s: float = 0.0
    by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # Non-delivery accounting, split by cause so injected network
    # faults ("iid-loss", "partition", ...) and local queue overflow
    # ("backpressure") can never be conflated in one bucket.
    losses_by_reason: Counter[str] = field(default_factory=Counter)

    def record(
        self,
        kind: str,
        size: int,
        transmit_mj: float,
        receive_mj: float,
        latency_s: float,
        extra_latency_s: float,
    ) -> None:
        """Account one delivered message, metered once by the bus.

        ``latency_s`` is the link's transfer latency and
        ``extra_latency_s`` any fault-injected delay on top, added in
        that order.
        """
        self.messages += 1
        self.bytes += size
        self.transmit_energy_mj += transmit_mj
        self.receive_energy_mj += receive_mj
        self.latency_sum_s = self.latency_sum_s + latency_s + extra_latency_s
        self.by_kind[kind] += 1

    def record_loss(self, reason: str) -> None:
        self.losses_by_reason[reason] += 1

    @property
    def messages_lost(self) -> int:
        """Total non-deliveries across every reason."""
        return sum(self.losses_by_reason.values())

    @property
    def total_energy_mj(self) -> float:
        return self.transmit_energy_mj + self.receive_energy_mj

    @property
    def mean_latency_s(self) -> float:
        """Mean per-message latency (0.0 before any traffic)."""
        if self.messages == 0:
            return 0.0
        return self.latency_sum_s / self.messages

    def snapshot(self) -> dict[str, object]:
        """JSON-serializable copy of every counter in this record."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "transmit_energy_mj": self.transmit_energy_mj,
            "receive_energy_mj": self.receive_energy_mj,
            "total_energy_mj": self.total_energy_mj,
            "latency_sum_s": self.latency_sum_s,
            "mean_latency_s": self.mean_latency_s,
            "by_kind": dict(self.by_kind),
            "losses_by_reason": dict(self.losses_by_reason),
            "messages_lost": self.messages_lost,
        }


class Endpoint:
    """One addressable participant on the bus (a node, broker or app).

    The inbox is *bounded* when ``inbox_capacity`` is set: an arrival
    that would exceed the bound triggers the endpoint's drop policy
    (see :data:`DROP_POLICIES`) and the shed message is accounted by
    the bus under the distinct ``backpressure`` loss reason.  The
    default (``None``) keeps the seed's unbounded deque, bit for bit.
    All enqueues go through :meth:`push` / the bus — reprolint rule
    RPR008 rejects direct ``inbox`` mutation outside this module, so
    no delivery can bypass the bound.
    """

    def __init__(
        self,
        address: str,
        link: LinkModel,
        *,
        inbox_capacity: int | None = None,
        drop_policy: str = "drop-newest",
    ) -> None:
        if not address:
            raise ValueError("endpoint address must be non-empty")
        if inbox_capacity is not None and inbox_capacity < 1:
            raise ValueError("inbox_capacity must be >= 1 (or None)")
        if drop_policy not in DROP_POLICIES:
            raise ValueError(f"unknown drop_policy {drop_policy!r}")
        self.address = address
        self.link = link
        self.inbox: deque[Message] = deque()
        self.inbox_capacity = inbox_capacity
        self.drop_policy = drop_policy
        self.stats = TrafficStats()
        # Event-style consumption: when set, an arriving message is
        # passed to the handler instead of the inbox (the handler may
        # re-enqueue messages it does not consume, via MessageBus.requeue).
        self.handler: Callable[[Message], None] | None = None
        # Per-endpoint fault accounting: messages we transmitted that
        # never arrived, and messages addressed to us that the channel
        # (or our own outage) ate.
        self.outbound_lost = 0
        self.inbound_lost = 0
        # Bounded-inbox accounting: messages this endpoint's own full
        # queue shed, and the deepest the queue ever got (the memory
        # high-water mark the OVERLOAD bench reports).
        self.dropped_backpressure = 0
        self.inbox_peak = 0

    def push(self, message: Message) -> Message | None:
        """Enqueue respecting the bound; returns the shed message.

        ``None`` means the arrival was queued without shedding anything.
        A non-``None`` return is the message the drop policy chose to
        lose — the arrival itself (drop-newest, or an outranked arrival
        under ``priority``) or an evicted queued message (drop-oldest /
        ``priority``).  The caller (the bus) accounts it.
        """
        if (
            self.inbox_capacity is None
            or len(self.inbox) < self.inbox_capacity
        ):
            self.inbox.append(message)
            self.inbox_peak = max(self.inbox_peak, len(self.inbox))
            return None
        if self.drop_policy == "drop-oldest":
            shed = self.inbox.popleft()
            self.inbox.append(message)
            return shed
        if self.drop_policy == "priority":
            rank = _KIND_RANK.get(message.kind, 1)
            # Evict the newest queued message of the lowest priority
            # that does not outrank the arrival; scanning from the back
            # keeps older (likely in-service) traffic of equal rank.
            worst_idx, worst_rank = -1, rank
            for idx in range(len(self.inbox) - 1, -1, -1):
                queued_rank = _KIND_RANK.get(self.inbox[idx].kind, 1)
                if queued_rank > worst_rank:
                    worst_idx, worst_rank = idx, queued_rank
            if worst_idx < 0:
                return message  # nothing outranked: shed the arrival
            shed = self.inbox[worst_idx]
            del self.inbox[worst_idx]
            self.inbox.append(message)
            return shed
        return message  # drop-newest: refuse the arrival

    def drain(self) -> list[Message]:
        """Remove and return all pending messages, oldest first."""
        messages = list(self.inbox)
        self.inbox.clear()
        return messages

    def pending(self) -> int:
        return len(self.inbox)


class MessageBus:
    """Brokered pub/sub + point-to-point transport with metering.

    Parameters
    ----------
    default_link:
        Link model used for endpoints registered without an explicit one.
    loss_rate:
        Probability that any delivery is silently dropped by the radio
        channel (fault injection for robustness tests).  The sender
        still pays transmit energy for a lost message — that is what
        makes loss expensive; the receiver pays nothing.
    seed:
        RNG seed for the loss process (losses are reproducible).
    fault_injector:
        Optional :class:`repro.network.faults.FaultInjector` consulted
        on every delivery, composing bursty loss, degradation windows,
        partitions and crash schedules on top of (or instead of) the
        plain ``loss_rate``.
    clock / latency_mode:
        Attach a :class:`repro.sim.clock.SimClock` and set
        ``latency_mode="link"`` for latency-faithful scheduled delivery;
        the default ``"zero"`` keeps the synchronous seed path even when
        a clock is attached.
    inbox_capacity / drop_policy:
        Default bound for every endpoint registered on this bus
        (``None`` = unbounded, the seed behaviour).  ``register`` can
        override per endpoint.  Overflow drops are charged to the
        distinct ``backpressure`` loss reason, never to the fault
        reasons the injector uses.
    """

    def __init__(
        self,
        default_link: LinkModel = WIFI,
        loss_rate: float = 0.0,
        seed: int | None = None,
        fault_injector: FaultInjector | None = None,
        clock=None,
        latency_mode: str = "zero",
        inbox_capacity: int | None = None,
        drop_policy: str = "drop-newest",
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if latency_mode not in LATENCY_MODES:
            raise ValueError(f"unknown latency_mode {latency_mode!r}")
        if inbox_capacity is not None and inbox_capacity < 1:
            raise ValueError("inbox_capacity must be >= 1 (or None)")
        if drop_policy not in DROP_POLICIES:
            raise ValueError(f"unknown drop_policy {drop_policy!r}")
        self.default_link = default_link
        self.loss_rate = loss_rate
        self.fault_injector = fault_injector
        self.clock = clock
        self.latency_mode = latency_mode
        self.inbox_capacity = inbox_capacity
        self.drop_policy = drop_policy
        self._endpoints: dict[str, Endpoint] = {}
        self.stats = TrafficStats()
        self._loss_rng = _random.Random(seed)

    @property
    def messages_lost(self) -> int:
        """Total non-deliveries, every reason (channel + backpressure)."""
        return self.stats.messages_lost

    @property
    def losses_by_reason(self) -> Counter[str]:
        """Per-reason non-delivery counts (lives on :attr:`stats`)."""
        return self.stats.losses_by_reason

    def stats_snapshot(self) -> dict[str, object]:
        """One JSON-serializable dict of the bus's traffic accounting.

        The single source of truth is :attr:`stats` (a
        :class:`TrafficStats`); on top of its counters this aggregates
        the per-endpoint backpressure figures the OVERLOAD machinery
        tracks — shed totals, queued backlog and the deepest any inbox
        ever got.  Served verbatim by the ingestion gateway's ``/stats``
        endpoint and handy for benches (``json.dumps`` works as is).
        """
        endpoints = self._endpoints.values()
        snapshot = self.stats.snapshot()
        snapshot.update(
            {
                "endpoints": len(self._endpoints),
                "pending": sum(e.pending() for e in endpoints),
                "backpressure_drops": sum(
                    e.dropped_backpressure for e in endpoints
                ),
                "inbox_peak": max(
                    (e.inbox_peak for e in endpoints), default=0
                ),
                "latency_mode": self.latency_mode,
                "deferred": self.deferred,
            }
        )
        return snapshot

    # -- clocked transport --------------------------------------------

    def attach_clock(self, clock, latency_mode: str = "link") -> None:
        """Bind a sim clock and select the delivery discipline.

        With ``latency_mode="link"`` every subsequent ``send``
        schedules its delivery at ``clock.now + transfer latency``; with
        ``"zero"`` the clock is held but delivery stays synchronous.
        """
        if latency_mode not in LATENCY_MODES:
            raise ValueError(f"unknown latency_mode {latency_mode!r}")
        self.clock = clock
        self.latency_mode = latency_mode
        if self.fault_injector is not None and self.fault_injector.clock is None:
            self.fault_injector.clock = clock

    @property
    def deferred(self) -> bool:
        """True when deliveries ride the event clock (latency faithful)."""
        return self.latency_mode == "link" and self.clock is not None

    # -- registration -------------------------------------------------

    def register(
        self,
        address: str,
        link: LinkModel | None = None,
        *,
        inbox_capacity: int | None = None,
        drop_policy: str | None = None,
    ) -> Endpoint:
        """Register (or fetch) the endpoint for ``address``.

        ``inbox_capacity``/``drop_policy`` override the bus defaults for
        this endpoint (``None`` = inherit the bus setting).
        """
        if address in self._endpoints:
            return self._endpoints[address]
        endpoint = Endpoint(
            address,
            link or self.default_link,
            inbox_capacity=(
                inbox_capacity
                if inbox_capacity is not None
                else self.inbox_capacity
            ),
            drop_policy=drop_policy or self.drop_policy,
        )
        self._endpoints[address] = endpoint
        return endpoint

    def unregister(self, address: str) -> None:
        """Drop an endpoint (node churn)."""
        self._endpoints.pop(address, None)

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise KeyError(f"no endpoint registered at {address!r}") from None

    def set_handler(
        self, address: str, handler: Callable[[Message], None] | None
    ) -> None:
        """Install (or clear) an arrival handler on an endpoint."""
        self.endpoint(address).handler = handler

    @property
    def addresses(self) -> list[str]:
        return sorted(self._endpoints)

    # -- point-to-point -----------------------------------------------

    def send(self, message: Message, *, strict: bool = True) -> bool:
        """Deliver a unicast message to its destination endpoint.

        Synchronous mode: returns True when the message reached the
        destination's inbox.  Deferred mode: returns True when the
        transmission was *scheduled* — the sender cannot know about an
        in-flight loss; it learns (or doesn't) from the missing reply.
        With ``strict`` (the default) an unregistered destination raises
        ``KeyError``; with ``strict=False`` it is counted as a loss and
        the sender still pays for the transmission — the drop-and-count
        path brokers use so node churn never aborts a round.
        """
        if message.destination not in self._endpoints:
            if strict:
                raise KeyError(
                    f"destination {message.destination!r} is not registered"
                )
            link = (
                self._endpoints[message.source].link
                if message.source in self._endpoints
                else self.default_link
            )
            self._record_loss(message, link, "unreachable")
            return False
        if self.deferred:
            self._schedule_delivery(message)
            return True
        return self._deliver(message)

    def _schedule_delivery(self, message: Message) -> None:
        """Put a message on the wire: arrival after the link latency."""
        delay = self._endpoints[message.destination].link.transfer_latency_s(
            message
        )
        self.clock.schedule_in(delay, lambda now: self._deliver(message))

    def _deliver(self, message: Message) -> bool:
        """Delivery-time processing: loss, faults, then the inbox.

        On the synchronous path this runs inside ``send``; on the
        deferred path it runs as the scheduled arrival event, so loss
        draws and fault verdicts happen at *delivery* sim time.
        """
        if message.destination not in self._endpoints:
            # Deferred mode only: the destination churned off the bus
            # while the message was in flight.
            link = (
                self._endpoints[message.source].link
                if message.source in self._endpoints
                else self.default_link
            )
            self._record_loss(message, link, "unreachable")
            return False
        destination = self._endpoints[message.destination]
        link = destination.link
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self._record_loss(message, link, "iid-loss")
            return False
        extra_latency = 0.0
        if self.fault_injector is not None:
            now = float(self.clock.now) if self.deferred else None
            verdict = self.fault_injector.evaluate(message, now=now)
            if not verdict.delivered:
                self._record_loss(message, link, verdict.reason or "fault")
                return False
            extra_latency = verdict.extra_latency_s
        if self.deferred and extra_latency > 0.0:
            # The degradation delay is real time on the wire: finish the
            # delivery when it elapses (faults are not re-evaluated).
            self.clock.schedule_in(
                extra_latency,
                lambda now: self._finish_delivery(message, extra_latency),
            )
            return True
        self._finish_delivery(message, extra_latency)
        return True

    def _finish_delivery(self, message: Message, extra_latency: float) -> None:
        """Hand the message to its endpoint and settle the accounting."""
        if message.destination not in self._endpoints:
            link = (
                self._endpoints[message.source].link
                if message.source in self._endpoints
                else self.default_link
            )
            self._record_loss(message, link, "unreachable")
            return
        destination = self._endpoints[message.destination]
        link = destination.link
        if self.deferred:
            message.arrived_at = float(self.clock.now)
        # Meter once; the same figures go to receiver, sender and bus.
        metered = (
            message.kind.value,
            message.size_bytes,
            link.transfer_energy_mj(message),
            link.receive_energy_mj(message),
            link.transfer_latency_s(message),
            extra_latency,
        )
        destination.stats.record(*metered)
        sender = self._endpoints.get(message.source)
        if sender is not None:
            sender.stats.record(*metered)
        self.stats.record(*metered)
        if destination.handler is not None:
            destination.handler(message)
        else:
            self._enqueue(destination, message)

    def _enqueue(self, destination: Endpoint, message: Message) -> bool:
        """Push through the bounded inbox, accounting any overflow shed.

        Returns True when ``message`` itself ended up queued (something
        *else* may have been evicted to make room); False when the drop
        policy refused the arrival.
        """
        shed = destination.push(message)
        if shed is not None:
            self._record_backpressure(shed, destination)
        return shed is not message

    def requeue(self, message: Message) -> bool:
        """Re-enqueue an already-delivered message at its destination.

        The supported way for handlers and pollers to put back traffic
        they drained but did not consume: it re-enters through the
        bounded inbox (so the bound can never be dodged by a re-enqueue)
        but is *not* re-metered — the radio was paid exactly once, at
        delivery.  Returns True when the message is back in the queue.
        """
        return self._enqueue(self.endpoint(message.destination), message)

    def _record_backpressure(
        self, shed: Message, destination: Endpoint
    ) -> None:
        """Account a queue-overflow drop at ``destination``.

        Delivery metering (bytes, energy, latency) already happened in
        :meth:`_finish_delivery` before the queue refused the message,
        so only the non-delivery counters move — backpressure never
        re-bills the radio, and it is charged to its own reason so it
        can never be confused with an injected channel fault.
        """
        destination.dropped_backpressure += 1
        destination.stats.record_loss(BACKPRESSURE_REASON)
        if shed.source in self._endpoints:
            self._endpoints[shed.source].stats.record_loss(
                BACKPRESSURE_REASON
            )
        self.stats.record_loss(BACKPRESSURE_REASON)

    def _record_loss(
        self, message: Message, link: LinkModel, reason: str
    ) -> None:
        """Account a dropped delivery: the sender still burned its radio."""
        self.stats.record_loss(reason)
        if message.destination in self._endpoints:
            destination = self._endpoints[message.destination]
            destination.inbound_lost += 1
            destination.stats.record_loss(reason)
        if message.source in self._endpoints:
            sender = self._endpoints[message.source]
            sender.outbound_lost += 1
            sender.stats.record_loss(reason)
            sender.stats.messages += 1
            sender.stats.bytes += message.size_bytes
            sender.stats.transmit_energy_mj += link.transfer_energy_mj(
                message
            )
        self.stats.messages += 1
        self.stats.bytes += message.size_bytes
        self.stats.transmit_energy_mj += link.transfer_energy_mj(message)
