"""Composable fault injection for the transport substrate.

The seed bus modelled exactly one failure mode: i.i.d. message loss.
Real crowdsensing radios fail in richer ways — losses come in bursts
(fading, interference), links degrade for whole intervals (a crowd
surge, a microwave oven), the network partitions (a broker walks behind
a building), and participants crash or churn on their own schedules.

This module provides one pluggable abstraction for all of them: a
:class:`FaultInjector` the bus consults on every delivery.  An injector
composes independent *fault models*; each model inspects the message and
the current (simulated) time and votes drop / extra latency.  Every
stochastic model is seeded, and :meth:`FaultInjector.reset` rewinds the
whole composition to its initial state so a faulty run can be replayed
bit-for-bit.

Fault models implement two methods::

    evaluate(message, now) -> (dropped: bool, extra_latency_s: float)
    reset() -> None

and carry a ``name`` used for per-reason drop accounting.
"""

from __future__ import annotations

import math
import random as _random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Protocol

from .message import Message

__all__ = [
    "DeliveryVerdict",
    "FaultModel",
    "IIDLoss",
    "GilbertElliottLoss",
    "DegradationWindow",
    "Partition",
    "CrashSchedule",
    "FaultInjector",
]


@dataclass(frozen=True)
class DeliveryVerdict:
    """The injector's ruling on one delivery attempt."""

    delivered: bool
    reason: str | None = None
    extra_latency_s: float = 0.0


class FaultModel(Protocol):
    """Structural interface every fault model satisfies."""

    name: str

    def evaluate(
        self, message: Message, now: float
    ) -> tuple[bool, float]: ...

    def reset(self) -> None: ...


class IIDLoss:
    """Memoryless channel loss: each delivery independently dropped."""

    name = "iid-loss"

    def __init__(self, rate: float, seed: int | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.rate = rate
        self._seed = seed
        self._rng = _random.Random(seed)

    def evaluate(self, message: Message, now: float) -> tuple[bool, float]:
        if self.rate > 0.0 and self._rng.random() < self.rate:
            return True, 0.0
        return False, 0.0

    def reset(self) -> None:
        self._rng = _random.Random(self._seed)


class GilbertElliottLoss:
    """Two-state Markov (good/bad) channel — the classic bursty model.

    The chain advances one step per delivery attempt; the loss
    probability depends on the current state.  The stationary loss rate
    is ``pi_bad * loss_bad + (1 - pi_bad) * loss_good`` with
    ``pi_bad = p_enter_bad / (p_enter_bad + p_exit_bad)`` — handy for
    matching an i.i.d. sweep's average while keeping the losses bursty.
    """

    name = "bursty-loss"

    def __init__(
        self,
        p_enter_bad: float = 0.05,
        p_exit_bad: float = 0.25,
        loss_good: float = 0.0,
        loss_bad: float = 0.75,
        seed: int | None = None,
    ) -> None:
        for label, p in (
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._seed = seed
        self._rng = _random.Random(seed)
        self.state = "good"

    @property
    def stationary_loss_rate(self) -> float:
        denominator = self.p_enter_bad + self.p_exit_bad
        if denominator == 0.0:
            return self.loss_good if self.state == "good" else self.loss_bad
        pi_bad = self.p_enter_bad / denominator
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def evaluate(self, message: Message, now: float) -> tuple[bool, float]:
        if self.state == "good":
            if self._rng.random() < self.p_enter_bad:
                self.state = "bad"
        else:
            if self._rng.random() < self.p_exit_bad:
                self.state = "good"
        loss = self.loss_bad if self.state == "bad" else self.loss_good
        if loss > 0.0 and self._rng.random() < loss:
            return True, 0.0
        return False, 0.0

    def reset(self) -> None:
        self._rng = _random.Random(self._seed)
        self.state = "good"


class DegradationWindow:
    """A scheduled interval of extra loss and/or latency on every link.

    Models transient RF trouble: while ``start <= now < end`` each
    delivery is additionally dropped with ``extra_loss`` probability and,
    when it survives, delayed by ``extra_latency_s``.
    """

    name = "degraded-window"

    def __init__(
        self,
        start: float,
        end: float,
        extra_loss: float = 0.0,
        extra_latency_s: float = 0.0,
        seed: int | None = None,
    ) -> None:
        if end <= start:
            raise ValueError("window end must be after start")
        if not 0.0 <= extra_loss <= 1.0:
            raise ValueError("extra_loss must be in [0, 1]")
        if extra_latency_s < 0.0:
            raise ValueError("extra_latency_s must be non-negative")
        self.start = start
        self.end = end
        self.extra_loss = extra_loss
        self.extra_latency_s = extra_latency_s
        self._seed = seed
        self._rng = _random.Random(seed)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def evaluate(self, message: Message, now: float) -> tuple[bool, float]:
        if not self.active(now):
            return False, 0.0
        if self.extra_loss > 0.0 and self._rng.random() < self.extra_loss:
            return True, 0.0
        return False, self.extra_latency_s

    def reset(self) -> None:
        self._rng = _random.Random(self._seed)


class Partition:
    """Mutual unreachability between two address sets for an interval.

    Any message crossing the cut in either direction while the partition
    is active is dropped.  Addresses in neither set are unaffected.
    """

    name = "partition"

    def __init__(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        start: float = 0.0,
        end: float = math.inf,
    ) -> None:
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        if self.group_a & self.group_b:
            raise ValueError("partition groups must be disjoint")
        if end <= start:
            raise ValueError("partition end must be after start")
        self.start = start
        self.end = end

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def evaluate(self, message: Message, now: float) -> tuple[bool, float]:
        if not self.active(now):
            return False, 0.0
        crosses = (
            message.source in self.group_a
            and message.destination in self.group_b
        ) or (
            message.source in self.group_b
            and message.destination in self.group_a
        )
        return crosses, 0.0

    def reset(self) -> None:  # stateless
        return None


class CrashSchedule:
    """Node crash/churn schedule: down at ``t``, optionally back later.

    While an address is down every delivery to or from it is dropped
    (its radio is off), and :meth:`is_down` lets higher layers — the
    NanoCloud's heartbeat failover — observe liveness without peeking
    into message flow.
    """

    name = "crash"

    def __init__(self) -> None:
        self._outages: dict[str, list[tuple[float, float]]] = {}

    def crash(
        self, address: str, at: float, rejoin: float | None = None
    ) -> "CrashSchedule":
        """Schedule ``address`` down from ``at`` until ``rejoin`` (or
        forever); returns self so schedules chain fluently."""
        until = math.inf if rejoin is None else rejoin
        if until <= at:
            raise ValueError("rejoin must be after the crash time")
        self._outages.setdefault(address, []).append((at, until))
        return self

    def is_down(self, address: str, now: float) -> bool:
        return any(
            start <= now < end
            for start, end in self._outages.get(address, ())
        )

    def evaluate(self, message: Message, now: float) -> tuple[bool, float]:
        down = self.is_down(message.source, now) or self.is_down(
            message.destination, now
        )
        return down, 0.0

    def reset(self) -> None:  # the schedule itself is deterministic
        return None


class FaultInjector:
    """Composition of fault models consulted per bus delivery.

    Parameters
    ----------
    *faults:
        Fault models, evaluated in order; the first drop wins (its
        ``name`` becomes the drop reason) and latencies accumulate
        across models that let the message through.
    clock:
        Optional time source with a ``now`` attribute (a
        :class:`repro.sim.clock.SimClock`).  Without one, each message's
        own ``timestamp`` is used as the current time — adequate for the
        broker's synchronous rounds, where command timestamps advance
        with the retry backoff.
    """

    def __init__(self, *faults: FaultModel, clock=None) -> None:
        self.faults: list[FaultModel] = list(faults)
        self.clock = clock
        self.drops_by_reason: Counter[str] = Counter()

    def add(self, fault: FaultModel) -> FaultModel:
        """Attach another fault model; returns it for chaining."""
        self.faults.append(fault)
        return fault

    def now_for(self, message: Message) -> float:
        if self.clock is not None:
            return float(self.clock.now)
        return float(message.timestamp)

    def evaluate(
        self, message: Message, now: float | None = None
    ) -> DeliveryVerdict:
        """Rule on one delivery; accounts drops by fault name."""
        if now is None:
            now = self.now_for(message)
        extra_latency = 0.0
        for fault in self.faults:
            dropped, latency = fault.evaluate(message, now)
            extra_latency += latency
            if dropped:
                self.drops_by_reason[fault.name] += 1
                return DeliveryVerdict(
                    delivered=False,
                    reason=fault.name,
                    extra_latency_s=extra_latency,
                )
        return DeliveryVerdict(delivered=True, extra_latency_s=extra_latency)

    def is_down(self, address: str, now: float) -> bool:
        """Is ``address`` crash-scheduled down at ``now``?"""
        return any(
            fault.is_down(address, now)
            for fault in self.faults
            if isinstance(fault, CrashSchedule)
        )

    def reset(self) -> None:
        """Rewind every fault model and the drop accounting (replay)."""
        for fault in self.faults:
            fault.reset()
        self.drops_by_reason.clear()
