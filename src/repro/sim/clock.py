"""Discrete-event simulation clock and event queue.

A minimal but complete priority-queue event loop: the heap holds
``(time, sequence, event)`` tuples, so ordering is compared in C and
ties break by insertion order — runs are deterministic.  Used by
:mod:`repro.sim.engine` to interleave mobility steps, field evolution,
sensing rounds and context windows on their own periods.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

__all__ = ["Event", "PeriodicHandle", "SimClock"]

EventCallback = Callable[[float], None]


@dataclass(slots=True)
class Event:
    """One scheduled event; the queue orders it by (time, sequence)."""

    time: float
    sequence: int
    callback: EventCallback
    cancelled: bool = False


@dataclass
class PeriodicHandle:
    """Cancellation handle for a periodic schedule.

    ``current`` tracks the next armed firing so :meth:`SimClock.cancel`
    can drop it from the queue; the ``cancelled`` flag stops the chain
    from re-arming even if the pending event has already been popped.
    """

    cancelled: bool = False
    current: Event | None = None


class SimClock:
    """Deterministic event queue with periodic-event support."""

    def __init__(self) -> None:
        # Heap of (time, sequence, event): the first two fields order it,
        # and sequence is unique, so the event itself is never compared.
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.events_run = 0

    def schedule(self, time: float, callback: EventCallback) -> Event:
        """Schedule a one-shot callback at an absolute time."""
        if not time >= self.now:
            if time != time:
                raise ValueError("cannot schedule at a NaN time")
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        sequence = next(self._sequence)
        event = Event(time, sequence, callback)
        heapq.heappush(self._queue, (time, sequence, event))
        return event

    def schedule_in(self, delay: float, callback: EventCallback) -> Event:
        """Schedule relative to the current time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self.now + delay, callback)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        start: float | None = None,
        until: float | None = None,
    ) -> PeriodicHandle:
        """Schedule a callback every ``period`` seconds.

        The callback fires first at ``start`` (default: one period from
        now) and re-arms itself after each firing while ``until`` (if
        given) has not passed — also after a firing that raised, whose
        exception then propagates out of :meth:`run_until`.  Returns a
        :class:`PeriodicHandle` that :meth:`cancel` accepts to stop the
        chain.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        first = self.now + period if start is None else start
        handle = PeriodicHandle()

        def fire(now: float) -> None:
            if handle.cancelled:
                return
            # Re-arm even when the callback raises: one bad firing must
            # not end the chain.  The exception still propagates.
            try:
                callback(now)
            finally:
                next_time = now + period
                if not handle.cancelled and (
                    until is None or next_time <= until
                ):
                    handle.current = self.schedule(next_time, fire)

        if until is None or first <= until:
            handle.current = self.schedule(first, fire)
        return handle

    def cancel(self, event: Event | PeriodicHandle) -> None:
        """Cancel a pending one-shot event or a periodic chain."""
        event.cancelled = True
        current = getattr(event, "current", None)
        if current is not None:
            current.cancelled = True

    def step(self) -> bool:
        """Run the next live event; returns False when none is left."""
        return self._run(float("inf"), 1) == 1

    def run_until(self, end_time: float) -> int:
        """Run all events scheduled at or before ``end_time``.

        Returns the number of events executed.  The clock lands exactly
        on ``end_time`` afterwards even if the last event was earlier.
        """
        if not end_time >= self.now:
            raise ValueError(f"cannot run backwards (or to NaN): {end_time}")
        executed = self._run(end_time, -1)
        self.now = end_time
        return executed

    def _run(self, end_time: float, limit: int) -> int:
        """Run up to ``limit`` live events (``-1``: no limit) due at or
        before ``end_time``; cancelled ones are dropped on the way and
        never move the clock.  Returns how many ran."""
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        while queue and executed != limit:
            time, _, event = queue[0]
            if time > end_time:
                break
            heappop(queue)
            if event.cancelled:
                continue
            self.now = time
            event.callback(time)
            self.events_run += 1
            executed += 1
        return executed

    @property
    def pending(self) -> int:
        return sum(1 for _, _, event in self._queue if not event.cancelled)
