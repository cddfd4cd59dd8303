"""Real-time clock with the SimClock scheduling interface.

:class:`WallClock` lets everything written against
:class:`repro.sim.clock.SimClock` — most importantly
:class:`repro.middleware.rounds.ZoneRoundDriver` and the deferred
delivery path of the transport — run unmodified against real time:
``schedule``/``schedule_in``/``schedule_periodic``/``cancel`` keep their
signatures and handle semantics, but callbacks fire on an
:class:`asyncio` event loop via ``loop.call_later`` instead of a popped
heap event.  ``now`` is the loop's monotonic time re-zeroed at clock
construction, so schedules and message timestamps stay small positive
floats exactly like sim time.

This module is on reprolint RPR002's sanctioned realtime-module
allowlist (see ``docs/invariants.md``): here the wall clock *is* the
simulation clock, by design.  Everything else must keep scheduling on
whichever clock it was handed.

Two deliberate divergences from SimClock, both forced by time that
advances on its own:

- Scheduling in the past does not raise; the callback is simply due
  immediately (``delay`` clamps at 0).  On a discrete-event clock a past
  schedule is a logic error; on a wall clock it is a race every busy
  handler loses occasionally.
- ``run_until`` does not exist — real time cannot be fast-forwarded.
  :meth:`run_for` drives the owned loop for a real-time duration and is
  the test/bench entry point.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Coroutine

__all__ = ["WallEvent", "WallPeriodicHandle", "WallClock"]

EventCallback = Callable[[float], None]


@dataclass
class WallEvent:
    """One armed wall-clock callback; ``cancel`` via :meth:`WallClock.cancel`."""

    time: float
    callback: EventCallback = field(compare=False)
    cancelled: bool = False
    timer: asyncio.TimerHandle | None = None


@dataclass
class WallPeriodicHandle:
    """Cancellation handle for a periodic wall-clock schedule.

    Mirrors :class:`repro.sim.clock.PeriodicHandle`: ``current`` is the
    armed next firing, ``cancelled`` stops the chain from re-arming.
    """

    cancelled: bool = False
    current: WallEvent | None = None


class WallClock:
    """Drives SimClock-style schedules on an asyncio event loop.

    Parameters
    ----------
    loop:
        The event loop callbacks fire on.  ``None`` creates a fresh
        private loop (exposed as :attr:`loop`) that the owner drives —
        via :meth:`run_for` / :meth:`run_until_complete`, or directly.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self._origin = self.loop.time()
        self.events_run = 0

    @property
    def now(self) -> float:
        """Seconds of real time since this clock was constructed."""
        return self.loop.time() - self._origin

    # -- scheduling ----------------------------------------------------

    def schedule(self, time: float, callback: EventCallback) -> WallEvent:
        """Arm a one-shot callback at an absolute clock time.

        A ``time`` already in the past fires as soon as the loop gets
        control (real time cannot be rewound, so unlike SimClock this is
        a zero-delay schedule, not an error).
        """
        event = WallEvent(time=time, callback=callback)
        delay = max(0.0, time - self.now)
        event.timer = self.loop.call_later(delay, self._fire, event)
        return event

    def schedule_in(self, delay: float, callback: EventCallback) -> WallEvent:
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
    ) -> WallPeriodicHandle:
        """Schedule a callback every ``period`` seconds.

        Same contract as :meth:`repro.sim.clock.SimClock
        .schedule_periodic`: first firing at ``start`` (default one
        period from now), re-arming after each firing while ``until``
        has not passed.  Re-arming is anchored to the *fired* time, so a
        loop stalled past one slot does not burst to catch up.  A firing
        that raises is re-armed too; its exception goes to the loop's
        exception handler.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        first = self.now + period if start is None else start
        handle = WallPeriodicHandle()

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

    def cancel(self, event: WallEvent | WallPeriodicHandle) -> None:
        """Cancel a pending one-shot event or a periodic chain."""
        event.cancelled = True
        for pending in (event, getattr(event, "current", None)):
            if pending is None:
                continue
            pending.cancelled = True
            timer = getattr(pending, "timer", None)
            if timer is not None:
                timer.cancel()

    def _fire(self, event: WallEvent) -> None:
        if event.cancelled:
            return
        self.events_run += 1
        event.callback(self.now)

    # -- driving the owned loop ----------------------------------------

    def run_for(self, duration_s: float) -> None:
        """Run the loop for a real-time duration (tests and benches)."""
        self.loop.run_until_complete(asyncio.sleep(duration_s))

    def run_until_complete(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Drive the owned loop until ``coro`` finishes."""
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        """Close the owned loop (idempotent)."""
        if not self.loop.is_closed():
            self.loop.close()
