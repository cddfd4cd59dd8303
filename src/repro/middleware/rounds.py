"""Event-driven aggregation rounds: resumable broker state machines.

A round is a command → collect → solve exchange.  This module drives it
on the discrete-event clock as a state machine:

    IDLE → COMMANDING → COLLECTING → SOLVING → FINALIZED

- **COMMANDING**: each NanoCloud's broker draws its plan
  (:meth:`Broker.plan_round`) and its collector transmits one
  SENSE_COMMAND per planned cell.
- **COLLECTING**: reports arrive as bus events; the collector retries or
  rotates to the next co-located candidate when a report does not come
  (see :class:`repro.middleware.broker._Collector`); a *report deadline*
  event bounds the wait — when it fires, the round solves with whatever
  arrived (partial-report solve) after infrastructure fallback.
- **SOLVING/FINALIZED**: the pure-numeric solve of each frozen round
  and the state adaptation, then a round-completed callback.

One :class:`ZoneRoundDriver` runs one zone (LocalCloud) on its own
period and phase offset, so zones desynchronise instead of marching
under a global barrier.  The collector is the one ``Broker.collect_round``
runs, so on a ``latency_mode="zero"`` bus — where every exchange
completes inside ``send`` — a round closes at the instant it starts,
bit-identical to the lockstep rounds.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from ..analysis import contracts
from ..sensors.base import Environment
from .broker import Broker, _Collector
from .localcloud import LocalCloud, LocalCloudResult
from .overload import (
    ADMISSION_RETRY_FRAC,
    BUSY_SKIP_BUDGET,
    OverloadController,
    RoundDirectives,
)

if TYPE_CHECKING:
    from ..sim.clock import PeriodicHandle, SimClock

__all__ = [
    "RoundState",
    "ZoneSchedule",
    "ZoneRoundOutcome",
    "ZoneRoundDriver",
    "REPORT_DEADLINE_S",
]

#: Deferred bus (latency_mode="link"): sim seconds after the commands go
#: out at which a round stops waiting and solves with whatever reports
#: arrived — the partial-solve deadline of the COLLECTING state, unless
#: the driver is handed its own.  On the zero-latency bus every exchange
#: completes inside send, so no round ever reaches it.
REPORT_DEADLINE_S = 10.0


class RoundState(Enum):
    """Lifecycle of one zone's aggregation round."""

    IDLE = "idle"
    COMMANDING = "commanding"
    COLLECTING = "collecting"
    SOLVING = "solving"
    FINALIZED = "finalized"


@dataclass(frozen=True)
class ZoneSchedule:
    """Per-zone cadence: sensing period and phase offset.

    ``offset_s`` is the sim time of the zone's *first* round (default:
    one period in), so zones can interleave instead of synchronising.
    """

    period_s: float
    offset_s: float | None = None

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.offset_s is not None and self.offset_s < 0:
            raise ValueError("offset_s must be non-negative")


@dataclass(frozen=True)
class ZoneRoundOutcome:
    """One completed zone round, with its command-to-estimate latency.

    ``partial`` means a planned cell went unrealised (no candidate
    answered and no fixed sensor covered it), on either bus.  ``stale``
    marks an overload outcome that re-serves the previous round's field
    (breaker OPEN or ladder LEVEL_STALE) instead of sensing — its
    estimates carry ``staleness_rounds`` > 0.
    """

    zone_id: int
    result: LocalCloudResult
    started_at: float
    completed_at: float
    index: int
    partial: bool = False
    stale: bool = False

    @property
    def latency_s(self) -> float:
        """Sim time from the first command to the finalized estimate."""
        return self.completed_at - self.started_at


class ZoneRoundDriver:
    """Drives one zone's rounds on the event clock.

    Parameters
    ----------
    zone_id / localcloud:
        The zone and its LocalCloud (brokers + nodes already on a bus).
    env:
        Ground truth the member sensors read.
    clock:
        The :class:`repro.sim.clock.SimClock` everything is scheduled on.
    period_s / offset_s:
        Round cadence; the first round fires at ``offset_s`` (default:
        one period in).
    report_deadline_s:
        COLLECTING deadline (default :data:`REPORT_DEADLINE_S`), clamped
        below the period so a round always closes before the next one
        is due.
    cloud_address:
        When set, every finalized round reports upward to this address
        (the public-cloud uplink of the lockstep path).
    measurements_per_nc:
        Optional fixed per-NanoCloud measurement budgets.
    on_complete:
        Callback receiving each :class:`ZoneRoundOutcome` — the
        round-completed event the simulation layer subscribes to.
    """

    def __init__(
        self,
        zone_id: int,
        localcloud: LocalCloud,
        env: Environment,
        clock: "SimClock",
        *,
        period_s: float,
        offset_s: float | None = None,
        report_deadline_s: float | None = None,
        cloud_address: str | None = None,
        measurements_per_nc: list[int] | None = None,
        on_complete: Callable[["ZoneRoundOutcome"], None] | None = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if report_deadline_s is None:
            report_deadline_s = REPORT_DEADLINE_S
        elif report_deadline_s <= 0:
            raise ValueError("report_deadline_s must be positive")
        self.zone_id = zone_id
        self.lc = localcloud
        self.env = env
        self.clock = clock
        self.bus = localcloud.bus
        self.period_s = period_s
        self.offset_s = offset_s
        # A round must close before the next is due or every firing
        # after the first would be skipped as busy.
        self.report_deadline_s = min(report_deadline_s, 0.9 * period_s)
        self.cloud_address = cloud_address
        self.measurements_per_nc = measurements_per_nc
        self.on_complete = on_complete
        self.state = RoundState.IDLE
        self.rounds_completed = 0
        self.rounds_skipped = 0
        self.rounds_failed = 0
        # Firings where no NanoCloud had anyone to command.
        self.rounds_idle = 0
        self.late_reports = 0
        # Overload accounting: busy firings that were rescheduled by
        # admission control, and round slots served from the last good
        # estimate (breaker OPEN / ladder LEVEL_STALE).
        self.rounds_rescheduled = 0
        self.rounds_stale_served = 0
        self.last_outcome: ZoneRoundOutcome | None = None
        self._generation = 0
        self._started_at = 0.0
        self._collections: list[_Collector | None] = []
        self._handle: "PeriodicHandle | None" = None
        self._directives = RoundDirectives()
        self._busy_streak = 0
        self._retry_pending = False
        # The driver's state machine belongs to the thread that built it
        # (the event loop).  The sanitizer asserts this on every state
        # transition.
        self._owner_ident = threading.get_ident()

    # -- scheduling ----------------------------------------------------

    def start(self, until: float | None = None) -> None:
        """Arm the periodic round schedule on the clock."""
        first = self.offset_s if self.offset_s is not None else self.period_s
        self._handle = self.clock.schedule_periodic(
            self.period_s, self._begin_round, start=first, until=until
        )
        # AGGREGATE traffic to the head/cloud tiers is metered on
        # arrival and then discarded (nothing here drains those inboxes).
        self.bus.set_handler(self.lc.head_address, lambda message: None)
        if self.cloud_address is not None:
            self.bus.set_handler(self.cloud_address, lambda message: None)

    def stop(self) -> None:
        if self._handle is not None:
            self.clock.cancel(self._handle)

    # -- round lifecycle -----------------------------------------------

    # -- overload protection -------------------------------------------

    @property
    def overload(self) -> OverloadController:
        """The zone's overload controller (lead NC broker's state).

        Read through the broker each time so a heartbeat failover —
        which carries the controller onto the promoted acting broker —
        keeps feeding the same detector/breaker/ladder state.
        """
        return self.lc.nanoclouds[0].broker.overload

    def _queue_depth(self) -> int:
        """Pending bus traffic at the zone's broker endpoints."""
        depth = 0
        for nc in self.lc.nanoclouds:
            try:
                depth += self.bus.endpoint(nc.broker.broker_id).pending()
            except KeyError:
                pass  # broker endpoint churned; it holds no queue
        return depth

    def _nc_budget(
        self, broker: Broker, idx: int, directives: RoundDirectives
    ) -> int | None:
        """This NC's measurement budget after the ladder's M scaling."""
        budget = (
            self.measurements_per_nc[idx]
            if self.measurements_per_nc is not None
            else None
        )
        if directives.m_scale >= 1.0:
            return budget
        if budget is None:
            k_est = broker._sparsity_estimate()
            if directives.sparsity_cap is not None:
                k_est = min(k_est, directives.sparsity_cap)
            budget = broker.config.policy.measurements(broker.n, k_est)
        return max(1, int(round(directives.m_scale * budget)))

    def _handle_busy(self, now: float) -> None:
        """A firing found the previous round still in flight."""
        self.rounds_skipped += 1
        if not self.overload.config.admission_control:
            return
        self._busy_streak += 1
        over_budget = self._busy_streak > BUSY_SKIP_BUDGET
        self.overload.record_busy_skip(over_budget)
        if over_budget or self._retry_pending:
            return
        # Admission control: rather than waiting a whole period, retry
        # a fraction of it later — the in-flight round may close soon.
        self._retry_pending = True
        self.rounds_rescheduled += 1
        self.clock.schedule_in(
            ADMISSION_RETRY_FRAC * self.period_s, self._admission_retry
        )

    def _admission_retry(self, now: float) -> None:
        self._retry_pending = False
        self._begin_round(now)

    def _serve_stale(self, now: float, directives: RoundDirectives) -> None:
        """Serve the last good estimate instead of running a round."""
        self.rounds_stale_served += 1
        last = self.last_outcome
        if last is None:
            return  # nothing good to serve yet; the slot is simply lost
        estimates = [
            dataclasses.replace(
                e,
                timestamp=now,
                degraded=True,
                staleness_rounds=e.staleness_rounds + 1,
                degraded_level=max(directives.level, e.degraded_level),
            )
            for e in last.result.nc_estimates
        ]
        result = LocalCloudResult(
            field=last.result.field, nc_estimates=estimates, timestamp=now
        )
        outcome = ZoneRoundOutcome(
            zone_id=self.zone_id,
            result=result,
            started_at=now,
            completed_at=now,
            index=self.rounds_completed,
            stale=True,
        )
        self.last_outcome = outcome
        if self.on_complete is not None:
            self.on_complete(outcome)

    # -- round lifecycle (continued) -----------------------------------

    def _begin_round(self, now: float) -> None:
        if contracts.enabled():
            contracts.assert_thread(
                self._owner_ident, "ZoneRoundDriver._begin_round"
            )
        if self.state not in (RoundState.IDLE, RoundState.FINALIZED):
            # The previous round is still collecting/solving: skip this
            # firing rather than pile up overlapping rounds (and, with
            # admission control armed, retry a fraction of a period in).
            self._handle_busy(now)
            return
        self._busy_streak = 0
        directives = self.overload.begin_round(self._queue_depth())
        if directives.serve_stale:
            self._serve_stale(now, directives)
            return
        self._directives = directives
        self._generation += 1
        self._started_at = now
        gen = self._generation
        self.state = RoundState.COMMANDING
        self._collections = []
        try:
            for idx, nc in enumerate(self.lc.nanoclouds):
                broker = nc.prepare_round(now)
                try:
                    plan = broker.plan_round(
                        measurements=self._nc_budget(broker, idx, directives),
                        sparsity_cap=directives.sparsity_cap,
                    )
                except RuntimeError:
                    self._collections.append(None)
                    continue
                collector = _Collector(
                    broker, plan, self.bus, nc.nodes, self.env, now,
                    on_settled=self._maybe_complete,
                    on_late=self._count_late,
                )
                self._collections.append(collector)
                collector.attach()
                collector.run()
        except Exception:
            self._abandon()
            raise
        if all(col is None for col in self._collections):
            # Nothing went out, so nothing failed.
            self.rounds_idle += 1
            self.state = RoundState.IDLE
            return
        self.state = RoundState.COLLECTING
        self._maybe_complete()
        if self.state is RoundState.COLLECTING:
            self.clock.schedule_in(
                self.report_deadline_s,
                lambda t, g=gen: self._deadline(g, t),
            )

    def _count_late(self) -> None:
        self.late_reports += 1

    def _abandon(self) -> None:
        """Count the round failed and drop it, so the next firing starts
        clean: a phase raised (the caller re-raises, the error is not
        swallowed) or a broker collected nothing.  The generation bump
        voids its pending deadline and closing its collectors voids its
        late reports and retry timers.
        """
        self._generation += 1
        self.rounds_failed += 1
        self.state = RoundState.IDLE
        for col in self._collections:
            if col is not None:
                col.closed = True

    def _maybe_complete(self) -> None:
        if self.state is RoundState.COLLECTING and all(
            col is None or col.settled for col in self._collections
        ):
            self._close_collection(float(self.clock.now))

    def _deadline(self, gen: int, now: float) -> None:
        if gen != self._generation or self.state is not RoundState.COLLECTING:
            return
        self._close_collection(now)

    # -- solving / finalizing ------------------------------------------

    def _close_collection(self, now: float) -> None:
        if contracts.enabled():
            contracts.assert_thread(
                self._owner_ident, "ZoneRoundDriver._close_collection"
            )
        self.state = RoundState.SOLVING
        for col in self._collections:
            if col is not None:
                col.closed = True  # late reports and timers now miss
        try:
            pairs = []
            for col in self._collections:
                try:
                    pending = col.close() if col is not None else None
                except RuntimeError:  # nothing collected
                    pending = None
                if col is None or pending is None:
                    self._abandon()
                    return
                pairs.append((col.broker, pending))
            partial = any(col.partial for col in self._collections if col)
            solved = [broker.solve_round(pending) for broker, pending in pairs]
            result = self.lc.finish_round(pairs, solved, self._started_at)
            # The estimate exists only now: on a WallClock the solve took
            # real time since `now` was read (a SimClock does not advance
            # inside an event, so there the two are the same instant).
            completed_at = float(self.clock.now)
            if self.cloud_address is not None:
                self.lc.report_upward(self.cloud_address, result, now)
        except Exception:
            self._abandon()
            raise
        # Outside the try: the round is complete, so a raising
        # on_complete propagates without counting it failed as well.
        self._finish(result, completed_at, partial)

    def _finish(
        self, result: LocalCloudResult, now: float, partial: bool
    ) -> None:
        if contracts.enabled():
            contracts.assert_thread(
                self._owner_ident, "ZoneRoundDriver._finish"
            )
        self.state = RoundState.FINALIZED
        self.rounds_completed += 1
        directives = self._directives
        if directives.level > 0:
            # A degraded (reduced-M / coarse) round: stamp the ladder
            # level on the estimates so consumers can weight them.
            for estimate in result.nc_estimates:
                estimate.degraded = True
                estimate.degraded_level = directives.level
        latency = now - self._started_at
        # A round the report deadline had to close is the breaker's
        # "failure" signal — sim-time, so replays reproduce every trip.
        self.overload.finish_round(
            latency_s=latency,
            deadline_s=self.report_deadline_s,
            timed_out=latency >= self.report_deadline_s,
        )
        outcome = ZoneRoundOutcome(
            zone_id=self.zone_id,
            result=result,
            started_at=self._started_at,
            completed_at=now,
            index=self.rounds_completed,
            partial=partial,
        )
        self.last_outcome = outcome
        if self.on_complete is not None:
            self.on_complete(outcome)
