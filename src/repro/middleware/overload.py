"""Overload protection: detector, circuit breaker, degradation ladder.

The middleware is pitched as the layer that keeps sense-making viable
when report volumes outgrow any single collection point (Section 1's
"heavy traffic" framing).  Loss robustness (ROB-LOSS) and Byzantine
robustness (ROB-BYZ) cover a hostile *channel* and hostile *data*; this
module covers a hostile *rate* — offered load exceeding solve capacity —
and turns the failure mode from a cliff (unbounded queues, rounds
falling ever further behind) into a brownout:

- :class:`OverloadDetector` — EWMAs of broker queue depth and
  command→estimate latency (the async round path's own signal), combined
  into a pressure score with hysteresis.  Pure arithmetic on sim-clock
  observations: replaying a seeded scenario replays every transition.
- :class:`CircuitBreaker` — CLOSED → OPEN after repeated round
  timeouts (deadline-closed solves), OPEN → HALF_OPEN after a cooldown,
  and a half-open *probe round* decides between re-closing and
  re-opening.  While OPEN the zone serves its last good estimate
  instead of paying for solves that keep blowing their budget.
- :class:`DegradationLadder` — the broker's staged retreat under
  sustained pressure: full fidelity, reduced M, coarse recovery
  (reduced M *and* a sparsity cap, which bounds solve cost), and
  finally stale serving.  Transitions run both ways so the zone climbs
  back to full fidelity when pressure clears.
- :class:`OverloadController` — one per broker, composing the three.
  It travels with the broker's zone knowledge on failover (see
  :meth:`repro.middleware.nanocloud.NanoCloud.promote_broker`), so a
  promoted broker resumes mid-degradation instead of resetting to
  full-fidelity solves it has no budget for.

Everything here is default-off: a default :class:`OverloadConfig`
disables admission control, the breaker and the ladder, and the
controller then never alters a round — bit-identity with the
unprotected path is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "OverloadConfig",
    "OverloadDetector",
    "BreakerState",
    "CircuitBreaker",
    "DegradationLadder",
    "RoundDirectives",
    "OverloadController",
]

#: Ladder levels, lowest fidelity last.  Levels are ints so telemetry
#: (ZoneEstimate.degraded_level) stays comparable across configs.
LEVEL_FULL = 0  # normal operation
LEVEL_REDUCED_M = 1  # fewer measurements per round
LEVEL_COARSE = 2  # fewer measurements + sparsity-capped (cheap) solve
LEVEL_STALE = 3  # serve the last good estimate; no sensing at all

MAX_LEVEL = LEVEL_STALE


#: Admission control: a firing that finds the previous round still in
#: flight retries once, ``ADMISSION_RETRY_FRAC`` of a period later,
#: while the consecutive busy skips number at most ``BUSY_SKIP_BUDGET``;
#: the next one is sustained pressure and escalates the ladder instead.
BUSY_SKIP_BUDGET = 2
ADMISSION_RETRY_FRAC = 0.25
#: Circuit breaker: BREAKER_FAILURES consecutive timed-out rounds trip
#: it; of the next BREAKER_COOLDOWN_ROUNDS slots all but the last serve
#: stale, and the last is the half-open probe round.
BREAKER_FAILURES = 3
BREAKER_COOLDOWN_ROUNDS = 2
#: EWMA steps of the detector's queue-depth and latency signals.
QUEUE_ALPHA = 0.5
LATENCY_ALPHA = 0.5
#: Fraction of the report deadline at which the latency EWMA counts as
#: pressure 1.0: rounds routinely finishing near the deadline are
#: rounds about to start missing it.
LATENCY_HIGH_FRAC = 0.9
#: Ladder hysteresis: one step coarser when the pressure exceeds
#: ``ESCALATE_AT``; one step finer after ``RECOVER_ROUNDS`` consecutive
#: observations below ``RECOVER_BELOW`` (a mid-band reading breaks the
#: streak, so the ladder does not flap at a threshold).
ESCALATE_AT = 1.0
RECOVER_BELOW = 0.5
RECOVER_ROUNDS = 2
#: Measurement-budget multipliers at LEVEL_REDUCED_M and LEVEL_COARSE.
REDUCED_M_SCALE = 0.5
COARSE_M_SCALE = 0.35


@dataclass(frozen=True)
class OverloadConfig:
    """The overload-protection switches (all default-off) and the two
    per-deployment scales.

    The detector's EWMA steps and hysteresis, the breaker's trip count
    and cooldown, the admission retry and the ladder's M multipliers
    are the module constants above: one protocol, the same for every
    zone.  What a deployment chooses is which defences run, how deep a
    queue means saturation and how cheap the coarse solve must be.

    Attributes
    ----------
    admission_control:
        Arm busy-skip rescheduling on the round driver
        (``BUSY_SKIP_BUDGET``, ``ADMISSION_RETRY_FRAC``).
    breaker_enabled:
        Arm the solve circuit breaker: ``BREAKER_FAILURES`` consecutive
        timed-out rounds (closed by the report deadline rather than by
        the last report) trip it OPEN; the zone then serves stale and
        half-opens on a probe round whose outcome closes or re-opens it.
    ladder_enabled:
        Arm the graceful-degradation ladder driven by the detector.
    queue_high:
        Queue depth (EWMA) that counts as pressure 1.0 — the broker's
        service capacity per round, which the deployment knows.
    coarse_sparsity_cap:
        Sparsity-estimate ceiling at LEVEL_COARSE — bounds the solve's
        iteration count, which is what makes the coarse level cheap.
    """

    admission_control: bool = False
    breaker_enabled: bool = False
    ladder_enabled: bool = False
    queue_high: float = 32.0
    coarse_sparsity_cap: int = 8

    def __post_init__(self) -> None:
        if self.queue_high <= 0:
            raise ValueError("queue_high must be positive")
        if self.coarse_sparsity_cap < 1:
            raise ValueError("coarse_sparsity_cap must be >= 1")

    @property
    def any_enabled(self) -> bool:
        """True when any overload feature can alter a round."""
        return (
            self.admission_control
            or self.breaker_enabled
            or self.ladder_enabled
        )


@dataclass
class OverloadDetector:
    """EWMA pressure detector over queue depth and round latency.

    State is two floats updated by pure arithmetic on observations the
    sim clock produced, so a replayed scenario replays every pressure
    value bit for bit.  ``pressure`` is the worse of the two normalised
    signals: either a deep queue or near-deadline latency alone is
    enough to mean the zone is saturated.
    """

    config: OverloadConfig = field(default_factory=OverloadConfig)
    queue_ewma: float = 0.0
    latency_ewma: float = 0.0
    observations: int = 0

    def observe_queue(self, depth: int) -> None:
        self.queue_ewma += QUEUE_ALPHA * (float(depth) - self.queue_ewma)

    def observe_latency(self, latency_s: float, deadline_s: float) -> None:
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        normalised = latency_s / deadline_s
        self.latency_ewma += LATENCY_ALPHA * (normalised - self.latency_ewma)
        self.observations += 1

    def observe_stale_serve(self) -> None:
        """A stale serve completes instantly: a zero-latency observation.

        Without this the latency EWMA would freeze at its saturated
        value once the ladder reaches LEVEL_STALE (stale slots never
        reach :meth:`OverloadController.finish_round`), latching the
        zone stale forever.  Decaying it here lets sustained calm
        unlatch the ladder.
        """
        self.latency_ewma -= LATENCY_ALPHA * self.latency_ewma
        self.observations += 1

    @property
    def pressure(self) -> float:
        """Combined pressure: 1.0 = at the configured saturation point."""
        queue_pressure = self.queue_ewma / self.config.queue_high
        latency_pressure = self.latency_ewma / LATENCY_HIGH_FRAC
        return max(queue_pressure, latency_pressure)


class BreakerState(Enum):
    """Solve circuit breaker lifecycle."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Trips after repeated round timeouts; half-opens on a probe round.

    A "failure" is a round the report deadline had to close (the solve
    budget blown in sim time) — a deterministic signal, unlike wall
    clock.  ``BREAKER_FAILURES`` of them in a row trip it OPEN; the
    ``BREAKER_COOLDOWN_ROUNDS``-th slot after that half-opens it (the
    slots before serve stale) and admits exactly one probe round, whose
    outcome either re-closes or re-opens the breaker.
    """

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    cooldown_left: int = 0
    trips: int = 0

    def allow_round(self) -> bool:
        """Gate one round slot; called once per firing while enabled."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.HALF_OPEN:
            return True  # the probe round is in flight
        self.cooldown_left -= 1
        if self.cooldown_left <= 0:
            self.state = BreakerState.HALF_OPEN
            return True  # this round is the probe
        return False

    @property
    def probing(self) -> bool:
        return self.state is BreakerState.HALF_OPEN

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            # The probe round also timed out: straight back to OPEN.
            self._trip()
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= BREAKER_FAILURES:
            self._trip()

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self.cooldown_left = BREAKER_COOLDOWN_ROUNDS
        self.consecutive_failures = 0
        self.trips += 1


@dataclass
class DegradationLadder:
    """Staged fidelity retreat/recovery driven by detector pressure."""

    config: OverloadConfig = field(default_factory=OverloadConfig)
    level: int = LEVEL_FULL
    calm_streak: int = 0
    escalations: int = 0
    recoveries: int = 0

    def update(self, pressure: float) -> int:
        """Feed one round's pressure; returns the (new) level."""
        if pressure > ESCALATE_AT:
            self.calm_streak = 0
            if self.level < MAX_LEVEL:
                self.level += 1
                self.escalations += 1
        elif pressure < RECOVER_BELOW:
            self.calm_streak += 1
            if self.calm_streak >= RECOVER_ROUNDS:
                self.calm_streak = 0
                if self.level > LEVEL_FULL:
                    self.level -= 1
                    self.recoveries += 1
        else:
            self.calm_streak = 0
        return self.level

    def m_scale(self) -> float:
        if self.level >= LEVEL_COARSE:
            return COARSE_M_SCALE
        if self.level >= LEVEL_REDUCED_M:
            return REDUCED_M_SCALE
        return 1.0

    def sparsity_cap(self) -> int | None:
        if self.level >= LEVEL_COARSE:
            return self.config.coarse_sparsity_cap
        return None


@dataclass(frozen=True)
class RoundDirectives:
    """What the controller tells the round driver to do this firing.

    ``serve_stale`` short-circuits the whole round (ladder LEVEL_STALE
    or breaker OPEN); otherwise ``m_scale``/``sparsity_cap`` shape the
    plan.  ``m_scale == 1.0`` and ``sparsity_cap is None`` together
    mean "exactly the unprotected round" — the bit-identity contract.
    """

    serve_stale: bool = False
    m_scale: float = 1.0
    sparsity_cap: int | None = None
    level: int = LEVEL_FULL
    probe: bool = False


#: The directives an unprotected (default-config) round always gets.
PASSTHROUGH = RoundDirectives()


@dataclass
class OverloadController:
    """Per-broker composition of detector, breaker and ladder.

    Lives on the broker (like :class:`repro.middleware.trust
    .TrustManager`) because degradation state is *zone* knowledge: a
    promoted acting broker inherits it through the failover carry-over
    rather than resetting to full fidelity mid-overload.
    """

    config: OverloadConfig = field(default_factory=OverloadConfig)
    detector: OverloadDetector = field(init=False)
    breaker: CircuitBreaker = field(init=False)
    ladder: DegradationLadder = field(init=False)
    stale_serves: int = 0
    pressure_skips: int = 0

    def __post_init__(self) -> None:
        self.detector = OverloadDetector(config=self.config)
        self.breaker = CircuitBreaker()
        self.ladder = DegradationLadder(config=self.config)

    @property
    def enabled(self) -> bool:
        return self.config.any_enabled

    def begin_round(self, queue_depth: int) -> RoundDirectives:
        """Gate one round firing and shape its plan.

        Called once per firing (before any command goes out).  Returns
        :data:`PASSTHROUGH` while disabled, so the default config can
        never perturb a round.
        """
        if not self.enabled:
            return PASSTHROUGH
        self.detector.observe_queue(queue_depth)
        probe = False
        if self.config.breaker_enabled:
            if not self.breaker.allow_round():
                self.stale_serves += 1
                return RoundDirectives(
                    serve_stale=True, level=self.ladder.level
                )
            probe = self.breaker.probing
        if self.config.ladder_enabled and self.ladder.level >= LEVEL_STALE:
            # The stale slot is itself an observation (zero latency, the
            # queue depth seen above): feed it through so the ladder can
            # climb back once pressure clears instead of latching stale.
            self.detector.observe_stale_serve()
            if self.ladder.update(self.detector.pressure) >= LEVEL_STALE:
                self.stale_serves += 1
                return RoundDirectives(
                    serve_stale=True, level=self.ladder.level
                )
        return RoundDirectives(
            m_scale=self.ladder.m_scale() if self.config.ladder_enabled else 1.0,
            sparsity_cap=(
                self.ladder.sparsity_cap()
                if self.config.ladder_enabled
                else None
            ),
            level=self.ladder.level,
            probe=probe,
        )

    def finish_round(
        self, latency_s: float, deadline_s: float, timed_out: bool
    ) -> None:
        """Feed one completed round's outcome back into the state."""
        if not self.enabled:
            return
        self.detector.observe_latency(latency_s, deadline_s)
        if self.config.breaker_enabled:
            if timed_out:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        if self.config.ladder_enabled:
            self.ladder.update(self.detector.pressure)

    def record_busy_skip(self, over_budget: bool) -> None:
        """A round firing found the previous round still in flight.

        Beyond the busy-skip budget this is sustained pressure: it
        escalates the ladder directly (the zone cannot even *start*
        rounds at the offered rate, so waiting for latency EWMAs to
        climb would react a whole ladder-dwell too late).
        """
        if not self.enabled:
            return
        if over_budget and self.config.ladder_enabled:
            self.pressure_skips += 1
            self.ladder.update(ESCALATE_AT * 2.0)

    def snapshot(self) -> dict[str, float | int | str]:
        """Telemetry view (dashboards, tests, the OVERLOAD bench)."""
        return {
            "level": self.ladder.level,
            "pressure": self.detector.pressure,
            "breaker": self.breaker.state.value,
            "breaker_trips": self.breaker.trips,
            "stale_serves": self.stale_serves,
            "pressure_skips": self.pressure_skips,
        }
