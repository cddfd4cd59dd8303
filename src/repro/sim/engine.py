"""The simulation engine: drives a SenseDroid deployment through time.

Interleaves four periodic processes on the event clock:

- **mobility**: every node's state advances under its mobility model;
- **field evolution**: the ground-truth field advances under its
  evolution step (plume drift, AR(1) weather, ...);
- **sensing rounds**: the hierarchy runs a global compressive round;
- **context windows**: nodes run on-device activity inference.

The engine records a time series of round errors, energy and traffic so
experiments read results off one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fields.field import SpatialField
from ..fields.temporal import EvolutionStep
from ..middleware.api import SenseDroid
from ..middleware.rounds import ZoneRoundDriver, ZoneRoundOutcome, ZoneSchedule
from ..mobility.models import MobilityModel
from .clock import SimClock

__all__ = ["RoundRecord", "SimulationResult", "SimulationEngine"]


@dataclass(frozen=True)
class RoundRecord:
    """Diagnostics of one sensing round."""

    timestamp: float
    measurements: int
    relative_error: float
    messages_cum: int
    node_energy_cum_mj: float
    radio_energy_cum_mj: float
    # Event-driven rounds only: which zone finished, and the *simulated*
    # command-to-estimate latency of its round.  Lockstep rounds are
    # global and instantaneous, so they keep the defaults.
    zone_id: int = -1
    round_latency_s: float = 0.0


@dataclass
class SimulationResult:
    """Everything the engine recorded over one run."""

    rounds: list[RoundRecord] = field(default_factory=list)
    context_accuracy: list[float] = field(default_factory=list)
    duration_s: float = 0.0

    def mean_error(self) -> float:
        if not self.rounds:
            return float("nan")
        return float(np.mean([r.relative_error for r in self.rounds]))

    def rounds_by_zone(self) -> dict[int, list[RoundRecord]]:
        """Round records grouped by zone (event-driven runs)."""
        grouped: dict[int, list[RoundRecord]] = {}
        for record in self.rounds:
            grouped.setdefault(record.zone_id, []).append(record)
        return grouped

    def mean_round_latency_s(self) -> float:
        """Mean simulated command-to-estimate round latency."""
        if not self.rounds:
            return float("nan")
        return float(np.mean([r.round_latency_s for r in self.rounds]))

    def final_energy_mj(self) -> float:
        if not self.rounds:
            return 0.0
        last = self.rounds[-1]
        return last.node_energy_cum_mj + last.radio_energy_cum_mj


class SimulationEngine:
    """Run a deployment over an evolving world.

    Parameters
    ----------
    system:
        The deployed :class:`repro.middleware.api.SenseDroid` instance.
    mobility:
        Optional mobility model applied to every node each mobility tick.
    field_step:
        Optional evolution step for the sensed ground-truth field.
    round_mode:
        ``"lockstep"`` (default) runs a global synchronous round every
        sensing period — the seed behaviour.  ``"async"`` gives every
        zone its own :class:`repro.middleware.rounds.ZoneRoundDriver`
        on its own period/offset; the engine *subscribes to
        round-completed events* instead of calling ``sense_field``, and
        each record carries the zone id and the simulated
        command-to-estimate latency.
    zone_schedules:
        Async mode: per-zone :class:`repro.middleware.rounds
        .ZoneSchedule`; unlisted zones run at ``sensing_period_s``.
    report_deadline_s:
        Async mode: per-round collection deadline override.
    latency_mode:
        Async mode: bus delivery discipline (``"zero"`` or ``"link"``);
        default keeps zero-latency delivery on the event clock.
    """

    def __init__(
        self,
        system: SenseDroid,
        *,
        mobility: MobilityModel | None = None,
        field_step: EvolutionStep | None = None,
        mobility_period_s: float = 1.0,
        field_period_s: float = 10.0,
        sensing_period_s: float = 30.0,
        context_period_s: float = 60.0,
        round_mode: str = "lockstep",
        zone_schedules: dict[int, "ZoneSchedule"] | None = None,
        report_deadline_s: float | None = None,
        latency_mode: str | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if min(mobility_period_s, field_period_s, sensing_period_s,
               context_period_s) <= 0:
            raise ValueError("all periods must be positive")
        if round_mode not in ("lockstep", "async"):
            raise ValueError(f"unknown round_mode {round_mode!r}")
        self.system = system
        self.mobility = mobility
        self.field_step = field_step
        self.mobility_period_s = mobility_period_s
        self.field_period_s = field_period_s
        self.sensing_period_s = sensing_period_s
        self.context_period_s = context_period_s
        self.round_mode = round_mode
        self.zone_schedules = zone_schedules
        self.report_deadline_s = report_deadline_s
        self.latency_mode = latency_mode
        self.clock = SimClock()
        self.result = SimulationResult()
        self.drivers: dict[int, ZoneRoundDriver] = {}
        self._rng = np.random.default_rng(rng)

    # -- periodic processes ------------------------------------------------

    def _nodes(self):
        for lc in self.system.hierarchy.localclouds.values():
            for nc in lc.nanoclouds:
                yield from nc.nodes.values()

    def _tick_mobility(self, now: float) -> None:
        assert self.mobility is not None
        for node in self._nodes():
            self.mobility.step(node.state, self.mobility_period_s)
            self.mobility.update_indoor(node.state, self.system.env)

    def _tick_field(self, now: float) -> None:
        assert self.field_step is not None
        name = self.system.sensor_name
        current = self.system.env.fields[name]
        evolved = self.field_step(current, self.field_period_s, self._rng)
        self.system.env.fields[name] = SpatialField(
            grid=evolved.grid, name=current.name
        )

    def _tick_sensing(self, now: float) -> None:
        estimate = self.system.sense_field()
        error = self.system.estimate_error(estimate)
        stats = self.system.hierarchy.bus.stats
        self.result.rounds.append(
            RoundRecord(
                timestamp=now,
                measurements=estimate.total_measurements,
                relative_error=error,
                messages_cum=stats.messages,
                node_energy_cum_mj=self.system.hierarchy.total_node_energy_mj(),
                radio_energy_cum_mj=stats.total_energy_mj,
            )
        )

    def _record_zone_round(self, outcome: ZoneRoundOutcome) -> None:
        """Round-completed event handler (async mode): one record per
        finished *zone* round, scored against the zone's truth block."""
        error = self.system.zone_error(outcome.zone_id, outcome.result.field)
        stats = self.system.hierarchy.bus.stats
        self.result.rounds.append(
            RoundRecord(
                timestamp=outcome.started_at,
                measurements=outcome.result.total_measurements,
                relative_error=error,
                messages_cum=stats.messages,
                node_energy_cum_mj=self.system.hierarchy.total_node_energy_mj(),
                radio_energy_cum_mj=stats.total_energy_mj,
                zone_id=outcome.zone_id,
                round_latency_s=outcome.latency_s,
            )
        )

    def _tick_contexts(self, now: float) -> None:
        inferred = self.system.sense_contexts(compressive=True)
        truths = {
            node.node_id: node.state.mode for node in self._nodes()
        }
        if inferred:
            correct = sum(
                1
                for node_id, mode in inferred.items()
                if truths.get(node_id) == mode
            )
            self.result.context_accuracy.append(correct / len(inferred))

    # -- run -----------------------------------------------------------------

    def run(self, duration_s: float) -> SimulationResult:
        """Simulate ``duration_s`` seconds and return the recording."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.mobility is not None:
            self.clock.schedule_periodic(
                self.mobility_period_s, self._tick_mobility, until=duration_s
            )
        if self.field_step is not None:
            self.clock.schedule_periodic(
                self.field_period_s, self._tick_field, until=duration_s
            )
        if self.round_mode == "async":
            # Event-driven rounds: the bus rides this clock, each zone
            # runs its own driver, and the engine records rounds from
            # the drivers' completion events instead of lockstepping a
            # global sense_field barrier.
            self.system.hierarchy.bus.attach_clock(
                self.clock, self.latency_mode or "zero"
            )
            self.drivers = self.system.hierarchy.async_drivers(
                self.system.env,
                self.clock,
                schedules=self.zone_schedules,
                default_period_s=self.sensing_period_s,
                report_deadline_s=self.report_deadline_s,
                on_complete=self._record_zone_round,
            )
            for zone_id in sorted(self.drivers):
                self.drivers[zone_id].start(until=duration_s)
        else:
            self.clock.schedule_periodic(
                self.sensing_period_s, self._tick_sensing, until=duration_s
            )
        self.clock.schedule_periodic(
            self.context_period_s, self._tick_contexts, until=duration_s
        )
        self.clock.run_until(duration_s)
        self.result.duration_s = duration_s
        return self.result
