"""The object-per-node population: the oracle the array core is pinned to.

:class:`ObjectPopulation` steps real :class:`repro.sensors.base.NodeState`
objects one at a time through the scalar mobility models and draws
sensing noise one scalar at a time, writing the results back into the
arrays :class:`repro.sim.population.NodePopulation` exposes.  Both
consume identical RNG streams, so the two are bit-identical:
``test_population.py`` pins that with Hypothesis, and MEGA-TICK
(``benchmarks/test_mega_scale.py``) times this path against the vector
one.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.models import (
    MODE_NAMES,
    GaussMarkov,
    RandomWaypoint,
    StaticPlacement,
)
from repro.sensors.base import NodeState
from repro.sim.population import NodePopulation, PopulationConfig

__all__ = ["ObjectPopulation"]


def _scalar_readings(truth, stds, rng):
    values = np.empty(len(truth))
    for k in range(len(truth)):
        values[k] = truth[k] + stds[k] * rng.standard_normal()
    return values


class ObjectPopulation(NodePopulation):
    """A :class:`NodePopulation` advanced one ``NodeState`` at a time."""

    _readings = staticmethod(_scalar_readings)

    def __init__(self, config: PopulationConfig) -> None:
        super().__init__(config)
        cfg = self.config
        model: StaticPlacement | RandomWaypoint | GaussMarkov
        if cfg.mobility == "static":
            model = StaticPlacement(cfg.width, cfg.height)
        elif cfg.mobility == "random_waypoint":
            model = RandomWaypoint(
                cfg.width,
                cfg.height,
                speed_range=cfg.speed_range,
                pause_range=cfg.pause_range,
            )
            model._rng = self._mob_rng  # share the population stream
        else:
            model = GaussMarkov(
                cfg.width,
                cfg.height,
                mean_speed=cfg.mean_speed,
                alpha=cfg.alpha,
                speed_std=cfg.speed_std,
                heading_std=cfg.heading_std,
            )
            model._rng = self._mob_rng
        self.model = model
        self.states = []
        for i in range(cfg.n_nodes):
            state = NodeState(
                x=float(self.x[i]),
                y=float(self.y[i]),
                speed=float(self.speed[i]),
                heading=float(self.heading[i]),
                mode=MODE_NAMES[int(self.mode[i])],
            )
            if cfg.mobility == "random_waypoint":
                # Mirror the pre-drawn initial leg so the lazy _new_leg
                # branch never fires and the streams stay aligned.
                state._rwp_target = (
                    float(self.target_x[i]),
                    float(self.target_y[i]),
                )
                state._rwp_pause = float(self.pause_next[i])
                state._rwp_speed = float(self.leg_speed[i])
                state._rwp_pause_left = 0.0
            self.states.append(state)

    def tick(self) -> None:
        dt = self.config.dt
        for i, state in enumerate(self.states):
            self.model.step(state, dt)
            self.x[i] = state.x
            self.y[i] = state.y
            self.speed[i] = state.speed
            self.heading[i] = state.heading
            self.mode[i] = MODE_NAMES.index(state.mode)
        self._zone_id = None
