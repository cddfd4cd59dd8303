"""Node mobility models.

Mobile crowdsensing differs from static WSNs by "high mobility" (Section
2's WSN-vs-phone contrast).  These are the standard synthetic mobility
models: random waypoint (pedestrians wandering a campus), Gauss-Markov
(temporally correlated vehicle motion) and static placements (the
infrastructure sensors brokers can fall back on).  All models advance a
:class:`repro.sensors.base.NodeState` in place in field-grid coordinates
and set the activity ``mode`` from the current speed, which is what the
IsDriving context ultimately senses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..analysis import contracts
from ..sensors.base import Environment, NodeState

__all__ = [
    "MobilityModel",
    "StaticPlacement",
    "RandomWaypoint",
    "GaussMarkov",
    "mode_from_speed",
    "MODE_NAMES",
    "mode_codes_from_speed",
    "static_step_arrays",
    "gauss_markov_step_arrays",
    "random_waypoint_new_legs",
    "random_waypoint_step_arrays",
]

#: Speed thresholds (grid cells / s) separating idle / walking / driving.
WALK_SPEED_THRESHOLD = 0.2
DRIVE_SPEED_THRESHOLD = 3.0


def mode_from_speed(speed: float) -> str:
    """Ground-truth activity mode implied by a movement speed."""
    if speed < WALK_SPEED_THRESHOLD:
        return "idle"
    if speed < DRIVE_SPEED_THRESHOLD:
        return "walking"
    return "driving"


class MobilityModel(ABC):
    """Advances node states over time within a bounded area."""

    def __init__(self, width: float, height: float) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("area dimensions must be positive")
        self.width = float(width)
        self.height = float(height)

    @abstractmethod
    def step(self, state: NodeState, dt: float) -> None:
        """Advance one node state by ``dt`` seconds (in place)."""

    def _clamp(self, state: NodeState) -> None:
        state.x = float(np.clip(state.x, 0.0, self.width - 1e-9))
        state.y = float(np.clip(state.y, 0.0, self.height - 1e-9))

    def update_indoor(self, state: NodeState, env: Environment) -> None:
        """Refresh the ground-truth indoor flag from the environment."""
        state.indoor = env.is_indoor(state.x, state.y)


class StaticPlacement(MobilityModel):
    """Nodes that never move (infrastructure sensors, parked phones)."""

    def step(self, state: NodeState, dt: float) -> None:
        if dt < 0:
            raise ValueError("dt must be non-negative")
        state.speed = 0.0
        state.mode = "idle"


class RandomWaypoint(MobilityModel):
    """Classic random waypoint: pick a destination, travel at a random
    speed, pause, repeat.

    Each node tracked by this model gets independent waypoints keyed by
    ``id(state)``-free bookkeeping: the model stores per-node plans in a
    dict keyed by the state object identity is fragile, so the plan is
    kept *on* the state via dynamic attributes — simple and serialises
    with the node.
    """

    def __init__(
        self,
        width: float,
        height: float,
        speed_range: tuple[float, float] = (0.5, 2.0),
        pause_range: tuple[float, float] = (0.0, 5.0),
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(width, height)
        lo, hi = speed_range
        if lo < 0 or hi < lo:
            raise ValueError("invalid speed range")
        plo, phi = pause_range
        if plo < 0 or phi < plo:
            raise ValueError("invalid pause range")
        self.speed_range = (float(lo), float(hi))
        self.pause_range = (float(plo), float(phi))
        self._rng = np.random.default_rng(rng)

    def _new_leg(self, state: NodeState) -> None:
        target_x = self._rng.uniform(0, self.width)
        target_y = self._rng.uniform(0, self.height)
        speed = self._rng.uniform(*self.speed_range)
        state._rwp_target = (target_x, target_y)  # type: ignore[attr-defined]
        state._rwp_pause = self._rng.uniform(*self.pause_range)  # type: ignore[attr-defined]
        state._rwp_speed = float(speed)  # type: ignore[attr-defined]
        state.speed = float(speed)
        state.heading = float(
            np.arctan2(target_y - state.y, target_x - state.x)
        )

    def step(self, state: NodeState, dt: float) -> None:
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if not hasattr(state, "_rwp_target"):
            self._new_leg(state)
        pause = getattr(state, "_rwp_pause_left", 0.0)
        if pause > 0:
            state._rwp_pause_left = max(pause - dt, 0.0)  # type: ignore[attr-defined]
            state.speed = 0.0
            state.mode = "idle"
            return
        # Resume the leg speed the pause branch zeroed, otherwise a node
        # that ever paused would travel at 0 forever and never re-plan.
        state.speed = getattr(state, "_rwp_speed", state.speed)
        tx, ty = state._rwp_target  # type: ignore[attr-defined]
        remaining = float(np.hypot(tx - state.x, ty - state.y))
        travel = state.speed * dt
        if travel >= remaining:
            state.x, state.y = tx, ty
            state._rwp_pause_left = state._rwp_pause  # type: ignore[attr-defined]
            self._new_leg(state)
        else:
            state.x += travel * np.cos(state.heading)
            state.y += travel * np.sin(state.heading)
        self._clamp(state)
        state.mode = mode_from_speed(state.speed)


class GaussMarkov(MobilityModel):
    """Gauss-Markov mobility: speed and heading follow AR(1) processes,
    giving temporally smooth, vehicle-like trajectories.

    ``alpha`` tunes memory: 1 = straight-line cruise, 0 = Brownian.
    """

    def __init__(
        self,
        width: float,
        height: float,
        mean_speed: float = 4.0,
        alpha: float = 0.85,
        speed_std: float = 1.0,
        heading_std: float = 0.3,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(width, height)
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if mean_speed < 0 or speed_std < 0 or heading_std < 0:
            raise ValueError("speed/heading parameters must be non-negative")
        self.mean_speed = float(mean_speed)
        self.alpha = float(alpha)
        self.speed_std = float(speed_std)
        self.heading_std = float(heading_std)
        self._rng = np.random.default_rng(rng)

    def step(self, state: NodeState, dt: float) -> None:
        if dt < 0:
            raise ValueError("dt must be non-negative")
        a = self.alpha
        root = np.sqrt(max(1.0 - a * a, 0.0))
        state.speed = float(
            max(
                a * state.speed
                + (1 - a) * self.mean_speed
                + root * self.speed_std * self._rng.standard_normal(),
                0.0,
            )
        )
        mean_heading = state.heading
        state.heading = float(
            a * state.heading
            + (1 - a) * mean_heading
            + root * self.heading_std * self._rng.standard_normal()
        )
        state.x += state.speed * dt * np.cos(state.heading)
        state.y += state.speed * dt * np.sin(state.heading)
        # Reflect at the boundary so vehicles stay in the area.
        if state.x < 0 or state.x > self.width:
            state.heading = float(np.pi - state.heading)
        if state.y < 0 or state.y > self.height:
            state.heading = float(-state.heading)
        self._clamp(state)
        state.mode = mode_from_speed(state.speed)


# -- vectorized array steps ---------------------------------------------
#
# The struct-of-arrays population core (:mod:`repro.sim.population`)
# advances every node with one numpy expression instead of one Python
# call per node.  Each function below is the *bit-exact* vectorization
# of the matching scalar ``step`` above: the same IEEE operations in the
# same association order, with random draws consumed as one chunk per
# tick in ascending node order — ``Generator.standard_normal((k, 2))``
# consumes the stream exactly like ``2k`` scalar draws, which is what
# the vector-vs-object Hypothesis pin in ``tests/sim/test_population.py``
# verifies.  All functions mutate their array arguments in place.

#: Activity-mode codes used by the array core; index matches the string
#: names the object path stores on ``NodeState.mode``.
MODE_NAMES: tuple[str, ...] = ("idle", "walking", "driving")


def mode_codes_from_speed(speeds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mode_from_speed`: 0=idle, 1=walking, 2=driving."""
    speeds = np.asarray(speeds)
    return (speeds >= WALK_SPEED_THRESHOLD).astype(np.int8) + (
        speeds >= DRIVE_SPEED_THRESHOLD
    )


def static_step_arrays(speed: np.ndarray, mode: np.ndarray) -> None:
    """Array form of :meth:`StaticPlacement.step`."""
    speed[:] = 0.0
    mode[:] = 0


def gauss_markov_step_arrays(
    x: np.ndarray,
    y: np.ndarray,
    speed: np.ndarray,
    heading: np.ndarray,
    mode: np.ndarray,
    normals: np.ndarray,
    *,
    dt: float,
    width: float,
    height: float,
    mean_speed: float,
    alpha: float,
    speed_std: float,
    heading_std: float,
) -> None:
    """Array form of :meth:`GaussMarkov.step` for ``n`` nodes at once.

    ``normals`` is the tick's pre-drawn ``(n, 2)`` standard-normal chunk
    (column 0 drives speed, column 1 heading — the per-node draw order
    of the scalar step).
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    a = alpha
    root = np.sqrt(max(1.0 - a * a, 0.0))
    speed[:] = np.maximum(
        a * speed + (1 - a) * mean_speed + root * speed_std * normals[:, 0],
        0.0,
    )
    # mean heading == current heading, spelled like the scalar step so
    # the float association order (and hence every bit) matches.
    heading[:] = (
        a * heading + (1 - a) * heading + root * heading_std * normals[:, 1]
    )
    x += speed * dt * np.cos(heading)
    y += speed * dt * np.sin(heading)
    flip_x = (x < 0) | (x > width)
    heading[flip_x] = np.pi - heading[flip_x]
    flip_y = (y < 0) | (y > height)
    heading[flip_y] = -heading[flip_y]
    np.clip(x, 0.0, width - 1e-9, out=x)
    np.clip(y, 0.0, height - 1e-9, out=y)
    mode[:] = mode_codes_from_speed(speed)


def random_waypoint_new_legs(
    idx: np.ndarray,
    uniforms: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    leg_dir: np.ndarray,
    leg_speed: np.ndarray,
    target_x: np.ndarray,
    target_y: np.ndarray,
    pause_next: np.ndarray,
    *,
    width: float,
    height: float,
    speed_range: tuple[float, float],
    pause_range: tuple[float, float],
) -> None:
    """Array form of :meth:`RandomWaypoint._new_leg` for nodes ``idx``.

    ``uniforms`` is the ``(len(idx), 4)`` uniform chunk for those nodes
    in ascending-index order; columns map to the scalar draw order
    (target x, target y, speed, pause).  ``Generator.uniform(lo, hi)``
    is bit-equal to ``lo + (hi - lo) * Generator.random()``, so scaling
    a raw chunk reproduces the scalar stream exactly.  The only writer
    of ``heading``, hence of its cos/sin rows in the ``(2, n)`` ``leg_dir``.
    """
    lo, hi = speed_range
    plo, phi = pause_range
    tx = 0.0 + (width - 0.0) * uniforms[:, 0]
    ty = 0.0 + (height - 0.0) * uniforms[:, 1]
    target_x[idx] = tx
    target_y[idx] = ty
    leg_speed[idx] = lo + (hi - lo) * uniforms[:, 2]
    pause_next[idx] = plo + (phi - plo) * uniforms[:, 3]
    leg_heading = np.arctan2(ty - y[idx], tx - x[idx])
    heading[idx] = leg_heading
    leg_dir[0, idx] = np.cos(leg_heading)
    leg_dir[1, idx] = np.sin(leg_heading)


def random_waypoint_step_arrays(
    rng: np.random.Generator,
    x: np.ndarray,
    y: np.ndarray,
    speed: np.ndarray,
    heading: np.ndarray,
    leg_dir: np.ndarray,
    mode: np.ndarray,
    leg_speed: np.ndarray,
    target_x: np.ndarray,
    target_y: np.ndarray,
    pause_next: np.ndarray,
    pause_left: np.ndarray,
    *,
    dt: float,
    width: float,
    height: float,
    speed_range: tuple[float, float],
    pause_range: tuple[float, float],
) -> None:
    """Array form of :meth:`RandomWaypoint.step` for ``n`` nodes at once.

    Legs must be initialised up front (:func:`random_waypoint_new_legs`
    over all nodes), so the only draws during a tick are the new legs of
    nodes that arrive this tick — consumed as one ``(k, 4)`` chunk in
    ascending node order, matching a scalar loop over the same nodes.

    A tick computes only what changed.  ``leg_dir`` persists across
    ticks because a heading is fixed for a whole leg — the only
    persistent state besides the leg plan; the three ``(n,)`` float work
    arrays are per-tick temporaries, so resident memory stays flat.  The
    exact ``travel >= hypot(dx, dy)`` arrival test runs only inside a
    squared-distance band (1e-9 relative + ``tiny`` absolute, against
    ~1e-16 of rounding) that no true arrival can fall outside.  Paused
    nodes ride the whole-array updates with zero ``travel``, bit-unchanged
    because ``pause_left >= 0`` and a paused position is already clamped.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    moving = ~(pause_left > 0)
    np.subtract(pause_left, dt, out=pause_left)
    np.maximum(pause_left, 0.0, out=pause_left)
    np.multiply(leg_speed, moving, out=speed)
    travel = speed * dt
    work = target_x - x
    work *= work
    reach2 = target_y - y
    reach2 *= reach2
    work += reach2
    np.multiply(travel, travel, out=reach2)
    reach2 *= 1.0 + 1e-9
    reach2 += np.finfo(float).tiny
    near = np.flatnonzero((work <= reach2) & moving)
    arrived = near[
        travel[near]
        >= np.hypot(target_x[near] - x[near], target_y[near] - y[near])
    ]
    if contracts.enabled():
        exact = moving & (travel >= np.hypot(target_x - x, target_y - y))
        if not np.array_equal(arrived, np.flatnonzero(exact)):
            raise contracts.ContractViolation(
                "random waypoint: the squared-distance band missed an arrival"
            )
    x += np.multiply(travel, leg_dir[0], out=work)
    y += np.multiply(travel, leg_dir[1], out=work)
    if arrived.size:
        x[arrived] = target_x[arrived]
        y[arrived] = target_y[arrived]
        pause_left[arrived] = pause_next[arrived]
        random_waypoint_new_legs(
            arrived,
            rng.random((arrived.size, 4)),
            x,
            y,
            heading,
            leg_dir,
            leg_speed,
            target_x,
            target_y,
            pause_next,
            width=width,
            height=height,
            speed_range=speed_range,
            pause_range=pause_range,
        )
        speed[arrived] = leg_speed[arrived]
    np.clip(x, 0.0, width - 1e-9, out=x)
    np.clip(y, 0.0, height - 1e-9, out=y)
    mode[:] = mode_codes_from_speed(speed)
    if contracts.enabled() and not np.array_equal(
        leg_dir, (np.cos(heading), np.sin(heading))
    ):
        raise contracts.ContractViolation(
            "random waypoint: leg direction cache != cos/sin(heading)"
        )
