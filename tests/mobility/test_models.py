"""Tests for mobility models."""

import numpy as np
import pytest

from repro.fields.generators import indicator_field
from repro.mobility.models import (
    MODE_NAMES,
    GaussMarkov,
    RandomWaypoint,
    StaticPlacement,
    mode_codes_from_speed,
    mode_from_speed,
    random_waypoint_step_arrays,
)
from repro.sensors.base import Environment, NodeState


class TestModeFromSpeed:
    def test_thresholds(self):
        assert mode_from_speed(0.0) == "idle"
        assert mode_from_speed(1.0) == "walking"
        assert mode_from_speed(10.0) == "driving"


class TestStatic:
    def test_never_moves(self):
        model = StaticPlacement(10, 10)
        state = NodeState(x=3.0, y=4.0)
        for _ in range(10):
            model.step(state, 1.0)
        assert state.position() == (3.0, 4.0)
        assert state.mode == "idle"

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            StaticPlacement(10, 10).step(NodeState(), -1.0)


class TestRandomWaypoint:
    def test_stays_in_bounds(self):
        model = RandomWaypoint(20, 10, rng=0)
        state = NodeState(x=5.0, y=5.0)
        for _ in range(500):
            model.step(state, 0.5)
            assert 0 <= state.x <= 20
            assert 0 <= state.y <= 10

    def test_actually_moves(self):
        model = RandomWaypoint(20, 20, pause_range=(0.0, 0.0), rng=1)
        state = NodeState(x=10.0, y=10.0)
        start = state.position()
        for _ in range(20):
            model.step(state, 1.0)
        assert state.position() != start

    def test_mode_follows_speed(self):
        model = RandomWaypoint(
            50, 50, speed_range=(1.0, 1.5), pause_range=(0.0, 0.0), rng=2
        )
        state = NodeState(x=25.0, y=25.0)
        model.step(state, 0.1)
        assert state.mode == "walking"

    def test_pause_produces_idle(self):
        model = RandomWaypoint(
            5, 5, speed_range=(10.0, 10.0), pause_range=(5.0, 5.0), rng=3
        )
        state = NodeState(x=2.0, y=2.0)
        saw_idle = False
        for _ in range(50):
            model.step(state, 1.0)
            saw_idle = saw_idle or state.mode == "idle"
        assert saw_idle

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            RandomWaypoint(10, 10, speed_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypoint(10, 10, pause_range=(-1.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypoint(0, 10)


WIDTH, HEIGHT = 32.0, 16.0
EDGE = WIDTH - 1e-9

# (x, y, target_x, target_y, leg speed, must arrive on the first tick);
# dt is 1, so leg speed == travel.
PLANTED_LEGS = {
    # travel == hypot(3, 4) == 5.0 exactly: ``>=`` arrives on the tie.
    "exact-tie": (10.0, 4.0, 13.0, 8.0, 5.0, True),
    "one-ulp-short": (10.0, 4.0, 13.0, 8.0, np.nextafter(5.0, 0.0), False),
    "zero-length": (7.25, 3.5, 7.25, 3.5, 1.0, True),
    "zero-length-at-rest": (7.25, 3.5, 7.25, 3.5, 0.0, True),
    # Lands beyond the clamp boundary: arrive, re-plan unclamped, clamp.
    "arrive-past-edge": (EDGE, 5.0, WIDTH - 1e-12, 5.0, 1.0, True),
    # Cruises outward from the clamp boundary and is clamped back.
    "cruise-off-edge": (EDGE, 1.0, WIDTH - 1e-10, 15.0, 1.0, False),
    # Squares are subnormal: travel^2 rounds to 1 ulp, dx^2 + dy^2 to 2,
    # so a purely relative band would drop this true arrival.
    "subnormal": (
        0.0, 0.0, 1.7502019895474147e-162, 1.7502019895474147e-162,
        2.4851198307155296e-162, True,
    ),
}


class TestRandomWaypointArrayStep:
    """The array kernel against ``RandomWaypoint.step`` on planted legs."""

    LIMITS = dict(
        width=WIDTH, height=HEIGHT, speed_range=(0.5, 2.0),
        pause_range=(0.5, 1.5),
    )

    def _run(self, legs, ticks):
        """Step both forms ``ticks`` times, comparing every node after
        each; returns ``x`` and ``pause_left`` as of the first tick."""
        x, y, tx, ty, spd = (np.array(col, dtype=float) for col in zip(*legs))
        n = x.size
        heading = np.arctan2(ty - y, tx - x)
        arrays = dict(
            x=x, y=y, speed=spd.copy(), heading=heading,
            leg_dir=np.array([np.cos(heading), np.sin(heading)]),
            mode=mode_codes_from_speed(spd), leg_speed=spd,
            target_x=tx, target_y=ty,
            pause_next=np.linspace(0.5, 1.5, n), pause_left=np.zeros(n),
        )
        model = RandomWaypoint(
            WIDTH, HEIGHT, self.LIMITS["speed_range"],
            self.LIMITS["pause_range"], rng=5,
        )
        states = []
        for i in range(n):
            state = NodeState(
                x=float(x[i]), y=float(y[i]), speed=float(spd[i]),
                heading=float(heading[i]),
            )
            state._rwp_target = (float(tx[i]), float(ty[i]))
            state._rwp_pause = float(arrays["pause_next"][i])
            state._rwp_speed = float(spd[i])
            states.append(state)
        rng = np.random.default_rng(5)
        first = None
        for _ in range(ticks):
            random_waypoint_step_arrays(rng, dt=1.0, **arrays, **self.LIMITS)
            for state in states:
                model.step(state, 1.0)
            for i, state in enumerate(states):
                got = {k: arrays[k][i] for k in ("x", "y", "speed", "heading")}
                want = {k: getattr(state, k) for k in got}
                assert got == want, f"node {i} diverged: {got} != {want}"
                assert MODE_NAMES[arrays["mode"][i]] == state.mode
                assert arrays["pause_left"][i] == getattr(
                    state, "_rwp_pause_left", 0.0
                )
                assert (arrays["target_x"][i], arrays["target_y"][i]) == (
                    state._rwp_target
                )
            if first is None:
                first = {k: arrays[k].copy() for k in ("x", "pause_left")}
        assert rng.random() == model._rng.random()
        return first

    @pytest.mark.parametrize("name", sorted(PLANTED_LEGS))
    def test_planted_leg_matches_scalar_step(self, name):
        *leg, arrives = PLANTED_LEGS[name]
        first = self._run([leg], ticks=4)
        # An arrival starts its pause; a cruiser does not.
        assert (first["pause_left"][0] == 0.5) == arrives
        assert 0.0 <= first["x"][0] <= EDGE

    def test_all_planted_legs_together(self):
        # One chunked draw for several arrivals in ascending node order.
        legs = [PLANTED_LEGS[name][:5] for name in sorted(PLANTED_LEGS)]
        self._run(legs, ticks=12)

    def test_negative_dt_rejected(self):
        z = np.zeros(1)
        with pytest.raises(ValueError):
            random_waypoint_step_arrays(
                np.random.default_rng(0), z, z, z, z, np.zeros((2, 1)),
                np.zeros(1, dtype=np.int8), z, z, z, z, z,
                dt=-1.0, **self.LIMITS,
            )


class TestGaussMarkov:
    def test_stays_in_bounds(self):
        model = GaussMarkov(30, 30, rng=4)
        state = NodeState(x=15.0, y=15.0, speed=4.0)
        for _ in range(500):
            model.step(state, 0.5)
            assert 0 <= state.x <= 30
            assert 0 <= state.y <= 30

    def test_speed_stays_near_mean(self):
        model = GaussMarkov(1000, 1000, mean_speed=5.0, alpha=0.9, rng=5)
        state = NodeState(x=500.0, y=500.0, speed=5.0)
        speeds = []
        for _ in range(300):
            model.step(state, 1.0)
            speeds.append(state.speed)
        assert 3.0 < np.mean(speeds) < 7.0

    def test_high_alpha_smoother_heading(self):
        def heading_variation(alpha, seed):
            model = GaussMarkov(
                10000, 10000, alpha=alpha, heading_std=0.5, rng=seed
            )
            state = NodeState(x=5000, y=5000, speed=4.0)
            headings = []
            for _ in range(200):
                model.step(state, 1.0)
                headings.append(state.heading)
            return np.std(np.diff(headings))

        smooth = np.mean([heading_variation(0.98, s) for s in range(3)])
        rough = np.mean([heading_variation(0.2, s) for s in range(3)])
        assert smooth < rough

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GaussMarkov(10, 10, alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkov(10, 10, mean_speed=-1.0)


class TestIndoorUpdate:
    def test_update_indoor_reflects_environment(self):
        env = Environment(indoor_map=indicator_field(8, 8, n_regions=2, rng=0))
        model = StaticPlacement(8, 8)
        grid = env.indoor_map.grid
        j, i = np.argwhere(grid > 0.5)[0]
        state = NodeState(x=float(i), y=float(j))
        model.update_indoor(state, env)
        assert state.indoor is True
