"""WallClock: SimClock's scheduling interface on real asyncio time.

The contract (see ``repro/sim/wallclock.py``): identical
``schedule``/``schedule_in``/``schedule_periodic``/``cancel`` semantics,
with two sanctioned divergences — past schedules clamp to "fire now"
instead of raising, and there is no ``run_until`` (real time cannot be
fast-forwarded; ``run_for`` drives the loop for a wall duration).

The closing test is the acceptance pin of PR 8's realtime story:
:class:`repro.middleware.rounds.ZoneRoundDriver` — written against
SimClock — completes sensing rounds unmodified on a WallClock.
"""

import time

import numpy as np
import pytest

from repro.fields.generators import smooth_field
from repro.middleware.broker import Broker
from repro.middleware.localcloud import LocalCloud
from repro.middleware.rounds import ZoneRoundDriver
from repro.network.bus import MessageBus
from repro.sensors.base import Environment
from repro.sim.wallclock import WallClock, WallPeriodicHandle


@pytest.fixture
def clock():
    wall = WallClock()
    yield wall
    wall.close()


class TestScheduling:
    def test_now_starts_near_zero_and_advances(self, clock):
        assert 0.0 <= clock.now < 0.5
        clock.run_for(0.02)
        assert clock.now >= 0.02

    def test_schedule_in_fires_with_clock_now(self, clock):
        fired = []
        clock.schedule_in(0.01, fired.append)
        clock.run_for(0.1)
        assert len(fired) == 1
        assert fired[0] >= 0.01
        assert clock.events_run == 1

    def test_past_schedule_clamps_to_immediate(self, clock):
        # Divergence from SimClock (which raises): on a wall clock a
        # past target is a lost race, and the callback is simply due.
        fired = []
        clock.schedule(clock.now - 5.0, fired.append)
        clock.run_for(0.05)
        assert len(fired) == 1

    def test_negative_delay_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.schedule_in(-0.1, lambda now: None)

    def test_cancel_one_shot(self, clock):
        fired = []
        event = clock.schedule_in(0.01, fired.append)
        clock.cancel(event)
        clock.run_for(0.05)
        assert fired == []
        assert clock.events_run == 0

    def test_no_run_until(self, clock):
        # Real time cannot be fast-forwarded; the SimClock-only API
        # must not leak onto the wall clock.
        assert not hasattr(clock, "run_until")


class TestPeriodic:
    def test_fires_repeatedly_then_cancel_stops(self, clock):
        fired = []
        handle = clock.schedule_periodic(0.02, fired.append)
        assert isinstance(handle, WallPeriodicHandle)
        clock.run_for(0.11)
        count = len(fired)
        assert count >= 3
        assert fired == sorted(fired)
        clock.cancel(handle)
        clock.run_for(0.05)
        assert len(fired) == count

    def test_until_bounds_the_chain(self, clock):
        fired = []
        clock.schedule_periodic(0.02, fired.append, until=0.05)
        clock.run_for(0.12)
        assert 1 <= len(fired) <= 3
        assert all(t <= 0.08 for t in fired)

    def test_invalid_period_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.schedule_periodic(0.0, lambda now: None)


class TestZoneRoundDriverOnWallClock:
    """The realtime acceptance pin: the driver runs unmodified."""

    @staticmethod
    def _deploy(clock):
        truth = smooth_field(
            8, 8, cutoff=0.25, amplitude=4.0, offset=20.0, rng=11
        )
        env = Environment(fields={"temperature": truth})
        bus = MessageBus()
        bus.attach_clock(clock, "link")
        lc = LocalCloud(
            "wall-lc", bus, 8, 8, n_nanoclouds=1, nodes_per_nc=16, rng=5
        )
        outcomes = []
        driver = ZoneRoundDriver(
            0, lc, env, clock, period_s=0.15,
            on_complete=outcomes.append,
        )
        return driver, outcomes

    def test_rounds_complete_in_real_time(self, clock):
        driver, outcomes = self._deploy(clock)
        driver.start()
        clock.run_for(0.6)
        driver.stop()

        assert driver.rounds_completed >= 2
        completed = [o for o in outcomes if o.result is not None]
        assert completed
        for outcome in completed:
            assert outcome.latency_s > 0.0  # real link latency elapsed
            estimate = outcome.result.nc_estimates[0]
            assert estimate.reports_ok > 0
            assert np.isfinite(outcome.result.field.grid).all()

    def test_latency_covers_the_solve(self, clock, monkeypatch):
        # completed_at is stamped after the solve: on a wall clock the
        # reported command->estimate latency must contain the time the
        # solve held the loop, not stop at the close of collection.
        solve_walls = []
        real_solve = Broker.solve_round

        def slow_solve(broker, pending):
            started = clock.now
            solved = real_solve(broker, pending)
            time.sleep(0.03)
            solve_walls.append(clock.now - started)
            return solved

        monkeypatch.setattr(Broker, "solve_round", slow_solve)
        driver, outcomes = self._deploy(clock)
        driver.start()
        clock.run_for(0.5)
        driver.stop()

        assert outcomes and len(outcomes) == len(solve_walls)
        for outcome, solve_wall in zip(outcomes, solve_walls):
            assert solve_wall >= 0.03
            assert outcome.latency_s >= solve_wall
