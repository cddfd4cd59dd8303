"""Struct-of-arrays population: vector engine pinned to the object path.

The array core is only allowed to exist because it is *provably* the
same simulation: ``engine="vector"`` must match ``engine="object"``
(real NodeState objects stepped through the scalar mobility models)
bit-for-bit — positions, velocities, modes, zone ids and every sensed
value — the same oracle pattern ``repro.core.reference`` provides for the
solvers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.models import MODE_NAMES
from repro.sensors.faults import CalibrationBias, SensorFaultInjector, StuckAt
from repro.sim.population import NodePopulation, PopulationConfig


def _pair(seed: int, mobility: str, **overrides):
    base = dict(
        n_nodes=120,
        width=32,
        height=16,
        zones_x=2,
        zones_y=2,
        mobility=mobility,
        seed=seed,
    )
    base.update(overrides)
    vector = NodePopulation(PopulationConfig(engine="vector", **base))
    objects = NodePopulation(PopulationConfig(engine="object", **base))
    return vector, objects


def _assert_identical(vector: NodePopulation, objects: NodePopulation) -> None:
    for attr in ("x", "y", "speed", "heading", "mode", "zone_id"):
        a, b = getattr(vector, attr), getattr(objects, attr)
        assert np.array_equal(a, b), f"{attr} diverged"


class TestEngineBitIdentity:
    @pytest.mark.parametrize(
        "mobility", ["static", "random_waypoint", "gauss_markov"]
    )
    def test_construction_identical(self, mobility):
        vector, objects = _pair(11, mobility)
        _assert_identical(vector, objects)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_gauss_markov_ticks_identical(self, seed):
        vector, objects = _pair(seed, "gauss_markov")
        for _ in range(6):
            vector.tick()
            objects.tick()
            _assert_identical(vector, objects)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_waypoint_ticks_identical(self, seed):
        # Long-enough ticks that legs complete and pauses elapse, so
        # every branch (cruise, arrive+redraw, pause, resume) is hit.
        vector, objects = _pair(
            seed,
            "random_waypoint",
            pause_range=(0.0, 2.0),
            dt=2.5,
        )
        for _ in range(10):
            vector.tick()
            objects.tick()
            _assert_identical(vector, objects)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sense_rounds_identical(self, seed):
        vector, objects = _pair(seed, "gauss_markov")
        rng = np.random.default_rng(123)
        truth = rng.normal(size=(32, 16))
        for round_index in range(4):
            vector.tick()
            objects.tick()
            fv = vector.sense_round(
                truth, round_index=round_index, reports_per_zone=16
            )
            fo = objects.sense_round(
                truth, round_index=round_index, reports_per_zone=16
            )
            assert len(fv) == len(fo)
            for a, b in zip(fv, fo):
                assert a.zone_id == b.zone_id
                assert np.array_equal(a.node_ids, b.node_ids)
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.noise_stds, b.noise_stds)


class TestPopulationBehaviour:
    def test_zone_partition_covers_all_nodes(self):
        pop = NodePopulation(
            PopulationConfig(
                n_nodes=500, width=32, height=32, zones_x=4, zones_y=2, seed=3
            )
        )
        assert pop.zone_id.min() >= 0
        assert pop.zone_id.max() < 8
        total = sum(pop.zone_members(z).size for z in range(8))
        assert total == 500

    def test_cells_in_zone_bounds(self):
        pop = NodePopulation(
            PopulationConfig(
                n_nodes=300, width=24, height=24, zones_x=3, zones_y=3, seed=5
            )
        )
        for _ in range(3):
            pop.tick()
        idx = np.arange(300)
        cells = pop.cells_in_zone(idx)
        assert cells.min() >= 0
        assert cells.max() < 8 * 8

    def test_rwp_nodes_keep_moving_after_pauses(self):
        # Regression for the pause-freeze bug: leg speed must be
        # restored when a pause expires, so nodes re-plan forever.
        pop = NodePopulation(
            PopulationConfig(
                n_nodes=50,
                width=16,
                height=16,
                mobility="random_waypoint",
                pause_range=(0.5, 1.0),
                dt=4.0,
                seed=9,
            )
        )
        before_x, before_y = pop.x.copy(), pop.y.copy()
        for _ in range(30):
            pop.tick()
        moved = np.abs(pop.x - before_x) + np.abs(pop.y - before_y)
        assert (moved > 0).all(), "some nodes froze after their first pause"

    def test_mode_names_map(self):
        pop = NodePopulation(
            PopulationConfig(n_nodes=20, width=8, height=8, seed=1)
        )
        names = pop.mode_names()
        assert len(names) == 20
        assert set(names) <= set(MODE_NAMES)

    def test_sensor_faults_ride_batched_path(self):
        vector, objects = _pair(21, "static")
        injector = SensorFaultInjector()
        # Afflict a handful of nodes; ids follow the population naming.
        injector.attach(vector.node_name(0), StuckAt(99.0))
        injector.attach(vector.node_name(1), CalibrationBias(5.0))
        truth = np.zeros((32, 16))
        frames_v = vector.sense_round(
            truth,
            round_index=0,
            reports_per_zone=200,
            fault_injector=injector,
        )
        injector2 = SensorFaultInjector()
        injector2.attach(objects.node_name(0), StuckAt(99.0))
        injector2.attach(objects.node_name(1), CalibrationBias(5.0))
        frames_o = objects.sense_round(
            truth,
            round_index=0,
            reports_per_zone=200,
            fault_injector=injector2,
        )
        all_ids = np.concatenate([f.node_ids for f in frames_v])
        all_vals = np.concatenate([f.values for f in frames_v])
        stuck = all_vals[all_ids == 0]
        assert stuck.size == 1 and float(stuck[0]) == 99.0
        assert injector.corruptions_by_reason["stuck-at"] == 1
        for a, b in zip(frames_v, frames_o):
            assert np.array_equal(a.values, b.values)

    def test_trust_update_and_quarantine_hysteresis(self):
        pop = NodePopulation(
            PopulationConfig(n_nodes=10, width=8, height=8, seed=2)
        )
        bad = np.array([0, 1])
        for _ in range(8):
            pop.update_trust(bad, np.array([True, True]))
        assert pop.quarantined[[0, 1]].all()
        assert not pop.quarantined[2:].any()
        # Quarantined nodes drop out of zone membership.
        members = np.concatenate(
            [pop.zone_members(z) for z in range(pop.config.n_zones)]
        )
        assert 0 not in members and 1 not in members
        # Sustained good behaviour releases them.
        for _ in range(12):
            pop.update_trust(bad, np.array([False, False]))
        assert not pop.quarantined[[0, 1]].any()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_nodes=10, width=10, height=10, zones_x=3)
        with pytest.raises(ValueError):
            PopulationConfig(n_nodes=10, width=8, height=8, mobility="nope")
        with pytest.raises(ValueError):
            PopulationConfig(n_nodes=10, width=8, height=8, engine="gpu")
        with pytest.raises(ValueError):
            PopulationConfig(n_nodes=0, width=8, height=8)
