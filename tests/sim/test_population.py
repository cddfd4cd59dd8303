"""Struct-of-arrays population: vector engine pinned to the object path.

The array core is only allowed to exist because it is *provably* the
same simulation: ``engine="vector"`` must match ``engine="object"``
(real NodeState objects stepped through the scalar mobility models)
bit-for-bit — positions, velocities, modes, zone ids and every sensed
value — the same oracle pattern ``repro.core.reference`` provides for the
solvers.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.mobility.models import MODE_NAMES
from repro.sim import population as population_module
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


def _ordered_pairs(high: float):
    values = st.floats(min_value=0.0, max_value=high)
    return st.tuples(values, values).map(lambda pair: tuple(sorted(pair)))


RWP_ARRAYS = (
    "x", "y", "speed", "heading", "mode",
    "leg_speed", "target_x", "target_y", "pause_next", "pause_left",
)

# sha256 over RWP_ARRAYS + the mobility stream's next draw, taken with
# the kernel as of PR 15 (gather/scatter, cos/sin/hypot over every
# moving node).  The arrays pass through libm, so these pin this
# platform's numpy build, like every golden vector.
RWP_GOLDEN = {
    (0, 1, 300): "41da7dc3c6524804ea04074c86b96ef39f6e59f298cfdff0d8425a0fe642935e",
    (0, 257, 300): "a95c456a4ba8643e1f6c9f9c3de3cbefece82098cc85d191f3dd47fd5e41890b",
    (0, 10_000, 300): "f8cc1439979c285f8f73d282541e365c74ca593a4e655819085c30f176d864d4",
    (7, 1, 300): "a6baa915a9a56afdd9f97b1951af594bd55bcb98832499f8fbf1d4b6ece6bc6b",
    (7, 257, 300): "4c12d8f654c3c69018358a214d006af462d9d3b830d49d97286eb89b9347d726",
    (7, 10_000, 300): "2777e2380303497dd1f114433785473414a3a269ab00a03d70e1def7c6971c86",
    (2**32 - 1, 1, 300): "94acfa5e1b2657d738375bd8162955eabcaed74da2f974a0d0f4348955ad9334",
    (2**32 - 1, 257, 300): "61db7a00a36d904a001fc345a564b38d87294a825717d84609f8cbdab4e6f88e",
    (2**32 - 1, 10_000, 300): "ae086eeb12a499ebc095f49d9636b4b8df7f9f1b33b2f7adcfa281aa8711a187",
    (7, 10_000, 500): "b2990f33037b0a8efc12df81d659c2e7bac4c56c458c68dadbb2307988271187",
}


class TestRandomWaypointGolden:
    @pytest.mark.parametrize("seed, n_nodes, ticks", sorted(RWP_GOLDEN))
    def test_trajectories_match_committed_digest(self, seed, n_nodes, ticks):
        pop = NodePopulation(
            PopulationConfig(
                n_nodes=n_nodes,
                width=64,
                height=64,
                zones_x=4,
                zones_y=4,
                mobility="random_waypoint",
                seed=seed,
            )
        )
        for _ in range(ticks):
            pop.tick()
        digest = hashlib.sha256()
        for name in RWP_ARRAYS:
            digest.update(getattr(pop, name).tobytes())
        digest.update(pop._mob_rng.random(1).tobytes())
        assert digest.hexdigest() == RWP_GOLDEN[seed, n_nodes, ticks]


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

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dt=st.floats(min_value=0.1, max_value=6.0),
        speed_range=st.one_of(
            st.floats(min_value=0.0, max_value=4.0).map(lambda v: (v, v)),
            _ordered_pairs(4.0),
        ),
        pause_range=st.one_of(st.just((0.0, 0.0)), _ordered_pairs(3.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_waypoint_ticks_identical(
        self, seed, dt, speed_range, pause_range
    ):
        # Ticks long enough that legs complete and pauses elapse hit
        # every branch (cruise, arrive+redraw, pause, resume); lo == hi
        # speeds and the (0, 0) pause range (nobody ever pauses) are the
        # degenerate corners of the draw.
        vector, objects = _pair(
            seed,
            "random_waypoint",
            speed_range=speed_range,
            pause_range=pause_range,
            dt=dt,
        )
        for _ in range(10):
            vector.tick()
            objects.tick()
            _assert_identical(vector, objects)
        assert vector._mob_rng.random() == objects._mob_rng.random()

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

    @pytest.mark.parametrize(
        "mobility", ["static", "random_waypoint", "gauss_markov"]
    )
    def test_zone_ids_fresh_on_read_and_computed_once(
        self, mobility, monkeypatch
    ):
        calls = []
        helper = population_module._grid_cells

        def counting(coords, extent):
            calls.append(extent)
            return helper(coords, extent)

        monkeypatch.setattr(population_module, "_grid_cells", counting)
        cfg = PopulationConfig(
            n_nodes=400, width=32, height=16, zones_x=4, zones_y=2,
            mobility=mobility, seed=13,
        )
        pop = NodePopulation(cfg)
        for _ in range(7):
            pop.tick()
        assert calls == [], "ticks alone must not compute zone ids"
        i = np.clip(np.rint(pop.x).astype(np.int64), 0, 31)
        j = np.clip(np.rint(pop.y).astype(np.int64), 0, 15)
        scratch = (i // 8) * 2 + j // 8
        assert np.array_equal(pop.zone_id, scratch)
        for zone in range(cfg.n_zones):
            assert np.array_equal(
                pop.zone_members(zone), np.flatnonzero(scratch == zone)
            )
        assert calls == [32, 16], "reads between ticks recomputed zone ids"
        pop.tick()
        assert pop.zone_id is pop.zone_id
        assert calls == [32, 16, 32, 16]

    def test_sanitizer_catches_stale_direction_cache(self, monkeypatch):
        pop = NodePopulation(
            PopulationConfig(
                n_nodes=64, width=16, height=16, mobility="random_waypoint",
                seed=4,
            )
        )
        monkeypatch.setattr(contracts, "_ENABLED", True)
        pop.tick()
        pop.leg_dir[1, 5] = np.nextafter(pop.leg_dir[1, 5], 2.0)
        with pytest.raises(contracts.ContractViolation, match="cache"):
            pop.tick()

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
