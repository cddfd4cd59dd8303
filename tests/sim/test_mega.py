"""City-scale rounds: stale-serve, overload, trust, zone kernel, goldens.

The load-bearing pins are :class:`TestZoneGolden` (one zone solve) and
:class:`TestCityGolden` (six rounds of both benchmark city shapes).
The remaining tests exercise the overload (PR 6) and Byzantine (PR 4)
layers on top of the array core.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.registry import shared_dct2_basis
from repro.sensors.faults import SensorFaultInjector, StuckAt
from repro.sensors.noise import STANDARD_TIERS, tier_noise_multipliers
from repro.sim import mega
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import BASE_NOISE_STD, PopulationConfig


def _pop(seed: int, **overrides) -> PopulationConfig:
    base = dict(
        n_nodes=200,
        width=16,
        height=16,
        zones_x=2,
        zones_y=2,
        mobility="gauss_markov",
        seed=seed,
    )
    base.update(overrides)
    return PopulationConfig(**base)


class TestRoundMechanics:
    def test_rounds_recover_sparse_truth(self):
        sim = MegaSimulation(
            MegaConfig(
                population=_pop(5), reports_per_zone=64, sparsity=8
            )
        )
        record = sim.run_round()
        assert record.zones_solved == 4
        assert record.zones_stale == 0
        expected = sum(
            min(64, sim.population.zone_members(z).size) for z in range(4)
        )
        assert record.reports_delivered == expected
        # 64 noisy reports per 64-cell zone and K=4 truth: the
        # compressive solve should land well under the noise floor.
        assert record.rmse < 1.0

    def test_lost_zone_is_served_stale(self):
        sim = MegaSimulation(
            MegaConfig(
                population=_pop(8), reports_per_zone=48, sparsity=8
            )
        )
        first = sim.run_round()
        assert first.zones_solved == 4
        snapshot = sim.estimate.copy()
        sim.bus.loss_rate = 1.0  # kill the uplink for one round
        second = sim.run_round()
        assert second.zones_solved == 0
        assert second.zones_stale == 4
        assert np.array_equal(sim.estimate, snapshot)
        sim.bus.loss_rate = 0.0
        third = sim.run_round()
        assert third.zones_solved == 4 and third.zones_stale == 0

    def test_backpressure_sheds_zone_frames(self):
        sim = MegaSimulation(
            MegaConfig(
                population=_pop(9),
                reports_per_zone=32,
                sparsity=8,
                inbox_capacity=1,
                drop_policy="drop-newest",
            )
        )
        record = sim.run_round()
        assert record.zones_solved == 1
        assert sim._cloud.dropped_backpressure == 3

    def test_stuck_sensors_get_rejected_then_quarantined(self):
        injector = SensorFaultInjector()
        bad = list(range(12))
        for index in bad:
            injector.attach(f"meganode-{index}", StuckAt(1e6))
        sim = MegaSimulation(
            MegaConfig(
                population=_pop(13),
                reports_per_zone=200,  # every member reports every round
                sparsity=8,
            ),
            sensor_fault_injector=injector,
        )
        records = [sim.run_round() for _ in range(6)]
        assert records[0].reports_rejected >= len(bad)
        assert records[-1].quarantined_nodes == len(bad)
        assert sim.population.quarantined[bad].all()
        assert not sim.population.quarantined[len(bad) :].any()
        # Quarantined reporters stop being sampled, so late rounds solve
        # from honest nodes only and the field estimate stays sane.
        assert records[-1].rmse < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MegaConfig(population=_pop(1), reports_per_zone=0)
        with pytest.raises(ValueError):
            MegaConfig(population=_pop(1), sparsity=0)
        # The process-pool solve is deleted; the field stays only so
        # that ``sharded=False`` still constructs.
        with pytest.raises(ValueError, match="sharded"):
            MegaConfig(population=_pop(1), sharded=True)
        assert not MegaConfig(population=_pop(1), sharded=False).sharded


class TestZoneKernel:
    @pytest.mark.parametrize("outliers", [0, 5])
    def test_field_is_the_accepted_fits_synthesis(self, monkeypatch, outliers):
        # The kernel screens on predictions at the reporting cells only
        # and synthesises the zone once from the accepted support; that
        # must be the same field as the dense basis @ coefficients, on
        # the clean path (naive fit stands) and after a trim refit.
        fits = []
        real = mega.robust_reconstruct

        def capture(*args, **kwargs):
            fits.append(real(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(mega, "robust_reconstruct", capture)
        basis = np.asarray(shared_dct2_basis(16, 16))
        rng = np.random.default_rng(21)
        coefficients = np.zeros(256)
        coefficients[[0, 3, 17, 40]] = [6.0, -3.0, 2.0, 1.5]
        truth = basis @ coefficients
        cells = rng.choice(256, size=96, replace=False)
        stds = rng.uniform(0.05, 0.3, size=96)
        values = truth[cells] + stds * rng.standard_normal(96)
        values[:outliers] += 50.0
        zone_id, field, rejected = mega._solve_zone(
            (3, cells, values, stds, 8), basis
        )
        (robust,) = fits
        assert zone_id == 3
        assert int(rejected.sum()) == outliers
        assert (robust.rounds > 0) == bool(outliers)
        assert np.allclose(
            field, basis @ robust.result.coefficients, atol=1e-12, rtol=0.0
        )
        assert np.sqrt(np.mean((field - truth) ** 2)) < 0.2

    @pytest.mark.parametrize("reports", [96, 40])
    def test_reused_scratch_cannot_change_a_result(self, reports):
        # The gather workspace is handed from zone to zone with whatever
        # the last solve left in it (here: NaN, and sized for a bigger
        # zone); every slice is written before it is read, so the solve
        # is bit-identical to one that allocates its own.
        basis = np.asarray(shared_dct2_basis(16, 16))
        rng = np.random.default_rng(5)
        truth = basis[:, [1, 9, 30]] @ np.array([4.0, -2.0, 1.0])
        cells = rng.choice(256, size=reports, replace=False)
        stds = rng.uniform(0.05, 0.3, size=reports)
        values = truth[cells] + stds * rng.standard_normal(reports)
        values[:4] -= 40.0
        payload = (0, cells, values, stds, 8)
        scratch = mega._zone_scratch(96, 256)
        scratch.fill(np.nan)
        _, fresh, fresh_rejected = mega._solve_zone(payload, basis)
        for _ in range(2):
            _, field, rejected = mega._solve_zone(payload, basis, scratch)
            assert np.array_equal(field, fresh)
            assert np.array_equal(rejected, fresh_rejected)
        assert fresh_rejected[:4].all()  # the trim refits ran


    def test_zone_order_cannot_change_a_result(self):
        # What the retired RPR011 lint guarded, observed: the kernel
        # keeps nothing between calls, so solving the same zones in the
        # opposite order through one shared workspace gives each zone
        # the same bits.
        basis = np.asarray(shared_dct2_basis(16, 16))
        rng = np.random.default_rng(8)
        payloads = []
        for zone_id, reports in enumerate([96, 40, 72]):
            truth = basis[:, [0, 2 + zone_id, 21]] @ np.array([5.0, -2.0, 1.0])
            cells = rng.choice(256, size=reports, replace=False)
            stds = rng.uniform(0.05, 0.3, size=reports)
            values = truth[cells] + stds * rng.standard_normal(reports)
            values[:zone_id] += 30.0  # zone 0 clean, 1 and 2 trimmed
            payloads.append((zone_id, cells, values, stds, 8))
        scratch = mega._zone_scratch(96, 256)
        forward = {
            zone_id: (field, rejected)
            for zone_id, field, rejected in (
                mega._solve_zone(p, basis, scratch) for p in payloads
            )
        }
        for payload in reversed(payloads):
            zone_id, field, rejected = mega._solve_zone(
                payload, basis, scratch
            )
            assert np.array_equal(field, forward[zone_id][0])
            assert np.array_equal(rejected, forward[zone_id][1])
        for zone_id in (1, 2):  # the trim refits ran
            assert forward[zone_id][1][:zone_id].all()


def _tier_zone(rng: np.random.Generator, truth: np.ndarray):
    """128 reports from one 32x32 zone under the standard handset mix."""
    stds = BASE_NOISE_STD * tier_noise_multipliers(128, STANDARD_TIERS, rng)
    cells = rng.choice(truth.size, size=128, replace=False)
    return cells, truth[cells] + stds * rng.standard_normal(128), stds


class TestEqualWeightScale:
    def test_equal_weight_fits_admit_no_noise(self, monkeypatch):
        # An equal-weight row carries the *mean* claimed variance; under
        # the tier mix the median sits 2-3x below it, and fits whitened
        # by the median clear the 2 ln N stop on noise alone (~6 atoms
        # per full fit on these zones, ~1.7 averaged over all trim fits).
        admitted, full = [], []
        real = mega.omp

        def spy(phi_rows, x_s, k, **kwargs):
            result = real(phi_rows, x_s, k, **kwargs)
            if np.ndim(kwargs["covariance"]) == 0:
                admitted.append(result.support.size)
                if phi_rows.shape[0] == 128:
                    full.append(result.support.size)
            return result

        monkeypatch.setattr(mega, "omp", spy)
        basis = np.asarray(shared_dct2_basis(32, 32))
        for seed in range(30):
            rng = np.random.default_rng(seed)
            cells, values, stds = _tier_zone(rng, np.zeros(1024))
            mega._solve_zone((0, cells, values, stds, 16), basis)
        assert len(full) == 30
        assert np.mean(full) <= 0.5
        assert np.mean(admitted) <= 0.5

    def test_one_huge_claim_shields_no_liar(self):
        # The mean is not robust: one row claiming std 1e3 lifts the
        # equal-weight variance ~10^4-fold and the screening fits go
        # flat.
        # Trim still judges each row by its own claim and refits with
        # the real covariance, so every gross liar is expelled and the
        # honest rows come back.
        basis = np.asarray(shared_dct2_basis(32, 32))
        truth = basis[:, [0, 3, 40, 77]] @ np.array([120.0, -60.0, 45.0, 30.0])
        truth_rms = float(np.sqrt(np.mean(truth**2)))
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            cells, values, stds = _tier_zone(rng, truth)
            values[:12] += 20.0
            stds[:12] = 0.01
            stds[12] = 1e3
            _, field, rejected = mega._solve_zone(
                (0, cells, values, stds, 16), basis
            )
            assert rejected[:12].all()
            assert int(rejected.sum()) == 12
            assert np.sqrt(np.mean((field - truth) ** 2)) < 0.1 * truth_rms


def _golden_payload(kind: str):
    """One 16x16 zone, 96 reports, at a pinned seed per kind."""
    basis = np.asarray(shared_dct2_basis(16, 16))
    seed = {"clean": 31, "adversarial": 32, "stuck": 33}[kind]
    rng = np.random.default_rng(seed)
    truth = basis[:, [0, 2, 19, 33]] @ np.array([5.0, -3.0, 2.0, 1.0])
    cells = rng.choice(256, size=96, replace=False)
    stds = rng.uniform(0.05, 0.3, size=96)
    values = truth[cells] + stds * rng.standard_normal(96)
    if kind == "adversarial":  # 10 % liars, +9 offset, claiming std 0.01
        liars = rng.choice(96, size=10, replace=False)
        values[liars] += 9.0
        stds[liars] = 0.01
    elif kind == "stuck":  # five sensors frozen at one reading
        values[rng.choice(96, size=5, replace=False)] = 25.0
    return (0, cells, values, stds, 8), basis


# (rows rejected, sha256 over the zone estimate's bytes + the rejected
# mask).  Stopping the fits at the noise floor moved the field bytes
# only: the rejected masks are the ones filling all K atoms gave.
# The solve passes through BLAS, so
# these pin this platform's numpy build, like every golden vector.
ZONE_GOLDEN = {
    "clean": (0, "bd122b982ad09efd7667437feff4203f56ca5f5cd426fb2dafe486170701e08f"),
    "adversarial": (10, "e42d511df45e5818dcc47bb3dbbfb73035c57a5c0762ad6b6620b7c0bc16e70e"),
    "stuck": (5, "a9442bbd9aa8b3d0c8a4d334a85ac697c8030d253ee852ea4a029cb238109cc4"),
}


class TestZoneGolden:
    @pytest.mark.parametrize("kind", sorted(ZONE_GOLDEN))
    def test_solve_zone_matches_committed_digest(self, kind):
        payload, basis = _golden_payload(kind)
        _, field, rejected = mega._solve_zone(payload, basis)
        digest = hashlib.sha256(field.tobytes())
        digest.update(rejected.tobytes())
        assert (int(rejected.sum()), digest.hexdigest()) == ZONE_GOLDEN[kind]


# The layered benchmark's pinned city shapes
# (``benchmarks/perf/perf_workloads.py``, ``CITY_SHAPES``).
CITY_SHAPES = {
    "city_solve": dict(
        nodes=10_000, edge=96, zones=3, reports=128, sparsity=16, ticks=1
    ),
    "city_mobility": dict(
        nodes=100_000, edge=64, zones=4, reports=32, sparsity=4, ticks=30
    ),
}


def _city_sim(shape: str, seed: int) -> MegaSimulation:
    dims = CITY_SHAPES[shape]
    return MegaSimulation(
        MegaConfig(
            population=PopulationConfig(
                n_nodes=dims["nodes"],
                width=dims["edge"],
                height=dims["edge"],
                zones_x=dims["zones"],
                zones_y=dims["zones"],
                mobility="random_waypoint",
                seed=seed,
            ),
            reports_per_zone=dims["reports"],
            sparsity=dims["sparsity"],
            ticks_per_round=dims["ticks"],
        )
    )


class TestCityAccuracy:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("shape", sorted(CITY_SHAPES))
    def test_estimate_is_no_worse_than_publishing_zeros(self, shape, seed):
        # At a per-sample SNR below one, a solve that fills all K atoms
        # fits noise and lands ~2x the zero field's RMS.  Stopping at
        # the noise floor brings it level; beating it needs a prior.
        sim = _city_sim(shape, seed)
        zero_rms = float(np.sqrt(np.mean(sim.truth**2)))
        rmse = np.median([sim.run_round().rmse for _ in range(12)])
        assert rmse <= 1.1 * zero_rms


# sha256 over six rounds at seed 7 of each pinned city shape: every
# MegaRoundRecord's repr, then the final estimate, trust column and
# quarantine mask.  TestZoneGolden pins one 16x16 zone; these pin the
# benchmark's own shapes end to end (same numpy-build caveat).
CITY_GOLDEN = {
    "city_solve": "0ee707af92ac204d4c32d7f01262bcc0476dbcccfd2b1dec8fa007637d1a77cc",
    "city_mobility": "5f2279a6f6e649ac4acdc9f965b6c6e700003ee1a85d4ece5ffbaeea9bc462e1",
}


class TestCityGolden:
    @pytest.mark.parametrize("shape", sorted(CITY_GOLDEN))
    def test_six_rounds_match_committed_digest(self, shape):
        sim = _city_sim(shape, 7)
        digest = hashlib.sha256()
        for _ in range(6):
            record = sim.run_round()
            digest.update(repr(dataclasses.astuple(record)).encode())
        digest.update(sim.estimate.tobytes())
        digest.update(sim.population.trust.tobytes())
        digest.update(sim.population.quarantined.tobytes())
        assert digest.hexdigest() == CITY_GOLDEN[shape]
