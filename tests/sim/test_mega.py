"""City-scale rounds: sharded == serial, stale-serve, overload, trust.

The load-bearing pin is :class:`TestSerialShardedIdentity`: the
multiprocess fan-out must produce byte-for-byte the same estimates and
trust state as the in-process solve, because collect (all RNG) stays
serial, the solve kernel is pure, and the workers attach the exact
basis bytes the parent exported.  The remaining tests exercise the
overload (PR 6) and Byzantine (PR 4) layers on top of the array core.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.core.registry import shared_dct2_basis
from repro.core.shardmem import exported_segment_names
from repro.sensors.faults import SensorFaultInjector, StuckAt
from repro.sim import mega
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import PopulationConfig


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


class TestSerialShardedIdentity:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_sharded_rounds_bit_identical(self, seed):
        pop = _pop(seed)
        serial = MegaSimulation(
            MegaConfig(population=pop, reports_per_zone=48, sparsity=8)
        )
        with MegaSimulation(
            MegaConfig(
                population=pop,
                reports_per_zone=48,
                sparsity=8,
                sharded=True,
                workers=2,
            )
        ) as sharded:
            for _ in range(3):
                a = serial.run_round()
                b = sharded.run_round()
                assert np.array_equal(serial.estimate, sharded.estimate)
                assert np.array_equal(
                    serial.population.trust, sharded.population.trust
                )
                assert np.array_equal(
                    serial.population.quarantined,
                    sharded.population.quarantined,
                )
                assert a == b

    def test_worker_count_does_not_change_results(self):
        pop = _pop(77)
        estimates = []
        for workers in (1, 3):
            with MegaSimulation(
                MegaConfig(
                    population=pop,
                    reports_per_zone=48,
                    sparsity=8,
                    sharded=True,
                    workers=workers,
                )
            ) as sim:
                for _ in range(2):
                    sim.run_round()
                estimates.append(sim.estimate.copy())
        assert np.array_equal(estimates[0], estimates[1])


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

    def test_trust_updates_can_be_disabled(self):
        injector = SensorFaultInjector()
        injector.attach("meganode-0", StuckAt(1e6))
        sim = MegaSimulation(
            MegaConfig(
                population=_pop(13),
                reports_per_zone=200,
                sparsity=8,
                trust_updates=False,
            ),
            sensor_fault_injector=injector,
        )
        for _ in range(4):
            record = sim.run_round()
        assert record.quarantined_nodes == 0
        assert (sim.population.trust == 1.0).all()


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
# mask), the same before and after the concentration fit's C-steps
# became objective-monotone (PR 22).  The solve passes through BLAS, so
# these pin this platform's numpy build, like every golden vector;
# serial == sharded bit-identity is the Hypothesis property above.
ZONE_GOLDEN = {
    "clean": (0, "5dd7e268fd783f490424d599b45fac77dab3f81e53d0a9ecdc5b2736fc165775"),
    "adversarial": (10, "9be6e5a8514cf765d039abd17270f55b6e2413f6954f9d682394b26c30cfdc33"),
    "stuck": (5, "5e5100357cd2cbcb469279b1ee8ea84af5e32831e3aae864c96705da0f1bf13b"),
}


class TestZoneGolden:
    @pytest.mark.parametrize("kind", sorted(ZONE_GOLDEN))
    def test_solve_zone_matches_committed_digest(self, kind):
        payload, basis = _golden_payload(kind)
        _, field, rejected = mega._solve_zone(payload, basis)
        digest = hashlib.sha256(field.tobytes())
        digest.update(rejected.tobytes())
        assert (int(rejected.sum()), digest.hexdigest()) == ZONE_GOLDEN[kind]


class TestShardedSanitizer:
    def test_fanout_passes_checksum_verification(self):
        was_enabled = contracts.enabled()
        contracts.enable()
        try:
            with MegaSimulation(
                MegaConfig(
                    population=_pop(3),
                    reports_per_zone=32,
                    sparsity=8,
                    sharded=True,
                    workers=2,
                )
            ) as sim:
                record = sim.run_round()
                assert record.zones_solved == 4
        finally:
            contracts.enable(was_enabled)

    def test_shutdown_unlinks_basis_segment(self):
        sim = MegaSimulation(
            MegaConfig(
                population=_pop(4),
                reports_per_zone=32,
                sparsity=8,
                sharded=True,
                workers=2,
            )
        )
        spec = sim._basis_spec
        assert spec is not None
        assert spec.name in exported_segment_names()
        sim.run_round()
        sim.shutdown()
        assert spec.name not in exported_segment_names()
        sim.shutdown()  # idempotent

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MegaConfig(population=_pop(1), reports_per_zone=0)
        with pytest.raises(ValueError):
            MegaConfig(population=_pop(1), sparsity=0)
        with pytest.raises(ValueError):
            MegaConfig(population=_pop(1), sharded=True, workers=0)
