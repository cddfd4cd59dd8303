"""Parallel zone reconstruction: bit-identical to serial, shared bases.

The parallelism knob only fans the *solve* phase over threads;
collection (bus + RNG) and finalisation (state mutation) stay serial,
so two same-seeded deployments must produce byte-for-byte identical
global estimates whether or not the pool is used — across multiple
rounds, so the sparsity-adaptation state carries identically too.
"""

import numpy as np
import pytest

from repro.fields import urban_temperature_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import BrokerConfig, HierarchyConfig
from repro.middleware.localcloud import solve_pending_rounds
from repro.sensors.base import Environment


def _deploy(broker_config, *, seed=123, zones=2, nodes=24):
    truth = urban_temperature_field(32, 32, rng=7)
    env = Environment(fields={"temperature": truth})
    return SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=zones, zones_y=zones, nodes_per_nanocloud=nodes
        ),
        broker_config=broker_config,
        rng=seed,
    )


class TestParallelEqualsSerial:
    def test_global_fields_bit_identical_over_rounds(self):
        serial = _deploy(BrokerConfig())
        parallel = _deploy(
            BrokerConfig(
                parallel_reconstruction=True, reconstruction_workers=4
            )
        )
        for _ in range(3):
            a = serial.sense_field()
            b = parallel.sense_field()
            assert np.array_equal(a.field.grid, b.field.grid)
            assert a.total_measurements == b.total_measurements

    def test_zone_estimates_identical(self):
        serial = _deploy(BrokerConfig())
        parallel = _deploy(BrokerConfig(parallel_reconstruction=True))
        ra = serial.sense_field()
        rb = parallel.sense_field()
        for zone_id, result_a in ra.zone_results.items():
            result_b = rb.zone_results[zone_id]
            for ea, eb in zip(result_a.nc_estimates, result_b.nc_estimates):
                assert np.array_equal(ea.field.grid, eb.field.grid)
                assert np.array_equal(
                    ea.reconstruction.support, eb.reconstruction.support
                )
                assert ea.sparsity_estimate == eb.sparsity_estimate

    def test_localcloud_round_parallel_identical(self):
        # Parallelism inside one LocalCloud (multiple NCs per zone).
        def build(parallel):
            truth = urban_temperature_field(32, 16, rng=3)
            env = Environment(fields={"temperature": truth})
            return SenseDroid(
                env,
                hierarchy_config=HierarchyConfig(
                    zones_x=1,
                    zones_y=1,
                    nodes_per_nanocloud=24,
                    nanoclouds_per_localcloud=4,
                ),
                broker_config=BrokerConfig(
                    parallel_reconstruction=parallel
                ),
                rng=99,
            )

        a = build(False).sense_field()
        b = build(True).sense_field()
        assert np.array_equal(a.field.grid, b.field.grid)


class TestSharedBasisRegistry:
    def test_same_shaped_brokers_share_one_basis_object(self):
        system = _deploy(BrokerConfig())
        brokers = [
            nc.broker
            for lc in system.hierarchy.localclouds.values()
            for nc in lc.nanoclouds
        ]
        assert len(brokers) >= 2
        first = brokers[0]._basis()
        for broker in brokers[1:]:
            assert broker._basis() is first


class TestSolvePendingRounds:
    def test_preserves_input_order(self):
        system = _deploy(BrokerConfig(parallel_reconstruction=True))
        hierarchy = system.hierarchy
        env = system.env
        pairs = []
        for lc in hierarchy.localclouds.values():
            pairs.extend(lc.collect_rounds(env, 0.0))
        serial = [broker.solve_round(p) for broker, p in pairs]
        pooled = solve_pending_rounds(pairs, hierarchy.broker_config)
        for (_, xa), (_, xb) in zip(serial, pooled):
            assert np.array_equal(xa, xb)
        # Leave the brokers consistent for garbage collection: finalise.
        cursor = 0
        for lc in hierarchy.localclouds.values():
            n = len(lc.nanoclouds)
            lc.finish_round(
                pairs[cursor : cursor + n], pooled[cursor : cursor + n], 0.0
            )
            cursor += n


class TestConfigValidation:
    def test_rejects_bad_engine(self):
        # There is one solver core and one basis form per name; the
        # options that used to select between two are gone.
        with pytest.raises(TypeError):
            BrokerConfig(solver_engine="reference")
        with pytest.raises(TypeError):
            BrokerConfig(operator_basis=False)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            BrokerConfig(reconstruction_workers=0)
