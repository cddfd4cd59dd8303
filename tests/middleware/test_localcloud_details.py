"""Focused LocalCloud tests: criticality slicing, prior installation,
and the dense-policy configuration path."""

import numpy as np
import pytest

from repro.core import metrics
from repro.fields.generators import smooth_field
from repro.fields.priors import build_zone_prior
from repro.fields.temporal import ar1_evolution, evolve_field
from repro.middleware.config import BrokerConfig, CompressionPolicy
from repro.middleware.localcloud import LocalCloud
from repro.network.bus import MessageBus
from repro.sensors.base import Environment


class TestCriticalitySlicing:
    def test_nc_columns_get_their_slice(self):
        """A zone-local criticality vector is split column-wise across
        the NanoClouds; each broker sees exactly its own cells."""
        zone_w, zone_h = 8, 4
        criticality = np.arange(zone_w * zone_h, dtype=float)
        bus = MessageBus()
        lc = LocalCloud(
            "lc", bus, zone_w, zone_h, n_nanoclouds=2, nodes_per_nc=8,
            criticality=criticality, rng=0,
        )
        left = lc.nanoclouds[0].broker.criticality
        right = lc.nanoclouds[1].broker.criticality
        assert left.size == right.size == 16
        # Column-stacked layout: first NC gets cells of columns 0..3.
        assert np.array_equal(left, criticality[:16])
        assert np.array_equal(right, criticality[16:])


class TestPriorThroughLocalCloud:
    def test_prior_installed_per_nc_broker(self):
        truth = smooth_field(8, 8, cutoff=0.2, amplitude=4.0, offset=20.0, rng=0)
        env = Environment(fields={"temperature": truth})
        bus = MessageBus()
        lc = LocalCloud(
            "lc", bus, 8, 8, n_nanoclouds=1, nodes_per_nc=64,
            config=BrokerConfig(seed=1),
            heterogeneous=True, rng=1,
        )
        trace = evolve_field(
            truth, ar1_evolution(rho=0.95, innovation_std=0.05),
            steps=12, rng=2,
        )
        lc.nanoclouds[0].broker.set_prior(build_zone_prior(trace))
        result = lc.run_round(env)
        err = metrics.relative_error(
            truth.vector(), result.field.vector()
        )
        assert err < 0.15
        # Priors drive the sparsity estimate the broker reports.
        assert result.nc_estimates[0].sparsity_estimate >= 1


class TestDensePolicy:
    def test_dense_mode_samples_everything(self):
        truth = smooth_field(6, 6, cutoff=0.3, amplitude=3.0, offset=20.0, rng=3)
        env = Environment(fields={"temperature": truth})
        bus = MessageBus()
        lc = LocalCloud(
            "lc", bus, 6, 6, n_nanoclouds=1, nodes_per_nc=36,
            config=BrokerConfig(
                policy=CompressionPolicy(mode="dense"), seed=4,
            ),
            heterogeneous=False, rng=4,
        )
        result = lc.run_round(env)
        assert result.nc_estimates[0].m == 36
        err = metrics.relative_error(truth.vector(), result.field.vector())
        assert err < 0.05


class TestCoefficientsReported:
    def test_upward_payload_counts_support(self):
        truth = smooth_field(8, 8, cutoff=0.2, amplitude=4.0, offset=20.0, rng=5)
        env = Environment(fields={"temperature": truth})
        bus = MessageBus()
        lc = LocalCloud(
            "lc", bus, 8, 8, n_nanoclouds=1, nodes_per_nc=64,
            config=BrokerConfig(seed=6), heterogeneous=False, rng=6,
        )
        result = lc.run_round(env)
        support = int(result.nc_estimates[0].reconstruction.support.size)
        assert result.coefficients_reported == 2 * support
        # The compressed upward payload is far smaller than the zone.
        assert result.coefficients_reported < 64
