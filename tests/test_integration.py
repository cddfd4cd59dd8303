"""End-to-end integration tests across subsystem boundaries.

Each test exercises a pipeline a real deployment would run, asserting
the paper's qualitative claims hold through the full stack rather than
in isolated units.
"""

import numpy as np
import pytest

import repro
from repro.baselines import dense_gather, global_cs_gather, uniform_gather
from repro.core import metrics
from repro.fields import urban_temperature_field
from repro.middleware import (
    BrokerConfig,
    CompressionPolicy,
    HierarchyConfig,
    SenseDroid,
)
from repro.sensors import Environment


class TestPublicAPI:
    def test_quickstart_from_docstring(self):
        """The package docstring example must actually run."""
        truth = repro.urban_temperature_field(32, 16, rng=3)
        env = repro.Environment(fields={"temperature": truth})
        system = repro.SenseDroid(env, rng=42)
        estimate = system.sense_field()
        assert system.estimate_error(estimate) < 0.5

    def test_version(self):
        assert repro.__version__

    def test_all_subpackages_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestCompressiveVsBaselines:
    """The headline: compressive collaborative sensing reads a fraction
    of the nodes yet reconstructs nearly as well as dense gathering."""

    def _system(self, truth, seed=11):
        env = Environment(fields={"temperature": truth})
        return SenseDroid(
            env,
            hierarchy_config=HierarchyConfig(
                zones_x=4, zones_y=2, nodes_per_nanocloud=64
            ),
            broker_config=BrokerConfig(
                seed=seed, policy=CompressionPolicy(mode="sparsity")
            ),
            rng=seed,
        )

    def test_fraction_of_measurements_low_error(self):
        truth = urban_temperature_field(32, 16, rng=3)
        system = self._system(truth)
        system.sense_field()  # warm-up
        estimate = system.sense_field()
        err = system.estimate_error(estimate)
        ratio = estimate.total_measurements / truth.n
        assert ratio < 0.6
        assert err < 0.05

    def test_beats_uniform_subsampling_in_aliasing_regime(self):
        """CS's advantage over uniform subsampling is the aliasing
        regime: content above the uniform-sampling Nyquist rate (the
        engine tone of the Fig. 4 accelerometer window, sharp spatial
        modes) folds down under uniform sampling but is recovered
        exactly from the same number of *random* samples.  (On very
        smooth fields uniform interpolation is a competitive baseline —
        see EXPERIMENTS.md.)"""
        from repro.core.basis import dct_basis
        from repro.core.reconstruction import reconstruct
        from repro.sensors import accelerometer_window

        n, m = 256, 32
        phi = dct_basis(n)
        cs_errs, uniform_errs = [], []
        for seed in range(6):
            window = accelerometer_window("driving", n, rng=seed)
            # Uniform: every 8th sample + linear interpolation.
            uniform_result = np.interp(
                np.arange(n, dtype=float),
                np.arange(0, n, n // m, dtype=float),
                window[:: n // m],
            )
            uniform_errs.append(metrics.relative_error(window, uniform_result))
            loc = np.sort(
                np.random.default_rng(seed).choice(n, m, replace=False)
            )
            result = reconstruct(
                window[loc], loc, phi, solver="omp", sparsity=m // 2
            )
            cs_errs.append(metrics.relative_error(window, result.x_hat))
        assert np.median(cs_errs) < 0.6 * np.median(uniform_errs)

    def test_dense_costs_more_messages(self):
        truth = urban_temperature_field(16, 8, rng=5)
        system = self._system(truth, seed=17)
        estimate = system.sense_field()
        commands = system.hierarchy.bus.stats.by_kind["sense_command"]
        dense = dense_gather(truth)
        assert commands < dense.messages / 2


class TestPrivacyEndToEnd:
    def test_opted_out_nodes_never_contribute(self):
        truth = urban_temperature_field(16, 8, rng=7)
        env = Environment(fields={"temperature": truth})
        system = SenseDroid(
            env,
            hierarchy_config=HierarchyConfig(
                zones_x=2, zones_y=1, nodes_per_nanocloud=64
            ),
            broker_config=BrokerConfig(seed=19),
            rng=19,
        )
        # Opt out half the fleet.
        opted_out = []
        for lc in system.hierarchy.localclouds.values():
            for nc in lc.nanoclouds:
                for idx, node in enumerate(nc.nodes.values()):
                    if idx % 2 == 0:
                        node.policy.opt_out()
                        opted_out.append(node)
        estimate = system.sense_field()
        # Refused commands appear in diagnostics, nothing from opted-out.
        refused = sum(
            e.reports_refused
            for r in estimate.zone_results.values()
            for e in r.nc_estimates
        )
        assert refused > 0
        for node in opted_out:
            assert node.audit.total_shared() == 0
        # System still produces a usable estimate from the willing half.
        assert system.estimate_error(estimate) < 0.5


class TestGlobalCSBaselineComparison:
    def test_hierarchical_needs_far_fewer_transmissions(self):
        """Hierarchical: O(M) single-hop reports.  Luo et al. global CS:
        O(N*M) relay transmissions (Section 2's critique)."""
        truth = urban_temperature_field(32, 16, rng=25)
        m = 100
        global_result = global_cs_gather(truth, m=m, rng=0)
        hierarchical_transmissions = 2 * m  # command + report per node
        assert global_result.transmissions > 50 * hierarchical_transmissions
