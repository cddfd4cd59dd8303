"""Tests for middleware configuration and the compression policy."""

import pytest

from repro.middleware.config import (
    MAX_RATIO,
    MIN_MEASUREMENTS,
    BrokerConfig,
    CompressionPolicy,
    HierarchyConfig,
)


class TestCompressionPolicy:
    def test_dense_mode(self):
        assert CompressionPolicy(mode="dense").measurements(100) == 100

    def test_fixed_ratio(self):
        policy = CompressionPolicy(mode="fixed-ratio", ratio=0.25)
        assert policy.measurements(100) == 25

    def test_sparsity_mode_scales_with_k(self):
        policy = CompressionPolicy(mode="sparsity")
        low = policy.measurements(256, sparsity_estimate=2)
        high = policy.measurements(256, sparsity_estimate=10)
        assert high > low

    def test_sparsity_mode_logarithmic_in_n(self):
        policy = CompressionPolicy(mode="sparsity")
        m_small = policy.measurements(128, sparsity_estimate=5)
        m_big = policy.measurements(8192, sparsity_estimate=5)
        assert m_big < 2 * m_small  # log growth

    def test_min_measurements_clamp(self):
        policy = CompressionPolicy(mode="fixed-ratio", ratio=0.01)
        assert policy.measurements(100) == MIN_MEASUREMENTS

    def test_max_ratio_clamp(self):
        policy = CompressionPolicy(mode="sparsity")
        assert policy.measurements(100, sparsity_estimate=90) == round(
            MAX_RATIO * 100
        )

    def test_min_clamp_respects_tiny_zone(self):
        # Zones smaller than the floor: M never exceeds the zone.
        for policy in (
            CompressionPolicy(mode="sparsity"),
            CompressionPolicy(mode="fixed-ratio", ratio=1.0),
        ):
            for n in range(1, 2 * MIN_MEASUREMENTS):
                assert 1 <= policy.measurements(n, sparsity_estimate=1) <= n

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionPolicy(mode="magic")
        with pytest.raises(ValueError):
            CompressionPolicy(ratio=0.0)
        with pytest.raises(ValueError):
            CompressionPolicy().measurements(0)


class TestBrokerConfig:
    def test_defaults_valid(self):
        config = BrokerConfig()
        assert config.solver == "chs"

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            BrokerConfig(solver="gradient-descent")


    @pytest.mark.parametrize(
        "removed",
        [
            # one solver core, one basis form per name (PR 13)
            "solver_engine",
            "operator_basis",
            # the thread-pool fork and the fields nobody set (PR 14)
            "parallel_reconstruction",
            "reconstruction_workers",
            "gls_std_floor",
            "robust_threshold",
            "trust_alpha",
            "criticality_weighting",
            # always on, gone, or derived from an installed prior
            "use_gls",
            "fair_rotation",
            "max_coverage_gap",
            "use_prior_basis",
            # a ZoneRoundDriver argument, REPORT_DEADLINE_S by default
            "report_deadline_s",
        ],
    )
    def test_removed_options_rejected(self, removed):
        with pytest.raises(TypeError):
            BrokerConfig(**{removed: 1})


class TestHierarchyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchyConfig(zones_x=0)
        with pytest.raises(ValueError):
            HierarchyConfig(nodes_per_nanocloud=0)
