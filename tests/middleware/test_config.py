"""Tests for middleware configuration and the compression policy."""

import pytest

from repro.middleware.config import (
    BrokerConfig,
    CompressionPolicy,
    HierarchyConfig,
    NodeConfig,
)


class TestCompressionPolicy:
    def test_dense_mode(self):
        assert CompressionPolicy(mode="dense").measurements(100) == 100

    def test_fixed_ratio(self):
        policy = CompressionPolicy(mode="fixed-ratio", ratio=0.25)
        assert policy.measurements(100) == 25

    def test_sparsity_mode_scales_with_k(self):
        policy = CompressionPolicy(mode="sparsity", oversampling=1.5)
        low = policy.measurements(256, sparsity_estimate=2)
        high = policy.measurements(256, sparsity_estimate=10)
        assert high > low

    def test_sparsity_mode_logarithmic_in_n(self):
        policy = CompressionPolicy(mode="sparsity")
        m_small = policy.measurements(128, sparsity_estimate=5)
        m_big = policy.measurements(8192, sparsity_estimate=5)
        assert m_big < 2 * m_small  # log growth

    def test_min_measurements_clamp(self):
        policy = CompressionPolicy(
            mode="fixed-ratio", ratio=0.01, min_measurements=6
        )
        assert policy.measurements(100) == 6

    def test_max_ratio_clamp(self):
        policy = CompressionPolicy(mode="sparsity", max_ratio=0.5)
        assert policy.measurements(100, sparsity_estimate=90) == 50

    def test_min_clamp_respects_tiny_zone(self):
        policy = CompressionPolicy(min_measurements=8, max_ratio=1.0)
        assert policy.measurements(4, sparsity_estimate=1) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionPolicy(mode="magic")
        with pytest.raises(ValueError):
            CompressionPolicy(ratio=0.0)
        with pytest.raises(ValueError):
            CompressionPolicy(oversampling=0.0)
        with pytest.raises(ValueError):
            CompressionPolicy(min_measurements=0)
        with pytest.raises(ValueError):
            CompressionPolicy(max_ratio=1.5)
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
        ],
    )
    def test_removed_options_rejected(self, removed):
        with pytest.raises(TypeError):
            BrokerConfig(**{removed: 1})


class TestNodeConfig:
    def test_defaults(self):
        config = NodeConfig()
        assert config.context_window == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(context_window=4)
        with pytest.raises(ValueError):
            NodeConfig(context_rate_hz=0.0)
        with pytest.raises(ValueError):
            NodeConfig(temporal_duty_cycle=0.0)


class TestHierarchyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchyConfig(zones_x=0)
        with pytest.raises(ValueError):
            HierarchyConfig(nodes_per_nanocloud=0)
