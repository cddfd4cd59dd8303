"""Tests for heterogeneity tiers and the GLS covariance builders."""

import numpy as np
import pytest

from repro.sensors.noise import (
    STANDARD_TIERS,
    QualityTier,
    covariance_for_tiers,
    covariance_from_stds,
    draw_tiers,
    heterogeneity_ratio,
)


class TestQualityTier:
    def test_validation(self):
        with pytest.raises(ValueError):
            QualityTier("x", noise_multiplier=0.0, population_share=0.5)
        with pytest.raises(ValueError):
            QualityTier("x", noise_multiplier=1.0, population_share=1.5)

    def test_standard_mix_sums_to_one(self):
        assert sum(t.population_share for t in STANDARD_TIERS) == pytest.approx(1.0)


class TestDrawTiers:
    def test_count_and_membership(self):
        tiers = draw_tiers(50, rng=0)
        assert len(tiers) == 50
        assert all(t in STANDARD_TIERS for t in tiers)

    def test_population_shares_respected(self):
        tiers = draw_tiers(3000, rng=1)
        budget_share = sum(t.name == "budget" for t in tiers) / 3000
        assert 0.25 < budget_share < 0.35

    def test_zero_count(self):
        assert draw_tiers(0, rng=2) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            draw_tiers(-1)
        with pytest.raises(ValueError):
            draw_tiers(3, tiers=())


class TestCovariance:
    def test_diagonal_from_stds(self):
        v = covariance_from_stds(np.array([1.0, 2.0]))
        assert np.allclose(v, np.diag([1.0, 4.0]))

    def test_zero_std_floored(self):
        v = covariance_from_stds(np.array([0.0]))
        assert v[0, 0] > 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            covariance_from_stds(np.array([-1.0]))

    def test_for_tiers(self):
        tiers = [STANDARD_TIERS[0], STANDARD_TIERS[2]]  # flagship, budget
        v = covariance_for_tiers(tiers, base_noise_std=2.0)
        assert v[0, 0] == pytest.approx(1.0)  # (2*0.5)^2
        assert v[1, 1] == pytest.approx(25.0)  # (2*2.5)^2


class TestHeterogeneityRatio:
    def test_homogeneous_is_one(self):
        assert heterogeneity_ratio(np.eye(4)) == pytest.approx(1.0)

    def test_ratio(self):
        v = np.diag([1.0, 9.0])
        assert heterogeneity_ratio(v) == pytest.approx(9.0)

    def test_variance_vector_form(self):
        assert heterogeneity_ratio(np.array([1.0, 9.0])) == pytest.approx(9.0)
        with pytest.raises(ValueError):
            heterogeneity_ratio(np.array([0.0, 1.0]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            heterogeneity_ratio(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            heterogeneity_ratio(np.diag([0.0, 1.0]))
