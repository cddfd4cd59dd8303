"""Tests for sparsity estimation, K selection and error decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import dct_basis
from repro.core.sampling import random_locations
from repro.core.sparsity import (
    best_k_term_error,
    energy_sparsity,
    error_decomposition,
    measurements_for_sparsity,
    select_optimal_k,
)


class TestEnergySparsity:
    def test_single_spike(self):
        alpha = np.zeros(32)
        alpha[5] = 7.0
        assert energy_sparsity(alpha) == 1

    def test_uniform_energy(self):
        alpha = np.ones(10)
        assert energy_sparsity(alpha, energy=0.95) == 10  # ceil(9.5)

    def test_zero(self):
        assert energy_sparsity(np.zeros(5)) == 0

    def test_invalid_energy(self):
        with pytest.raises(ValueError):
            energy_sparsity(np.ones(3), energy=1.5)

    @given(st.floats(min_value=0.5, max_value=0.999))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_energy(self, e):
        rng = np.random.default_rng(17)
        alpha = rng.standard_normal(64)
        assert energy_sparsity(alpha, e) <= energy_sparsity(alpha, 0.9995)


class TestBestKTermError:
    def test_zero_for_full_k(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        phi = dct_basis(16)
        assert best_k_term_error(x, phi, 16) == pytest.approx(0.0, abs=1e-10)

    def test_one_for_k_zero(self):
        x = np.ones(8)
        phi = dct_basis(8)
        assert best_k_term_error(x, phi, 0) == pytest.approx(1.0)

    def test_monotone_non_increasing_in_k(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(32)
        phi = dct_basis(32)
        errs = [best_k_term_error(x, phi, k) for k in range(0, 33)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_exactly_sparse_signal(self):
        phi = dct_basis(32)
        alpha = np.zeros(32)
        alpha[[2, 7, 19]] = [3.0, -1.0, 2.0]
        x = phi @ alpha
        assert best_k_term_error(x, phi, 3) == pytest.approx(0.0, abs=1e-10)
        assert best_k_term_error(x, phi, 2) > 0.1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            best_k_term_error(np.ones(4), dct_basis(4), 5)


class TestErrorDecomposition:
    def _setup(self, seed=0, n=64, m=32):
        rng = np.random.default_rng(seed)
        phi = dct_basis(n)
        # Compressible (not exactly sparse) field: decaying spectrum.
        alpha = rng.standard_normal(n) * np.exp(-np.arange(n) / 6.0)
        x = phi @ alpha
        loc = random_locations(n, m, rng)
        return x, phi, loc, rng

    def test_budget_fields_consistent(self):
        x, phi, loc, rng = self._setup()
        noise = rng.standard_normal(loc.size) * 0.05
        budget = error_decomposition(x, phi, loc, noise, k=8)
        assert budget.k == 8
        assert budget.approximation >= 0
        assert budget.conditioning >= 0
        assert budget.noise >= 0
        assert budget.total >= 0
        row = budget.as_row()
        assert row["K"] == 8 and row["eps_total"] == budget.total

    def test_noiseless_has_zero_noise_term(self):
        x, phi, loc, _ = self._setup(seed=1)
        budget = error_decomposition(x, phi, loc, None, k=6)
        assert budget.noise == 0.0

    def test_approximation_error_decreases_with_k(self):
        x, phi, loc, _ = self._setup(seed=2)
        budgets = [
            error_decomposition(x, phi, loc, None, k) for k in (2, 6, 12)
        ]
        eps_a = [b.approximation for b in budgets]
        assert eps_a[0] >= eps_a[1] >= eps_a[2]

    def test_conditioning_grows_as_k_approaches_m(self):
        x, phi, loc, _ = self._setup(seed=3, m=16)
        low_k = error_decomposition(x, phi, loc, None, k=4)
        high_k = error_decomposition(x, phi, loc, None, k=15)
        assert high_k.condition_number > low_k.condition_number


class TestSelectOptimalK:
    def test_interior_optimum_under_noise(self):
        """With measurement noise the error-vs-K curve is U-shaped, so
        the optimum is strictly below K=M (paper's K trade-off)."""
        rng = np.random.default_rng(4)
        n, m = 64, 24
        phi = dct_basis(n)
        alpha = rng.standard_normal(n) * np.exp(-np.arange(n) / 4.0)
        x = phi @ alpha
        loc = random_locations(n, m, rng)
        noise = rng.standard_normal(m) * 0.2
        best_k, budgets = select_optimal_k(x, phi, loc, noise)
        assert 1 <= best_k < m
        assert len(budgets) == m
        totals = [b.total for b in budgets]
        assert totals[best_k - 1] == min(totals)

    def test_respects_k_max(self):
        rng = np.random.default_rng(5)
        phi = dct_basis(32)
        x = phi @ rng.standard_normal(32)
        loc = random_locations(32, 16, rng)
        _, budgets = select_optimal_k(x, phi, loc, k_max=5)
        assert len(budgets) == 5


class TestMeasurementsForSparsity:
    def test_logarithmic_in_n(self):
        m1 = measurements_for_sparsity(5, 100)
        m2 = measurements_for_sparsity(5, 10000)
        assert m2 < 3 * m1  # log scaling, not linear

    def test_clamped_to_n(self):
        assert measurements_for_sparsity(50, 60) <= 60

    def test_at_least_k_plus_one(self):
        assert measurements_for_sparsity(1, 2, oversampling=0.01) >= 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            measurements_for_sparsity(0, 10)
        with pytest.raises(ValueError):
            measurements_for_sparsity(11, 10)
