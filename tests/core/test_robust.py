"""Tests for the robust reconstruction wrappers (repro.core.robust)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import dct_basis
from repro.core.reconstruction import reconstruct
from repro.core.robust import (
    ROBUST_MODES,
    RobustFit,
    robust_reconstruct,
    robust_scales,
)


def _problem(seed=0, n=64, m=32, k=4, noise=0.0, noise_std=0.3):
    """A sparse low-frequency field, sampled at m points with bounded
    uniform noise (bounded so honest rows can never look like outliers)."""
    rng = np.random.default_rng(seed)
    phi = dct_basis(n)
    alpha = np.zeros(n)
    support = rng.choice(12, size=k, replace=False)
    alpha[support] = rng.uniform(1.0, 3.0, k) * rng.choice([-1, 1], k)
    x = phi @ alpha
    loc = np.sort(rng.choice(n, size=m, replace=False))
    y = x[loc] + rng.uniform(-noise, noise, m)
    stds = np.full(m, noise_std)
    return phi, x, loc, y, stds


def _make_fit(phi, sparsity=6):
    def fit(values, locations, covariance):
        result = reconstruct(
            values,
            locations,
            phi,
            solver="chs",
            sparsity=min(sparsity, values.size),
            covariance=covariance,
        )
        return result, result.x_hat

    return fit


class TestRobustScales:
    def test_mad_floor_defeats_understated_std(self):
        residual = np.array([0.1, -0.2, 0.15, -0.1, 5.0])
        stds = np.array([0.3, 0.3, 0.3, 0.3, 0.01])  # liar claims 0.01
        scales = robust_scales(residual, stds)
        # The liar is judged against the bulk spread, not its claim.
        assert scales[-1] > 0.01
        assert np.all(scales >= stds)

    def test_claimed_std_kept_when_larger_than_mad(self):
        residual = np.array([0.01, -0.01, 0.02, 0.0])
        stds = np.full(4, 0.5)
        assert np.allclose(robust_scales(residual, stds), 0.5)

    def test_no_stds_uses_pure_mad(self):
        residual = np.array([1.0, -1.0, 1.0, -1.0])
        scales = robust_scales(residual, None)
        assert np.allclose(scales, scales[0])
        assert scales[0] > 0

    def test_empty_residual(self):
        assert robust_scales(np.empty(0), None).size == 0


class TestTrim:
    def test_rejects_planted_outliers(self):
        phi, x, loc, y, stds = _problem(seed=3, noise=0.05)
        bad = np.array([2, 11, 25])
        y = y.copy()
        y[bad] += 40.0  # wildly wrong
        fit = _make_fit(phi)
        cov = np.diag(stds**2)
        naive, _ = fit(y, loc, cov)
        robust = robust_reconstruct(
            fit, y, loc, covariance=cov, noise_stds=stds, mode="trim"
        )
        assert set(bad) <= set(robust.rejected_rows)
        clean_err = fit(_problem(seed=3, noise=0.05)[3], loc, cov)[
            0
        ].relative_error(x)
        assert robust.result.relative_error(x) < 1.5 * clean_err
        assert naive.relative_error(x) > 5 * robust.result.relative_error(x)
        assert robust.rounds >= 1

    def test_clean_data_bit_identical_to_naive(self):
        phi, x, loc, y, stds = _problem(seed=1, noise=0.05)
        fit = _make_fit(phi)
        cov = np.diag(stds**2)
        naive_result, naive_x = fit(y, loc, cov)
        robust = robust_reconstruct(
            fit, y, loc, covariance=cov, noise_stds=stds, mode="trim"
        )
        assert robust.rounds == 0
        assert bool(robust.kept.all())
        # Same fit call, same inputs: the arrays are byte-identical.
        assert np.array_equal(robust.x_hat, naive_x)
        assert np.array_equal(robust.result.x_hat, naive_result.x_hat)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_zero_faults_bit_identity_property(self, seed):
        # Bounded noise at a fraction of the claimed std: a standardised
        # residual can never reach the 3.5 threshold, so trim must take
        # the rounds==0 path and return the naive fit untouched.
        phi, x, loc, y, stds = _problem(
            seed=seed, noise=0.1, noise_std=0.5
        )
        fit = _make_fit(phi)
        cov = np.diag(stds**2)
        naive_result, naive_x = fit(y, loc, cov)
        robust = robust_reconstruct(
            fit, y, loc, covariance=cov, noise_stds=stds, mode="trim"
        )
        assert robust.rounds == 0
        assert np.array_equal(robust.x_hat, naive_x)

    def test_min_keep_floor_holds(self):
        phi, x, loc, y, stds = _problem(seed=5, noise=0.05)
        y = y.copy()
        y[:20] += 50.0  # more offenders than the floor allows dropping
        robust = robust_reconstruct(
            _make_fit(phi),
            y,
            loc,
            covariance=np.diag(stds**2),
            noise_stds=stds,
            mode="trim",
        )
        assert int(robust.kept.sum()) >= max(4, y.size // 2)

    def test_deterministic_across_calls(self):
        phi, x, loc, y, stds = _problem(seed=7, noise=0.05)
        y = y.copy()
        y[4] += 30.0
        kwargs = dict(
            covariance=np.diag(stds**2), noise_stds=stds, mode="trim"
        )
        a = robust_reconstruct(_make_fit(phi), y, loc, **kwargs)
        b = robust_reconstruct(_make_fit(phi), y, loc, **kwargs)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(a.kept, b.kept)
        assert a.rounds == b.rounds

    def test_noise_stds_default_from_covariance(self):
        phi, x, loc, y, stds = _problem(seed=2, noise=0.05)
        y = y.copy()
        y[9] += 30.0
        robust = robust_reconstruct(
            _make_fit(phi), y, loc, covariance=np.diag(stds**2), mode="trim"
        )
        assert 9 in robust.rejected_rows


class TestHuber:
    def test_downweights_planted_outlier(self):
        phi, x, loc, y, stds = _problem(seed=3, noise=0.05)
        y = y.copy()
        y[6] += 40.0
        fit = _make_fit(phi)
        cov = np.diag(stds**2)
        naive, _ = fit(y, loc, cov)
        robust = robust_reconstruct(
            fit, y, loc, covariance=cov, noise_stds=stds, mode="huber"
        )
        assert robust.weights[6] < 0.5
        honest = np.delete(robust.weights, 6)
        assert np.median(honest) > 0.9
        assert robust.result.relative_error(x) < naive.relative_error(x)

    def test_rejected_rows_are_low_weight_rows(self):
        phi, x, loc, y, stds = _problem(seed=4, noise=0.05)
        y = y.copy()
        y[3] += 40.0
        robust = robust_reconstruct(
            _make_fit(phi),
            y,
            loc,
            covariance=np.diag(stds**2),
            noise_stds=stds,
            mode="huber",
        )
        assert np.array_equal(
            robust.rejected_rows, np.flatnonzero(robust.weights < 0.5)
        )
        mask = robust.row_rejected()
        assert mask.dtype == bool and mask.size == y.size
        assert bool(mask[3])

    def test_huber_keeps_every_row(self):
        phi, x, loc, y, stds = _problem(seed=8, noise=0.05)
        y = y.copy()
        y[0] += 40.0
        robust = robust_reconstruct(
            _make_fit(phi),
            y,
            loc,
            covariance=np.diag(stds**2),
            noise_stds=stds,
            mode="huber",
        )
        assert bool(robust.kept.all())  # soft mode never hard-drops


class TestVarianceVectorForm:
    """The covariance travels as a 1-D variance vector; ``np.diag`` of
    it is the same model and must screen and fit the same."""

    @pytest.mark.parametrize("mode", ["trim", "huber"])
    @pytest.mark.parametrize("solver", ["chs", "omp"])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_vector_equals_diag(self, mode, solver, seed):
        rng = np.random.default_rng(seed)
        phi, x, loc, y, _ = _problem(seed=seed, noise=0.05)
        stds = rng.uniform(0.1, 0.5, size=y.size)
        y = y.copy()
        bad = rng.choice(y.size, size=3, replace=False)
        y[bad] += 40.0
        stds[bad[0]] = 0.01  # one liar also understates its noise

        def fit(values, locations, covariance):
            result = reconstruct(
                values, locations, phi, solver=solver,
                sparsity=min(6, values.size), covariance=covariance,
            )
            return result, result.x_hat

        vector = robust_reconstruct(
            fit, y, loc, covariance=stds**2, mode=mode
        )
        matrix = robust_reconstruct(
            fit, y, loc, covariance=np.diag(stds**2), mode=mode
        )
        assert np.array_equal(vector.kept, matrix.kept)
        assert np.array_equal(vector.rejected_rows, matrix.rejected_rows)
        assert vector.rounds == matrix.rounds
        assert np.array_equal(vector.result.support, matrix.result.support)
        assert np.allclose(
            vector.result.coefficients, matrix.result.coefficients,
            atol=1e-10,
        )
        assert np.allclose(vector.weights, matrix.weights, atol=1e-10)
        assert np.allclose(vector.scales, matrix.scales, atol=1e-10)

    def test_default_noise_stds_from_either_form(self):
        phi, x, loc, y, stds = _problem(seed=5, noise=0.05)
        for covariance in (stds**2, np.diag(stds**2)):
            robust = robust_reconstruct(
                _make_fit(phi), y, loc, covariance=covariance, mode="trim"
            )
            assert np.all(robust.scales >= stds - 1e-15)


class TestValidation:
    def test_modes_tuple(self):
        assert ROBUST_MODES == ("none", "trim", "huber")

    def test_unknown_mode(self):
        phi, x, loc, y, stds = _problem()
        with pytest.raises(ValueError, match="mode"):
            robust_reconstruct(_make_fit(phi), y, loc, mode="median")

    def test_bad_threshold(self):
        phi, x, loc, y, stds = _problem()
        with pytest.raises(ValueError, match="threshold"):
            robust_reconstruct(_make_fit(phi), y, loc, threshold=0.0)

    def test_bad_max_rounds(self):
        phi, x, loc, y, stds = _problem()
        with pytest.raises(ValueError, match="max_rounds"):
            robust_reconstruct(_make_fit(phi), y, loc, max_rounds=0)

    def test_robustfit_dataclass_roundtrip(self):
        phi, x, loc, y, stds = _problem(seed=6, noise=0.05)
        robust = robust_reconstruct(
            _make_fit(phi),
            y,
            loc,
            covariance=np.diag(stds**2),
            noise_stds=stds,
            mode="trim",
        )
        assert isinstance(robust, RobustFit)
        assert robust.mode == "trim"
        assert robust.scales.shape == y.shape
