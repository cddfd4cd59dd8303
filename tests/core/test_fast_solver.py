"""Equivalence properties: the solver core vs the seed oracles.

The contract is that everything the shipped solvers do differently from
the seed — matrix-free adjoint correlation, operator bases, the shared
projection-update pursuit loop, argpartition top-k — is a pure
performance change: same supports, same coefficients (to 1e-8), same
reconstructions as the seed implementations kept verbatim in
:mod:`repro.core.reference`.  Hypothesis drives randomised problem
instances through ``chs``/``omp`` and ``chs_reference``/``omp_reference``
and compares.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_triangular

from repro.core.basis import dct_basis
from repro.core.chs import (
    chs,
    linear_interpolate,
    nearest_interpolate,
    zero_fill_interpolate,
)
from repro.core.incremental import (
    IncrementalQR,
    first_max_index,
    top_k_indices,
)
from repro.core.omp import omp
from repro.core.operators import DCT2Operator, DCTOperator
from repro.core.reconstruction import reconstruct
from repro.core.reference import chs_reference, omp_reference


def _problem(n, m, k, seed, noise=0.0):
    """A compressible random instance: K-sparse DCT field sampled at M."""
    rng = np.random.default_rng(seed)
    phi = dct_basis(n)
    alpha = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    alpha[support] = rng.standard_normal(k) * 3.0
    x = phi @ alpha
    locations = np.sort(rng.choice(n, size=m, replace=False))
    x_s = x[locations] + noise * rng.standard_normal(m)
    return phi, x, x_s, locations


class TestFastCHSEquivalence:
    # Pinned: instances where two atoms are aliases on the sampled rows
    # and rounding alone used to pick different ones on the two sides.
    @example(seed=26190)
    @example(seed=46762)
    @example(seed=58458)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference_default_interpolator(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(2, max(3, m // 3)))
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.01)
        fast = chs(phi, x_s, locations, max_sparsity=k + 2)
        ref = chs_reference(phi, x_s, locations, max_sparsity=k + 2)
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)
        assert np.allclose(fast.reconstruction, ref.reconstruction, atol=1e-8)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_fast_matches_reference_with_covariance(self, seed):
        rng = np.random.default_rng(seed)
        n, m, k = 48, 20, 5
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.05)
        covariance = np.diag(rng.uniform(0.01, 0.3, size=m) ** 2)
        fast = chs(
            phi, x_s, locations, max_sparsity=k + 1, covariance=covariance
        )
        ref = chs_reference(
            phi, x_s, locations, max_sparsity=k + 1, covariance=covariance
        )
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    @pytest.mark.parametrize(
        "interpolator", [linear_interpolate, nearest_interpolate]
    )
    def test_fast_matches_reference_non_adjoint_interpolators(
        self, interpolator
    ):
        # Non-adjoint interpolators keep the dense analysis path; the
        # remaining fast machinery (top-k, incremental refit) must still
        # reproduce the reference exactly.
        for seed in range(8):
            phi, _, x_s, locations = _problem(64, 24, 5, seed, noise=0.02)
            fast = chs(
                phi, x_s, locations, max_sparsity=6,
                interpolator=interpolator,
            )
            ref = chs_reference(
                phi, x_s, locations, max_sparsity=6,
                interpolator=interpolator,
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_operator_basis_matches_dense_basis(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        phi, _, x_s, locations = _problem(n, m, 4, seed, noise=0.01)
        dense = chs(phi, x_s, locations, max_sparsity=6)
        operator = chs(DCTOperator(n), x_s, locations, max_sparsity=6)
        assert np.array_equal(dense.support, operator.support)
        assert np.allclose(
            dense.reconstruction, operator.reconstruction, atol=1e-8
        )

    def test_batched_selection_matches_reference(self):
        for seed in range(6):
            phi, _, x_s, locations = _problem(80, 32, 8, seed, noise=0.02)
            fast = chs(phi, x_s, locations, max_sparsity=9, batch_size=3)
            ref = chs_reference(
                phi, x_s, locations, max_sparsity=9, batch_size=3
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    def test_batched_selection_with_variance_vector_matches_reference(self):
        # Three atoms admitted per pass, each projected out of the
        # whitened residual in turn.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            phi, _, x_s, locations = _problem(80, 32, 8, seed, noise=0.02)
            variances = rng.uniform(0.01, 0.3, size=32) ** 2
            fast = chs(
                phi, x_s, locations, max_sparsity=9, batch_size=3,
                covariance=variances,
            )
            ref = chs_reference(
                phi, x_s, locations, max_sparsity=9, batch_size=3,
                covariance=variances,
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)
            assert np.allclose(
                fast.residual_history, ref.residual_history, atol=1e-8
            )

    @pytest.mark.parametrize("kind", ["vector", "full"])
    def test_duplicated_column_takes_degenerate_fallback(self, kind):
        # The OMP case below, through chs: a square "basis" whose column
        # 4 repeats column 1 (the rest are empty, so the five live atoms
        # are what a cap of 5 admits).  Under GLS the twin keeps a solid
        # correlation, is admitted, and the loop must switch to the
        # reference's minimum-norm lstsq refit.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = 13
            phi = np.zeros((n, n))
            phi[:, :4] = rng.standard_normal((n, 4))
            phi[:, 4] = phi[:, 1]
            locations = np.arange(n - 1)
            x_s = rng.standard_normal(n - 1)
            covariance = _covariance(kind, n - 1, rng)
            fast = chs(
                phi, x_s, locations, max_sparsity=5, covariance=covariance
            )
            ref = chs_reference(
                phi, x_s, locations, max_sparsity=5, covariance=covariance
            )
            assert sorted(fast.support.tolist()) == [0, 1, 2, 3, 4]
            # Same selection order, up to which twin goes first.
            twinless = np.where(fast.support == 4, 1, fast.support)
            assert np.array_equal(
                twinless, np.where(ref.support == 4, 1, ref.support)
            )
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)
            assert np.isclose(fast.coefficients[1], fast.coefficients[4])
            assert np.allclose(
                fast.reconstruction, ref.reconstruction, atol=1e-8
            )
            assert np.allclose(
                fast.residual_history, ref.residual_history, atol=1e-8
            )


class TestOnePursuitLoop:
    """``chs`` and ``omp`` are wrappers over one loop: with the zero-fill
    lift and one atom per pass, CHS *is* OMP on the sampled rows."""

    @pytest.mark.parametrize("kind", ["none", "vector", "full"])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_chs_zero_fill_is_omp_on_the_sampled_rows(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(2, max(3, m // 3)))
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.02)
        covariance = _covariance(kind, m, rng)
        cap = min(k + 2, m - 1)
        via_chs = chs(
            phi, x_s, locations, max_sparsity=cap, tol=1e-7,
            covariance=covariance,
        )
        via_omp = omp(
            phi[locations, :], x_s, sparsity=cap, tol=1e-7,
            covariance=covariance,
        )
        assert np.array_equal(via_chs.support, via_omp.support)
        assert np.allclose(
            via_chs.coefficients, via_omp.coefficients, atol=1e-10
        )
        assert via_chs.residual_history == via_omp.residual_history

    def test_engine_keyword_is_gone(self):
        phi, _, x_s, locations = _problem(32, 12, 3, 0)
        with pytest.raises(TypeError):
            omp(phi[locations, :], x_s, sparsity=3, engine="fast")
        with pytest.raises(TypeError):
            chs(phi, x_s, locations, engine="reference")
        with pytest.raises(TypeError):
            reconstruct(x_s, locations, phi, engine="fast")

    def test_chs_solve_samples_the_basis_rows_once(self, monkeypatch):
        calls = []
        rows = DCTOperator.rows

        def counting(self, locations):
            calls.append(len(locations))
            return rows(self, locations)

        monkeypatch.setattr(DCTOperator, "rows", counting)
        phi, _, x_s, locations = _problem(48, 20, 4, 3, noise=0.02)
        reconstruct(x_s, locations, DCTOperator(48), solver="chs", sparsity=5)
        assert calls == [20]


class TestFastOMPEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(2, max(3, m // 3)))
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.02)
        phi_rows = phi[locations, :]
        fast = omp(phi_rows, x_s, sparsity=k)
        ref = omp_reference(phi_rows, x_s, k)
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    def test_fast_matches_reference_with_covariance(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            phi, _, x_s, locations = _problem(48, 20, 5, seed, noise=0.05)
            covariance = np.diag(rng.uniform(0.01, 0.3, size=20) ** 2)
            fast = omp(
                phi[locations, :], x_s, sparsity=5, covariance=covariance
            )
            ref = omp_reference(
                phi[locations, :], x_s, 5, covariance=covariance
            )
            assert np.array_equal(fast.support, ref.support)
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)

    @pytest.mark.parametrize("kind", ["none", "vector", "full"])
    # Pinned: DCT atoms 0 and 16 (N = 24) coincide on the sampled rows;
    # the two sides used to split them on rounding.
    @example(seed=1700)
    @example(seed=36909)
    @example(seed=59521)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_projection_loop_matches_reference(self, kind, seed):
        # The fast loop never refits: residuals come from projections
        # and the coefficients from one triangular solve at the end.
        # Same support and coefficients as the from-scratch reference,
        # under OLS, a variance vector and a correlated full matrix.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(2, max(3, m // 3)))
        phi, _, x_s, locations = _problem(n, m, k, seed, noise=0.02)
        covariance = _covariance(kind, m, rng)
        fast = omp(phi[locations, :], x_s, sparsity=k, covariance=covariance)
        ref = omp_reference(phi[locations, :], x_s, k, covariance=covariance)
        assert np.array_equal(fast.support, ref.support)
        assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)
        assert np.allclose(
            fast.residual_history, ref.residual_history, atol=1e-8
        )

    @pytest.mark.parametrize("kind", ["vector", "full"])
    def test_duplicated_column_takes_degenerate_fallback(self, kind):
        # A dictionary with a repeated column.  Under GLS the residual
        # is orthogonal to the selected atoms in the V^-1 inner product,
        # not the plain one selection correlates in, so the twin of a
        # selected atom keeps a solid correlation and is admitted —
        # an exactly dependent column.  The loop must then fall back to
        # the reference's minimum-norm lstsq refit (which splits the
        # weight across the twins) instead of dividing by ~0.  (Under
        # OLS the twin's correlation is rounding noise, possibly exactly
        # zero, so whether it is ever admitted is not defined.)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = 12
            columns = rng.standard_normal((m, 4))
            dictionary = np.column_stack([columns, columns[:, 1]])
            x_s = rng.standard_normal(m)
            covariance = _covariance(kind, m, rng)
            fast = omp(dictionary, x_s, sparsity=5, covariance=covariance)
            ref = omp_reference(dictionary, x_s, 5, covariance=covariance)
            assert sorted(fast.support.tolist()) == [0, 1, 2, 3, 4]
            # Same selection order, up to which twin goes first (an
            # exact tie that rounding breaks).
            twinless = np.where(fast.support == 4, 1, fast.support)
            assert np.array_equal(
                twinless, np.where(ref.support == 4, 1, ref.support)
            )
            assert np.allclose(fast.coefficients, ref.coefficients, atol=1e-8)
            assert np.isclose(fast.coefficients[1], fast.coefficients[4])
            assert np.allclose(
                fast.residual_history, ref.residual_history, atol=1e-8
            )


class TestNoiseStop:
    """``stop_at_noise`` against an oracle built from the seed loop: the
    support ``omp_reference`` picks at the cap, cut before the first
    atom whose GLS refit lowers the whitened RSS by less than 2 ln N."""

    @staticmethod
    def _oracle(rows, x_s, cap, variance):
        n = rows.shape[1]
        scale = np.broadcast_to(1.0 / np.sqrt(variance), x_s.shape)
        y = x_s * scale
        ref = omp_reference(rows, x_s, cap, covariance=variance)
        prefix, alpha, rss = [], np.zeros(0), float(y @ y)
        drops = []
        for j in ref.support.tolist():
            atoms = rows[:, prefix + [j]] * scale[:, None]
            fit, *_ = np.linalg.lstsq(atoms, y, rcond=None)
            left = y - atoms @ fit
            drops.append(rss - float(left @ left))
            if drops[-1] < 2 * np.log(n):
                break
            prefix, alpha, rss = prefix + [j], fit, float(left @ left)
        coefficients = np.zeros(n)
        coefficients[prefix] = alpha
        return ref, prefix, coefficients, drops

    @pytest.mark.parametrize("kind", ["vector", "scalar"])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_stop_is_the_reference_support_cut_at_the_penalty(
        self, kind, seed
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 96))
        m = int(rng.integers(max(8, n // 4), max(10, n // 2)))
        k = int(rng.integers(1, max(2, m // 4)))
        phi, x, _, locations = _problem(n, m, k, seed)
        stds = rng.uniform(0.05, 0.6, size=m)
        x_s = x[locations] + stds * rng.standard_normal(m)
        variance = stds**2 if kind == "vector" else float(np.median(stds**2))
        rows = phi[locations, :]
        cap = min(k + 4, m - 1)
        _, prefix, coefficients, drops = self._oracle(
            rows, x_s, cap, variance
        )
        # A drop within rounding of the penalty has no defined side.
        assume(all(abs(d - 2 * np.log(n)) > 1e-6 for d in drops))
        fast = omp(rows, x_s, cap, covariance=variance, stop_at_noise=True)
        assert fast.support.tolist() == prefix
        assert np.allclose(fast.coefficients, coefficients, atol=1e-10)
        assert fast.iterations == len(fast.residual_history) == len(prefix)

    def test_dependent_atom_ends_the_pursuit(self):
        # The duplicated-column dictionary above: under GLS the seed
        # loop admits the twin, which lowers the RSS by nothing.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = 12
            columns = rng.standard_normal((m, 4))
            dictionary = np.column_stack([columns, columns[:, 1]])
            x_s = rng.standard_normal(m)
            variance = _covariance("vector", m, rng)
            ref, prefix, coefficients, _ = self._oracle(
                dictionary, x_s, 5, variance
            )
            assert 4 in ref.support.tolist() and 4 not in prefix
            fast = omp(
                dictionary, x_s, 5, covariance=variance, stop_at_noise=True
            )
            assert fast.support.tolist() == prefix
            assert np.allclose(fast.coefficients, coefficients, atol=1e-10)

    def test_pure_noise_admits_nothing(self):
        rng = np.random.default_rng(3)
        phi = dct_basis(64)
        x_s = 0.2 * rng.standard_normal(32)
        fast = omp(
            phi[:32, :], x_s, 8, covariance=0.04, stop_at_noise=True
        )
        assert fast.support.size == 0
        assert not fast.coefficients.any()

    def test_needs_a_covariance(self):
        phi, _, x_s, locations = _problem(32, 12, 3, 0)
        with pytest.raises(ValueError, match="covariance"):
            omp(phi[locations, :], x_s, 3, stop_at_noise=True)


def _covariance(kind, m, rng):
    """None, a variance vector, or a correlated (non-diagonal) matrix."""
    if kind == "none":
        return None
    stds = rng.uniform(0.01, 0.3, size=m)
    if kind == "vector":
        return stds**2
    lag = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return stds[:, None] * 0.4**lag * stds[None, :]


class TestVarianceVectorForm:
    """A variance vector and ``np.diag`` of it are the same covariance:
    same support, coefficients within 1e-10, through every solver entry
    that accepts one (the robust wrappers are pinned in test_robust)."""

    @staticmethod
    def _assert_same(a, b):
        assert np.array_equal(a.support, b.support)
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_omp_chs_reconstruct(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(32, 96))
        m = int(rng.integers(max(10, n // 4), max(12, n // 2)))
        phi, _, x_s, locations = _problem(n, m, 4, seed, noise=0.05)
        variances = rng.uniform(0.01, 0.3, size=m) ** 2
        matrix = np.diag(variances)
        rows = phi[locations, :]
        self._assert_same(
            omp(rows, x_s, sparsity=5, covariance=variances),
            omp(rows, x_s, sparsity=5, covariance=matrix),
        )
        self._assert_same(
            chs(phi, x_s, locations, max_sparsity=5, covariance=variances),
            chs(phi, x_s, locations, max_sparsity=5, covariance=matrix),
        )
        for solver in ("chs", "omp", "gls"):
            self._assert_same(
                reconstruct(
                    x_s, locations, phi, solver=solver, sparsity=5,
                    covariance=variances, center=True,
                ),
                reconstruct(
                    x_s, locations, phi, solver=solver, sparsity=5,
                    covariance=matrix, center=True,
                ),
            )

    def test_omp_at_bench_scale(self):
        # The N=4096-class shape that used to run a separate loop.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            phi, _, x_s, locations = _problem(2304, 128, 12, seed, noise=0.05)
            variances = rng.uniform(0.01, 0.3, size=128) ** 2
            rows = phi[locations, :]
            vector = omp(rows, x_s, sparsity=14, covariance=variances)
            self._assert_same(
                vector,
                omp(rows, x_s, sparsity=14, covariance=np.diag(variances)),
            )
            ref = omp_reference(rows, x_s, 14, covariance=variances)
            assert np.array_equal(vector.support, ref.support)
            assert np.allclose(
                vector.coefficients, ref.coefficients, atol=1e-8
            )


class TestTopKIndices:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        # Quantised scores force ties to exercise the tie-break path.
        scores = np.round(rng.standard_normal(n), 1)
        if n > 4:
            scores[rng.choice(n, size=n // 4, replace=False)] = -np.inf
        k = int(rng.integers(1, n + 1))
        order = np.lexsort((np.arange(n), -scores))
        expected = [int(i) for i in order if np.isfinite(scores[i])][:k]
        assert top_k_indices(scores, k).tolist() == expected

    def test_empty_when_all_masked(self):
        assert top_k_indices(np.full(5, -np.inf), 3).size == 0


class TestFirstMaxIndex:
    def test_rounding_tie_goes_to_lower_index(self):
        # Two aliased atoms: equal in exact arithmetic, the later one a
        # rounding step above.  argmax takes the later one.
        scores = np.array([0.1, 0.48078093, 0.2, np.nextafter(0.48078093, 1)])
        assert int(np.argmax(scores)) == 3
        assert first_max_index(scores) == 1

    def test_clear_winner_kept(self):
        scores = np.array([0.5, 0.5 * (1 - 1e-6), 0.7, -np.inf])
        assert first_max_index(scores) == 2

    def test_stopping_signals_returned_as_argmax(self):
        # All masked, all zero or a NaN: what argmax returns, so the
        # caller's "nothing worth admitting" check sees it.
        for scores in (
            np.full(4, -np.inf),
            np.zeros(4),
            np.array([0.2, np.nan, 0.9]),
        ):
            assert first_max_index(scores) == int(np.argmax(scores))


class TestIncrementalQR:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_lstsq_column_by_column(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 40))
        k = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, k))
        y = rng.standard_normal(m)
        inc = IncrementalQR(m, capacity=k)
        for j in range(k):
            inc.add_column(a[:, j])
            direct, *_ = np.linalg.lstsq(a[:, : j + 1], y, rcond=None)
            assert np.allclose(inc.solve(y), direct, atol=1e-8)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_is_bit_equal_to_solve_triangular(self, seed, scale):
        # solve() calls LAPACK dtrtrs directly; it must return what
        # scipy's solve_triangular returns on the same factor, bit for
        # bit, at every k up to the full (contiguous) capacity.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40))
        capacity = int(rng.integers(1, m + 1))
        a = scale * rng.standard_normal((m, capacity))
        y = rng.standard_normal(m)
        inc = IncrementalQR(m, capacity=capacity)
        for k in range(1, capacity + 1):
            inc.add_column(a[:, k - 1])
            expected = solve_triangular(inc._r[:k, :k], inc._q[:, :k].T @ y)
            assert inc.solve(y).tobytes() == expected.tobytes()

    def test_solve_raises_on_a_singular_factor(self):
        inc = IncrementalQR(3, capacity=2)
        inc.add_column(np.array([1.0, 0.0, 0.0]))
        inc._r[0, 0] = 0.0
        with pytest.raises(LinAlgError):
            inc.solve(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_refuses_a_non_finite_rhs(self, bad):
        # As solve_triangular did: an error, not NaN coefficients.
        inc = IncrementalQR(3, capacity=2)
        inc.add_column(np.array([1.0, 2.0, 0.0]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            inc.solve(np.array([1.0, bad, 0.0]))

    @given(
        col=st.lists(
            st.sampled_from([0.0, -0.0, 1e-300, -2.5, 3.0, 1e150]),
            min_size=1, max_size=12,
        ).map(np.array)
    )
    @settings(max_examples=60, deadline=None)
    def test_first_column_skips_only_exact_zero_work(self, col):
        # The empty factor skips its projections; the general path run
        # on an empty Q must give the same direction and R, bit for bit.
        v = col.copy()
        q = np.zeros((col.size, 0))
        for _ in range(2):
            v -= q @ (q.T @ v)
        norm = math.sqrt(v.dot(v))
        inc = IncrementalQR(col.size, capacity=2)
        direction = inc.add_column(col)
        if norm > inc._rtol * max(math.sqrt(col.dot(col)), 1e-300):
            assert direction.tobytes() == (v / norm).tobytes()
            assert inc._r[0, 0] == norm
        else:
            assert direction is None and inc.degenerate

    def test_degenerate_column_falls_back(self):
        rng = np.random.default_rng(0)
        m = 10
        a = rng.standard_normal((m, 2))
        inc = IncrementalQR(m, capacity=3)
        inc.add_column(a[:, 0])
        inc.add_column(a[:, 1])
        inc.add_column(a[:, 0] + a[:, 1])  # exactly dependent
        assert inc.degenerate
        y = rng.standard_normal(m)
        stacked = np.column_stack([a, a[:, 0] + a[:, 1]])
        direct, *_ = np.linalg.lstsq(stacked, y, rcond=None)
        assert np.allclose(stacked @ inc.solve(y), stacked @ direct, atol=1e-8)

    def test_dropping_the_dependent_column_restores_the_factor(self):
        rng = np.random.default_rng(1)
        m = 10
        a = rng.standard_normal((m, 3))
        inc = IncrementalQR(m, capacity=3)
        inc.add_column(a[:, 0])
        inc.add_column(a[:, 1])
        assert inc.add_column(a[:, 0] - a[:, 1]) is None
        inc.drop_last()
        assert not inc.degenerate
        y = rng.standard_normal(m)
        direct, *_ = np.linalg.lstsq(a[:, :2], y, rcond=None)
        assert np.allclose(inc.solve(y), direct, atol=1e-10)
        # The freed slot takes a fresh column.
        assert inc.add_column(a[:, 2]) is not None
        direct, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert np.allclose(inc.solve(y), direct, atol=1e-10)
        with pytest.raises(ValueError):
            IncrementalQR(m, capacity=1).drop_last()


class TestNearestInterpolate:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_distance_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        m = int(rng.integers(1, n + 1))
        locations = np.sort(rng.choice(n, size=m, replace=False))
        values = rng.standard_normal(m)
        fast = nearest_interpolate(values, locations, n)
        # Seed implementation: full |grid - locations| distance matrix,
        # argmin with ties going to the first (lowest-location) column.
        distance = np.abs(
            np.arange(n)[:, None] - locations[None, :]
        )
        expected = values[np.argmin(distance, axis=1)]
        assert np.array_equal(fast, expected)


class TestCenterHoist:
    def test_centered_equals_manual_baseline_split(self):
        # reconstruct(center=True) must equal: subtract mean, solve
        # uncentered, add mean back — the identity the hoist relies on.
        for seed in range(6):
            phi, _, x_s, locations = _problem(60, 24, 5, seed, noise=0.02)
            x_s = x_s + 21.5  # physical baseline
            centered = reconstruct(
                x_s, locations, phi, solver="chs", sparsity=6, center=True
            )
            baseline = float(x_s.mean())
            manual = reconstruct(
                x_s - baseline, locations, phi, solver="chs", sparsity=6
            )
            assert np.allclose(
                centered.x_hat, manual.x_hat + baseline, atol=1e-10
            )
            assert np.array_equal(centered.support, manual.support)

    def test_reconstruct_matches_oracles(self):
        phi, _, x_s, locations = _problem(48, 20, 4, 11, noise=0.02)
        baseline = float(x_s.mean())
        centered = x_s - baseline
        oracles = {
            "chs": chs_reference(
                phi, centered, locations, max_sparsity=5
            ).reconstruction,
            "omp": phi
            @ omp_reference(phi[locations, :], centered, 5).coefficients,
        }
        for solver, x_ref in oracles.items():
            fast = reconstruct(
                x_s, locations, phi, solver=solver, sparsity=5, center=True
            )
            assert np.allclose(fast.x_hat, x_ref + baseline, atol=1e-8)

    def test_operator_reconstruct_2d(self):
        rng = np.random.default_rng(5)
        w, h = 8, 6
        op = DCT2Operator(w, h)
        phi = op.to_dense()
        alpha = np.zeros(w * h)
        alpha[[0, 3, 10]] = [40.0, 2.0, -1.5]
        x = phi @ alpha
        locations = np.sort(rng.choice(w * h, size=24, replace=False))
        dense = reconstruct(
            x[locations], locations, phi, solver="chs", sparsity=6,
            center=True,
        )
        operator = reconstruct(
            x[locations], locations, op, solver="chs", sparsity=6,
            center=True,
        )
        assert np.allclose(dense.x_hat, operator.x_hat, atol=1e-8)
