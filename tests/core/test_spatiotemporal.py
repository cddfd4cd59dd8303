"""Tests for joint spatio-temporal compressive sensing."""

import numpy as np
import pytest

from repro.core import metrics
from repro.core.basis import dct2_basis, dct_basis
from repro.core.reference import omp_reference
from repro.core.spatiotemporal import (
    SpaceTimeSample,
    _sampled_dictionary,
    reconstruct_spacetime,
    spacetime_index,
)
from repro.fields.generators import smooth_field
from repro.fields.temporal import ar1_evolution, evolve_field


def _block(w=8, h=8, t=8, rho=0.97, seed=0):
    initial = smooth_field(w, h, cutoff=0.2, amplitude=4.0, offset=20.0, rng=seed)
    trace = evolve_field(
        initial, ar1_evolution(rho=rho, innovation_std=0.05),
        steps=t - 1, rng=seed + 1,
    )
    return trace.matrix()  # (T, N)


def _scatter_samples(block, m, seed):
    t, n = block.shape
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m:
        pairs.add((int(rng.integers(t)), int(rng.integers(n))))
    return [SpaceTimeSample(ts, k, block[ts, k]) for ts, k in sorted(pairs)]


class TestSpacetimeIndex:
    def test_layout(self):
        assert spacetime_index(0, 0, n=10) == 0
        assert spacetime_index(2, 3, n=10) == 23

    def test_bounds(self):
        with pytest.raises(IndexError):
            spacetime_index(0, 10, n=10)
        with pytest.raises(IndexError):
            spacetime_index(-1, 0, n=10)


class TestJointReconstruction:
    def test_recovers_correlated_block(self):
        block = _block()
        samples = _scatter_samples(block, 96, seed=2)
        result = reconstruct_spacetime(
            samples, *block.shape, phi_space=dct2_basis(8, 8), sparsity=24
        )
        err = metrics.relative_error(block.ravel(), result.block.ravel())
        assert err < 0.02
        assert result.m == 96

    def test_joint_solve_matches_the_omp_oracle(self):
        # The joint solve is the shared pursuit loop over the sampled
        # Kronecker rows: same atoms and block as the seed's
        # from-scratch OMP on that dictionary.
        block = _block()
        t, n = block.shape
        samples = _scatter_samples(block, 96, seed=2)
        phi_time, phi_space = dct_basis(t), dct2_basis(8, 8)
        result = reconstruct_spacetime(
            samples, t, n, phi_space=phi_space, sparsity=24
        )
        y = np.array([s.value for s in samples])
        ref = omp_reference(
            _sampled_dictionary(samples, phi_time, phi_space), y - y.mean(), 24
        )
        assert np.array_equal(result.support, np.sort(ref.support))
        expected = phi_time @ ref.coefficients.reshape(t, n) @ phi_space.T
        assert np.allclose(result.block, expected + y.mean(), atol=1e-8)

    def test_beats_per_snapshot_at_equal_budget(self):
        """The paper's joint spatio-temporal claim: exploiting temporal
        correlation beats snapshot-by-snapshot reconstruction."""
        from repro.core.reconstruction import reconstruct
        from repro.core.sampling import random_locations

        block = _block(seed=3)
        t, n = block.shape
        budget = 96
        phi_space = dct2_basis(8, 8)

        samples = _scatter_samples(block, budget, seed=4)
        joint = reconstruct_spacetime(
            samples, t, n, phi_space=phi_space, sparsity=24
        )
        joint_err = metrics.relative_error(block.ravel(), joint.block.ravel())

        per = []
        for ts in range(t):
            loc = random_locations(n, budget // t, 100 + ts)
            r = reconstruct(
                block[ts, loc], loc, phi_space, solver="chs",
                sparsity=6, center=True,
            )
            per.append(r.x_hat)
        per_err = metrics.relative_error(
            block.ravel(), np.asarray(per).ravel()
        )
        assert joint_err < per_err

    def test_handles_snapshots_with_zero_samples(self):
        """Temporal modes fill in a snapshot nobody sampled at all."""
        block = _block(seed=5)
        t, n = block.shape
        rng = np.random.default_rng(6)
        samples = []
        for ts in range(t):
            if ts == 3:
                continue  # nobody reported during snapshot 3
            for k in rng.choice(n, size=14, replace=False).tolist():
                samples.append(SpaceTimeSample(ts, int(k), block[ts, int(k)]))
        result = reconstruct_spacetime(
            samples, t, n, phi_space=dct2_basis(8, 8), sparsity=20
        )
        missing_err = metrics.relative_error(block[3], result.block[3])
        assert missing_err < 0.05

    def test_duplicate_samples_rejected(self):
        block = _block(seed=7)
        s = SpaceTimeSample(0, 0, block[0, 0])
        with pytest.raises(ValueError, match="duplicate"):
            reconstruct_spacetime([s, s], *block.shape)

    def test_out_of_range_samples(self):
        block = _block(seed=8)
        t, n = block.shape
        with pytest.raises(IndexError):
            reconstruct_spacetime(
                [SpaceTimeSample(t, 0, 1.0)], t, n
            )
        with pytest.raises(IndexError):
            reconstruct_spacetime(
                [SpaceTimeSample(0, n, 1.0)], t, n
            )

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            reconstruct_spacetime([], 4, 16)

    def test_default_spatial_basis(self):
        block = _block(seed=9)
        samples = _scatter_samples(block, 80, seed=10)
        result = reconstruct_spacetime(samples, *block.shape, sparsity=20)
        assert result.block.shape == block.shape
