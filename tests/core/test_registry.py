"""Per-shard seed streams from the basis registry.

Pins the :func:`repro.core.registry.spawn_shard_seeds` / ``shard_rng``
stream hygiene that reprolint rule RPR009 exists to enforce.
"""

import numpy as np
import pytest

from repro.core.registry import shard_rng, spawn_shard_seeds


class TestShardSeedHelpers:
    def test_spawn_shard_seeds_deterministic_and_distinct(self):
        a = spawn_shard_seeds(1234, 8)
        b = spawn_shard_seeds(1234, 8)
        assert len(a) == len(b) == 8
        for seq_a, seq_b in zip(a, b):
            assert np.array_equal(
                seq_a.generate_state(4), seq_b.generate_state(4)
            )
        states = {tuple(seq.generate_state(4)) for seq in a}
        assert len(states) == 8  # streams do not collide

    def test_spawn_accepts_seed_sequence_root(self):
        root = np.random.SeedSequence(77)
        a = spawn_shard_seeds(root, 3)
        b = np.random.SeedSequence(77).spawn(3)
        for seq_a, seq_b in zip(a, b):
            assert np.array_equal(
                seq_a.generate_state(4), seq_b.generate_state(4)
            )

    def test_shard_rng_matches_spawned_stream(self):
        direct = np.random.default_rng(spawn_shard_seeds(5, 4)[2])
        shard = shard_rng(5, 2, 4)
        assert np.array_equal(
            direct.standard_normal(16), shard.standard_normal(16)
        )

    def test_shard_rng_validates_index(self):
        with pytest.raises(ValueError):
            shard_rng(5, 4, 4)
        with pytest.raises(ValueError):
            shard_rng(5, -1, 4)
        with pytest.raises(ValueError):
            spawn_shard_seeds(5, -1)
