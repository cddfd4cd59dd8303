"""Per-shard seed streams from the basis registry.

Pins the :func:`repro.core.registry.spawn_shard_seeds` stream hygiene
that reprolint rule RPR009 exists to enforce.
"""

import numpy as np
import pytest

from repro.core.registry import spawn_shard_seeds


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

    def test_spawn_shard_seeds_validates_count(self):
        with pytest.raises(ValueError):
            spawn_shard_seeds(5, -1)
