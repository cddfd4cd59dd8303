"""Process-wide shared basis registry.

A deployment runs dozens of same-shaped zone brokers, and the seed had
every one of them build its own ``dct2_basis`` — 32 identical
``N x N`` Kronecker products per hierarchy.  This module memoises basis
construction per process, keyed on ``(name, n)`` for 1-D bases and
``(width, height)`` for the separable 2-D DCT, so the first broker pays
the build and every later same-shaped broker gets the cached object.

Dense matrices handed out by the registry are mutation-guarded: the
object returned is a read-only view whose writeable flag *cannot* be
re-enabled (its base is read-only), because they are *shared* and an
in-place edit by one consumer would silently corrupt every other zone's
solver.  Callers that genuinely need a private copy (none in this
package do) must ``.copy()`` explicitly.  Under ``REPRO_SANITIZE=1`` the
guard additionally checksums every shared array so the sharded city
solve can verify nothing drifted (see :mod:`repro.analysis.contracts`).

Matrix-free operator forms (:mod:`repro.core.operators`) are memoised
here too; they are cheap to build but sharing them keeps identity checks
(`a is b`) meaningful for tests and lets future operators carry cached
plans.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..analysis import contracts
from .basis import basis_by_name, dct2_basis
from .operators import BasisOperator, DCT2Operator, DCTOperator

__all__ = [
    "shared_basis",
    "shared_dct2_basis",
    "shared_operator",
    "shared_dct2_operator",
    "has_operator",
    "registry_info",
    "clear_registry",
    "spawn_shard_seeds",
    "shard_rng",
]

_OPERATOR_NAMES = ("dct",)


def _freeze(matrix: np.ndarray) -> np.ndarray:
    return contracts.guard_shared_array(matrix)


@lru_cache(maxsize=128)
def shared_basis(name: str, n: int) -> np.ndarray:
    """Memoised ``basis_by_name(name, n)``; the array is read-only."""
    return _freeze(basis_by_name(name, n))


@lru_cache(maxsize=128)
def shared_dct2_basis(width: int, height: int) -> np.ndarray:
    """Memoised ``dct2_basis(width, height)``; the array is read-only."""
    return _freeze(dct2_basis(width, height))


def has_operator(name: str) -> bool:
    """Whether a matrix-free operator form exists for a named 1-D basis."""
    return name.lower() in _OPERATOR_NAMES


@lru_cache(maxsize=128)
def shared_operator(name: str, n: int) -> BasisOperator:
    """Memoised matrix-free operator for a named 1-D basis."""
    if name.lower() == "dct":
        return DCTOperator(n)
    raise ValueError(
        f"no operator form for basis {name!r}; "
        f"expected one of {sorted(_OPERATOR_NAMES)}"
    )


@lru_cache(maxsize=128)
def shared_dct2_operator(width: int, height: int) -> DCT2Operator:
    """Memoised matrix-free separable 2-D DCT operator."""
    return DCT2Operator(width, height)


# -- per-shard RNG streams ---------------------------------------------
#
# Sharded simulations split one logical experiment across zones and
# worker processes.  Deriving each shard's stream by arithmetic on the
# root seed (seed + shard_index and friends) produces correlated or
# colliding streams; ``np.random.SeedSequence.spawn`` is the supported
# way to get provably independent children.  These two helpers are the
# *only* sanctioned way to construct a Generator for shard/worker code:
# reprolint rule RPR009 flags ``default_rng``/``Generator`` construction
# inside worker-entry functions that bypasses them.


def spawn_shard_seeds(
    root: int | np.random.SeedSequence, count: int
) -> list[np.random.SeedSequence]:
    """Derive ``count`` independent child seeds from one root seed.

    The children are stable for a given root: shard ``i`` always
    receives the same stream regardless of how many workers run or in
    which order shards are processed — the property the serial-vs-shard
    bit-identity pin relies on.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seq = (
        root
        if isinstance(root, np.random.SeedSequence)
        else np.random.SeedSequence(root)
    )
    return seq.spawn(count)


def shard_rng(
    root: int | np.random.SeedSequence, shard_index: int, count: int
) -> np.random.Generator:
    """Generator for shard ``shard_index`` of ``count`` shards.

    Convenience wrapper over :func:`spawn_shard_seeds` for callers that
    need a single shard's stream without holding all the seeds.
    """
    if not 0 <= shard_index < count:
        raise ValueError(
            f"shard_index must be in 0..{count - 1}, got {shard_index}"
        )
    return np.random.default_rng(spawn_shard_seeds(root, count)[shard_index])


def registry_info() -> dict[str, object]:
    """Cache statistics for diagnostics and tests."""
    return {
        "basis": shared_basis.cache_info(),
        "dct2_basis": shared_dct2_basis.cache_info(),
        "operator": shared_operator.cache_info(),
        "dct2_operator": shared_dct2_operator.cache_info(),
    }


def clear_registry() -> None:
    """Drop every cached basis (tests and memory-pressure hooks)."""
    shared_basis.cache_clear()
    shared_dct2_basis.cache_clear()
    shared_operator.cache_clear()
    shared_dct2_operator.cache_clear()
    contracts.reset_guards()
