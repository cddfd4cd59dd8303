"""Joint spatio-temporal compressive sensing.

The paper's stated differentiator (Section 3): "the use of configurable
compressive sensing at each node enables the unique ability to jointly
perform spatio-temporal compressive sensing of both physical and virtual
sensors", and Section 4 handles "spatio-temporal sparse fields".

A space-time block of T snapshots of an N-point field is a vector of
length T*N that is sparse in the **Kronecker basis**
``Phi_time (x) Phi_space``: physical fields are smooth in space *and*
temporally correlated, so their space-time spectrum concentrates in the
low corner of both axes.  Jointly reconstructing the whole block from
samples scattered across space *and* time beats reconstructing each
snapshot independently at the same total budget, because each sample
constrains every snapshot through the temporal modes.

For tractability the joint solve is run via the same greedy machinery as
everything else; the Kronecker structure is only used to *build* the
dictionary columns lazily for the sampled rows, never the full
(T*N) x (T*N) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import dct_basis
from .omp import _pursue

__all__ = [
    "SpaceTimeSample",
    "SpaceTimeResult",
    "spacetime_index",
    "reconstruct_spacetime",
]


@dataclass(frozen=True)
class SpaceTimeSample:
    """One measurement: field value at spatial cell ``location`` during
    snapshot ``snapshot``."""

    snapshot: int
    location: int
    value: float


@dataclass
class SpaceTimeResult:
    """Joint reconstruction output."""

    block: np.ndarray  # (T, N): reconstructed snapshots as rows
    support: np.ndarray
    residual_norm: float
    m: int

    @property
    def t(self) -> int:
        return self.block.shape[0]

    @property
    def n(self) -> int:
        return self.block.shape[1]


def spacetime_index(snapshot: int, location: int, n: int) -> int:
    """Flat index of (snapshot t, cell k) in the vectorised block.

    The block stacks snapshots: index = t * N + k.
    """
    if location < 0 or location >= n:
        raise IndexError("spatial location out of range")
    if snapshot < 0:
        raise IndexError("snapshot must be non-negative")
    return snapshot * n + location


def _sampled_dictionary(
    samples: list[SpaceTimeSample],
    phi_time: np.ndarray,
    phi_space: np.ndarray,
) -> np.ndarray:
    """Rows of ``Phi_time (x) Phi_space`` at the sampled (t, k) pairs.

    Row for sample (t, k) is ``kron(phi_time[t, :], phi_space[k, :])`` —
    built directly, size M x (T*N), never materialising the full square
    Kronecker matrix.
    """
    rows = [
        np.kron(phi_time[s.snapshot, :], phi_space[s.location, :])
        for s in samples
    ]
    return np.vstack(rows)


def reconstruct_spacetime(
    samples: list[SpaceTimeSample],
    t: int,
    n: int,
    *,
    sparsity: int | None = None,
    phi_space: np.ndarray | None = None,
    center: bool = True,
    max_iterations: int | None = None,
) -> SpaceTimeResult:
    """Jointly reconstruct a T x N space-time block from scattered samples.

    Parameters
    ----------
    samples:
        Measurements at arbitrary (snapshot, cell) pairs.  Different
        snapshots may sample entirely different cells — that is the
        point: temporal correlation stitches them together.
    t / n:
        Block dimensions (snapshots x cells).
    sparsity:
        Space-time sparsity budget K (default ``max(4, M // 3)``).
    phi_space:
        Spatial basis (default 1-D DCT over the vectorised field; pass
        :func:`repro.core.basis.dct2_basis` output for 2-D fields).
    center:
        Subtract the sample mean first (physical-field baseline).
    max_iterations:
        Cap on greedy iterations (default: the sparsity budget).

    Returns
    -------
    :class:`SpaceTimeResult` with the reconstructed (T, N) block.
    """
    if t < 1 or n < 1:
        raise ValueError("block dimensions must be positive")
    if not samples:
        raise ValueError("need at least one sample")
    for s in samples:
        if s.snapshot >= t:
            raise IndexError(f"sample snapshot {s.snapshot} >= T={t}")
        if not 0 <= s.location < n:
            raise IndexError(f"sample location {s.location} out of range")
    seen = {(s.snapshot, s.location) for s in samples}
    if len(seen) != len(samples):
        raise ValueError("duplicate (snapshot, location) samples")

    m = len(samples)
    phi_time = dct_basis(t)
    if phi_space is None:
        phi_space = dct_basis(n)
    phi_space = np.asarray(phi_space, dtype=float)
    if phi_space.shape != (n, n):
        raise ValueError(f"spatial basis must be ({n}, {n})")

    y = np.array([s.value for s in samples], dtype=float)
    baseline = float(y.mean()) if center else 0.0
    y_work = y - baseline

    dictionary = _sampled_dictionary(samples, phi_time, phi_space)
    k = sparsity if sparsity is not None else max(4, m // 3)
    k = min(k, max(m - 1, 1))
    iterations_cap = max_iterations if max_iterations is not None else k

    # OMP over the sampled Kronecker rows — the shared pursuit loop,
    # with the same matched-filter normalisation as CHS.
    column_norms = np.linalg.norm(dictionary, axis=0)
    column_norms = np.where(column_norms > 1e-12, column_norms, np.inf)
    support, coefficients, residual, _ = _pursue(
        dictionary, y_work, max(k, 1), 1e-9, None, column_norms,
        max_iterations=min(k, iterations_cap),
    )
    # Synthesise the block: X = Phi_time @ A @ Phi_space^T where
    # vec_rows(X) = kron(Phi_time, Phi_space) @ alpha with row-stacking.
    alpha_matrix = coefficients.reshape(t, n)
    block = phi_time @ alpha_matrix @ phi_space.T + baseline
    return SpaceTimeResult(
        block=block,
        support=np.sort(support),
        residual_norm=float(np.linalg.norm(residual)),
        m=m,
    )
