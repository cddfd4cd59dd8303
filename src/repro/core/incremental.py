"""Incremental least-squares and deterministic top-k selection.

The greedy solvers (Fig. 6's CHS, OMP) grow their support one atom at a
time; the seed re-ran a dense ``lstsq`` from scratch after every
admission — O(M K^3) per solve.  :class:`IncrementalQR` maintains the
thin QR factorisation of the growing sensing matrix in O(M k) per
admitted atom and hands the pursuit loop each new unit direction, so
residuals follow by projection and the coefficients by one triangular
solve (modified Gram-Schmidt with one reorthogonalisation pass keeps
the factors orthonormal to machine precision; a near-dependent column
degrades gracefully to the dense ``lstsq`` path).

:func:`top_k_indices` is the shared selection primitive: the k
largest-scoring indices with the seed's deterministic tie-break (ties go
to the lower coefficient index — the low-frequency prior for physical
fields), computed with ``argpartition`` in O(N) instead of a full
O(N log N) ``lexsort``.  :func:`first_max_index` is its one-atom form,
where "tie" means equal up to rounding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs

__all__ = ["IncrementalQR", "first_max_index", "top_k_indices"]

#: Scores within this relative distance of the best are tied.  Two atoms
#: that coincide on the sampled rows (aliases: DCT columns 0 and 16 of
#: N = 24 when no row 1, 4, 7, ... is sampled) score the same in exact
#: arithmetic; rounding, which differs between a projected and a
#: refitted residual, must not decide which one is admitted.
TIE_RTOL = 1e-9


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ordered by descending score
    with ties broken toward the lower index.

    Entries equal to ``-inf`` are treated as masked (already-selected
    atoms) and never returned.  Exactly reproduces
    ``np.lexsort((np.arange(n), -scores))`` followed by taking the first
    ``k`` unmasked entries, at O(N + k log k) cost.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if k <= 0:
        return np.zeros(0, dtype=int)
    pool = np.flatnonzero(scores != -np.inf)
    if pool.size == 0 or k >= pool.size:
        chosen = pool
    else:
        vals = scores[pool]
        part = np.argpartition(-vals, k - 1)[:k]
        kth = vals[part].min()
        above = pool[vals > kth]
        ties = pool[vals == kth]  # flatnonzero order == ascending index
        chosen = np.concatenate([above, ties[: k - above.size]])
    if chosen.size <= 1:
        return chosen
    order = np.lexsort((chosen, -scores[chosen]))
    return chosen[order]


def first_max_index(scores: np.ndarray) -> int:
    """Index of the largest score, ties (within :data:`TIE_RTOL` of it)
    broken toward the lower index.

    Plain ``np.argmax`` when the best score is not finite and positive:
    a NaN, ``-inf`` (everything masked) or zero best is the caller's
    stopping signal and is returned as is.
    """
    best = int(scores.argmax())
    top = float(scores[best])
    if best and 0.0 < top < math.inf:
        # Only a lower index can win a tie; the slice ends at ``best``,
        # which always qualifies.
        best = int((scores[: best + 1] >= top * (1.0 - TIE_RTOL)).argmax())
    return best


class IncrementalQR:
    """Rank-1-updatable thin QR for a column-growing least-squares system.

    Parameters
    ----------
    m:
        Number of rows (measurements); fixed for the solve's lifetime.
    capacity:
        Maximum number of columns that will ever be admitted (the
        solver's sparsity cap); factors are preallocated to this size.
    rtol:
        Relative threshold under which a new column counts as linearly
        dependent on the current factor.  Once that happens the instance
        flips to a dense ``lstsq`` fallback (minimum-norm solution, the
        same behaviour the seed's from-scratch refit had).

    :meth:`drop_last` takes the newest column back, so a caller can
    look at the direction a column adds before deciding to keep it.
    """

    def __init__(self, m: int, capacity: int, rtol: float = 1e-10) -> None:
        if m <= 0:
            raise ValueError("need at least one row")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._m = int(m)
        self._capacity = int(capacity)
        self._rtol = float(rtol)
        self._q = np.zeros((m, capacity))
        self._r = np.zeros((capacity, capacity))
        self._cols = np.zeros((m, capacity))
        self._k = 0
        # Columns factored into Q; behind ``_k`` once one was dependent.
        self._rank = 0

    @property
    def degenerate(self) -> bool:
        """Whether an admitted column was dependent (solves use lstsq)."""
        return self._rank < self._k

    def add_column(self, col: np.ndarray) -> np.ndarray | None:
        """Admit one new column of the sensing matrix.

        Returns the unit direction the column adds to the factor (the
        new column of Q, read-only use) — or ``None`` once the factor
        is degenerate and solves run through ``lstsq``.
        """
        # The one contiguous copy: Gram-Schmidt runs on it in place.
        v = np.array(col, dtype=float)
        if v.shape != (self._m,):
            raise ValueError(f"column shape {v.shape} != ({self._m},)")
        if self._k >= self._capacity:
            raise ValueError("IncrementalQR capacity exceeded")
        k = self._k
        self._cols[:, k] = v
        if not self.degenerate:
            # sqrt(v.dot(v)) is np.linalg.norm(v) without the dispatch.
            col_norm = norm = math.sqrt(v.dot(v))
            if k:
                # An empty factor has nothing to project out: the four
                # matmuls below would subtract exact zeros.
                q = self._q[:, :k]
                r1 = q.T @ v
                v -= q @ r1
                # One reorthogonalisation pass ("twice is enough") keeps
                # Q orthonormal to machine precision even for long
                # supports.
                r2 = q.T @ v
                v -= q @ r2
                norm = math.sqrt(v.dot(v))
                # Unread unless the column is kept: R[:k, :k] excludes
                # it, and the next admission overwrites it.
                self._r[:k, k] = r1 + r2
            if norm > self._rtol * max(col_norm, 1e-300):
                self._r[k, k] = norm
                np.divide(v, norm, out=self._q[:, k])
                self._rank = k + 1
        self._k = k + 1
        return None if self.degenerate else self._q[:, k]

    def drop_last(self) -> None:
        """Take back the newest column, as if it had never been added.

        Dropping the column that made the factor degenerate restores the
        triangular solve: Q and R up to it were never touched.
        """
        if self._k == 0:
            raise ValueError("no column to drop")
        self._k -= 1
        self._rank = min(self._rank, self._k)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Least-squares coefficients for the currently admitted columns."""
        y = np.asarray(y, dtype=float).ravel()
        if y.size != self._m:
            raise ValueError(f"rhs length {y.size} != M={self._m}")
        k = self._k
        if k == 0:
            return np.zeros(0)
        if self.degenerate:
            alpha, *_ = np.linalg.lstsq(self._cols[:, :k], y, rcond=None)
            return alpha
        z = self._q[:, :k].T @ y
        # What scipy.linalg.solve_triangular runs for a C-ordered upper
        # factor (the transposed lower system), minus ~15 us of argument
        # checks per call.  R is finite by construction (a non-finite
        # column fails the rtol test), so only z needs the check.
        if not np.isfinite(z).all():
            raise ValueError("array must not contain infs or NaNs")
        alpha, info = dtrtrs(self._r[:k, :k].T, z, lower=1, trans=1)
        if info > 0:
            raise LinAlgError(f"singular factor at diagonal {info - 1}")
        return alpha
