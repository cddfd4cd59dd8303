"""Dense reference implementations of the greedy solvers.

These are the seed's original CHS (Fig. 6) and OMP loops, kept verbatim
as the *specification*: the fast paths in :mod:`repro.core.chs` and
:mod:`repro.core.omp` must agree with them to <= 1e-8 on random sparse
fields (property-tested in ``tests/core/test_fast_solver.py``), and the
PERF-SOLVER bench times the two side by side so every speedup claim in
``BENCH_PERF.json`` has an honest before-arm.

The one thing the fast paths share with them is the one-atom tie rule,
:func:`~repro.core.incremental.first_max_index`: aliased atoms tie in
exact arithmetic, and the two residuals round differently, so a plain
``argmax`` on each side would let rounding pick different atoms.

Known (intentional) costs of the reference forms:

- CHS analyses the interpolated residual with a dense ``Phi.T @ e`` —
  O(N^2) per iteration even for the zero-fill interpolator whose adjoint
  structure makes the product collapse to the O(M*N) sampled-row
  correlation;
- candidate ranking is a full ``lexsort`` plus a Python scan that
  rebuilds ``set(support)`` for every one of the N candidates;
- the step-3(e) refit re-runs ``lstsq`` from scratch every iteration.
"""

from __future__ import annotations

import numpy as np

from .incremental import first_max_index
from .least_squares import gls_solve, ols_solve

__all__ = ["chs_reference", "omp_reference"]


def chs_reference(
    phi: np.ndarray,
    x_s: np.ndarray,
    locations: np.ndarray,
    *,
    max_sparsity: int | None = None,
    batch_size: int = 1,
    tol: float = 1e-6,
    max_iterations: int = 64,
    covariance: np.ndarray | None = None,
    interpolator=None,
):
    """Seed CHS implementation (dense analysis, from-scratch refits)."""
    from .chs import CHSResult, zero_fill_interpolate

    if interpolator is None:
        interpolator = zero_fill_interpolate
    phi = np.asarray(phi, dtype=float)
    x_s = np.asarray(x_s, dtype=float).ravel()
    locations = np.asarray(locations, dtype=int).ravel()
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("CHS needs the full square basis Phi")
    n = phi.shape[0]
    m = locations.size
    if x_s.size != m:
        raise ValueError(f"{x_s.size} measurements but {m} locations")
    if m == 0:
        raise ValueError("need at least one measurement")
    if np.any(locations < 0) or np.any(locations >= n):
        raise IndexError("sensor location out of field range")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if max_sparsity is None:
        max_sparsity = max(1, m - 1)
    max_sparsity = min(max_sparsity, max(1, m - 1), n)

    phi_rows = phi[locations, :]
    column_norms = np.linalg.norm(phi_rows, axis=0)
    column_norms = np.where(column_norms > 1e-12, column_norms, np.inf)
    support: list[int] = []
    alpha_sub = np.zeros(0)
    residual = x_s.copy()
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    history: list[float] = []
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        residual_full = interpolator(residual, locations, n)
        alpha_r = phi.T @ residual_full
        scores = np.abs(alpha_r) / column_norms
        order = np.lexsort((np.arange(n), -scores))
        new = [int(i) for i in order if int(i) not in set(support)]
        room = max_sparsity - len(support)
        picked = new[: min(batch_size, room)]
        if batch_size == 1 and picked:
            # The fast loop's one-atom tie rule (module docstring).
            masked = scores.copy()
            masked[support] = -np.inf
            picked = [first_max_index(masked)]
        if not picked:
            break
        support.extend(picked)
        sub = phi_rows[:, support]
        if covariance is None:
            alpha_sub = ols_solve(sub, x_s)
        else:
            alpha_sub = gls_solve(sub, x_s, covariance)
        residual = x_s - sub @ alpha_sub
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= target or len(support) >= max_sparsity:
            break

    coefficients = np.zeros(n)
    if support:
        coefficients[support] = alpha_sub
    reconstruction = phi[:, support] @ alpha_sub if support else np.zeros(n)
    return CHSResult(
        coefficients=coefficients,
        support=np.asarray(support, dtype=int),
        reconstruction=reconstruction,
        sensing_matrix=phi_rows[:, support] if support else np.zeros((m, 0)),
        residual_norm=float(np.linalg.norm(residual)),
        iterations=iterations,
        residual_history=history,
    )


def omp_reference(
    phi_tilde: np.ndarray,
    x_s: np.ndarray,
    sparsity: int,
    *,
    tol: float = 1e-9,
    covariance: np.ndarray | None = None,
):
    """Seed OMP implementation (from-scratch least-squares refits)."""
    from .omp import OMPResult

    phi_tilde = np.asarray(phi_tilde, dtype=float)
    x_s = np.asarray(x_s, dtype=float).ravel()
    if phi_tilde.ndim != 2:
        raise ValueError("dictionary must be 2-D")
    m, n = phi_tilde.shape
    if x_s.size != m:
        raise ValueError(f"measurement length {x_s.size} != dictionary rows {m}")
    if not 0 < sparsity <= min(m, n):
        raise ValueError(
            f"sparsity must be in 1..min(M, N)={min(m, n)}, got {sparsity}"
        )

    col_norms = np.linalg.norm(phi_tilde, axis=0)
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)

    residual = x_s.copy()
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    support: list[int] = []
    alpha_sub = np.zeros(0)
    history: list[float] = []

    for _ in range(sparsity):
        correlations = np.abs(phi_tilde.T @ residual) / safe_norms
        correlations[support] = -np.inf  # never reselect
        best = first_max_index(correlations)
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        support.append(best)
        sub = phi_tilde[:, support]
        if covariance is None:
            alpha_sub = ols_solve(sub, x_s)
        else:
            alpha_sub = gls_solve(sub, x_s, covariance)
        residual = x_s - sub @ alpha_sub
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= target:
            break

    coefficients = np.zeros(n)
    if support:
        coefficients[support] = alpha_sub
    return OMPResult(
        coefficients=coefficients,
        support=np.asarray(support, dtype=int),
        residual_norm=float(np.linalg.norm(residual)),
        iterations=len(support),
        residual_history=history,
    )
