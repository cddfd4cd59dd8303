"""Sparsity estimation, optimal-K selection, and error decomposition.

Section 4 of the paper decomposes the total reconstruction error as

    epsilon = epsilon_a + epsilon_c + epsilon_m

(approximation error from coefficient truncation, numerical
ill-conditioning error, and measurement-noise error) and observes: "once
we have fixed M, increasing K will in general increase the reconstruction
error epsilon_c (worse conditioning) and decrease the approximation error
epsilon_a (better approximation).  Therefore, we should pick an optimal K
such that the sum epsilon is minimal."  This module provides that
machinery, plus local-sparsity estimators the hierarchical brokers use to
set per-zone compression ratios (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .least_squares import condition_number, ols_solve
from .sampling import subsample_rows

__all__ = [
    "effective_sparsity",
    "energy_sparsity",
    "best_k_term_error",
    "ErrorBudget",
    "error_decomposition",
    "select_optimal_k",
    "measurements_for_sparsity",
]


def effective_sparsity(alpha: np.ndarray, threshold: float = 1e-3) -> int:
    """Count coefficients whose magnitude exceeds ``threshold * max|alpha|``.

    This is the broker's cheap local-sparsity probe: "local sparsity is
    easy to compute" (Section 3).
    """
    alpha = np.asarray(alpha, dtype=float).ravel()
    if alpha.size == 0:
        return 0
    peak = float(np.max(np.abs(alpha)))
    if peak == 0.0:
        return 0
    return int(np.count_nonzero(np.abs(alpha) > threshold * peak))


def energy_sparsity(alpha: np.ndarray, energy: float = 0.99) -> int:
    """Smallest K whose largest-K coefficients capture ``energy`` of the
    squared-coefficient mass.  A scale-free sparsity measure used when
    comparing zones with different signal amplitude."""
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must be in (0, 1], got {energy}")
    alpha = np.asarray(alpha, dtype=float).ravel()
    power = np.sort(alpha**2)[::-1]
    total = power.sum()
    if total == 0.0:
        return 0
    cumulative = np.cumsum(power) / total
    return int(np.searchsorted(cumulative, energy) + 1)


def best_k_term_error(x: np.ndarray, phi: np.ndarray, k: int) -> float:
    """Relative error of the best K-term approximation of x in basis Phi.

    This is the irreducible approximation error epsilon_a: even a perfect
    solver cannot beat keeping the K largest transform coefficients.
    """
    x = np.asarray(x, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float)
    if not 0 <= k <= x.size:
        raise ValueError(f"k must be in 0..N, got {k}")
    alpha = phi.T @ x
    if k == 0:
        truncated = np.zeros_like(alpha)
    else:
        keep = np.argsort(np.abs(alpha))[::-1][:k]
        truncated = np.zeros_like(alpha)
        truncated[keep] = alpha[keep]
    x_k = phi @ truncated
    denom = np.linalg.norm(x)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(x - x_k) / denom)


@dataclass(frozen=True)
class ErrorBudget:
    """The epsilon = epsilon_a + epsilon_c + epsilon_m decomposition for
    one (M, K) operating point."""

    k: int
    approximation: float  # epsilon_a — best-K-term truncation error
    conditioning: float  # epsilon_c — excess error from the ill-conditioned solve
    noise: float  # epsilon_m — error contribution of measurement noise
    total: float  # achieved end-to-end relative reconstruction error
    condition_number: float

    def as_row(self) -> dict[str, float]:
        """Flat dict for bench tables."""
        return {
            "K": self.k,
            "eps_a": self.approximation,
            "eps_c": self.conditioning,
            "eps_m": self.noise,
            "eps_total": self.total,
            "cond": self.condition_number,
        }


def _reconstruct_top_k(
    x: np.ndarray,
    phi: np.ndarray,
    locations: np.ndarray,
    measurements: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle-support K-column reconstruction used by the decomposition.

    Uses the true top-K support (oracle) so the decomposition isolates
    conditioning/noise effects from support-identification failures.
    """
    alpha_true = phi.T @ x
    support = np.argsort(np.abs(alpha_true))[::-1][:k]
    phi_k = subsample_rows(phi[:, support], locations)
    alpha_k = ols_solve(phi_k, measurements)
    return phi[:, support] @ alpha_k, phi_k


def error_decomposition(
    x: np.ndarray,
    phi: np.ndarray,
    locations: np.ndarray,
    noise: np.ndarray | None,
    k: int,
) -> ErrorBudget:
    """Measure epsilon_a, epsilon_c, epsilon_m for a given K (ABL-K bench).

    Parameters
    ----------
    x:
        Ground-truth field (length N).
    phi:
        Orthonormal basis.
    locations:
        Sensor locations L (length M).
    noise:
        Per-measurement additive noise (length M) or None for noiseless.
    k:
        Number of retained coefficients.
    """
    x = np.asarray(x, dtype=float).ravel()
    locations = np.asarray(locations, dtype=int)
    clean = x[locations]
    noisy = clean if noise is None else clean + np.asarray(noise, dtype=float)

    norm_x = max(float(np.linalg.norm(x)), 1e-300)
    eps_a = best_k_term_error(x, phi, k)

    recon_clean, phi_k = _reconstruct_top_k(x, phi, locations, clean, k)
    total_clean = float(np.linalg.norm(x - recon_clean)) / norm_x
    # Conditioning error: what the clean solve loses beyond truncation.
    eps_c = max(total_clean - eps_a, 0.0)

    if noise is None:
        total = total_clean
        eps_m = 0.0
    else:
        recon_noisy, _ = _reconstruct_top_k(x, phi, locations, noisy, k)
        total = float(np.linalg.norm(x - recon_noisy)) / norm_x
        eps_m = max(total - total_clean, 0.0)

    return ErrorBudget(
        k=k,
        approximation=eps_a,
        conditioning=eps_c,
        noise=eps_m,
        total=total,
        condition_number=condition_number(phi_k),
    )


def select_optimal_k(
    x: np.ndarray,
    phi: np.ndarray,
    locations: np.ndarray,
    noise: np.ndarray | None = None,
    k_max: int | None = None,
) -> tuple[int, list[ErrorBudget]]:
    """Sweep K and return the K minimising total error plus the full sweep.

    Implements the paper's "pick an optimal K such that the sum epsilon is
    minimal" rule, constrained to the overdetermined regime K <= M.
    """
    locations = np.asarray(locations, dtype=int)
    m = locations.size
    if k_max is None:
        k_max = m
    k_max = min(k_max, m)
    if k_max < 1:
        raise ValueError("need at least one measurement to select K")
    budgets = [
        error_decomposition(x, phi, locations, noise, k)
        for k in range(1, k_max + 1)
    ]
    best = min(budgets, key=lambda b: b.total)
    return best.k, budgets


def measurements_for_sparsity(
    k: int, n: int, oversampling: float = 1.7
) -> int:
    """The M = O(K log N) rule of Section 4, with a practical constant.

    Returns ``ceil(oversampling * K * log(N))`` clamped to [K+1, N]; the
    CLM-MKN bench validates that this budget achieves high-probability
    recovery while fixed linear budgets do not scale.
    """
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    if k > n:
        raise ValueError("sparsity cannot exceed dimension")
    m = int(np.ceil(oversampling * k * np.log(n)))
    return int(min(max(m, k + 1), n))
