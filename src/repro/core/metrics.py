"""Reconstruction-quality metrics used throughout the benchmarks.

Fig. 4 of the paper plots "accuracy of reconstruction as a function of
number of measurements"; we report the standard normalized error metrics
so curves are comparable across signals of different scale.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mse",
    "rmse",
    "nmse",
    "relative_error",
    "snr_db",
    "psnr_db",
    "max_abs_error",
    "support_recovery_rate",
]


def _pair(x: np.ndarray, x_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    if x.size == 0:
        raise ValueError("metrics are undefined for empty signals")
    return x, x_hat


def mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared error."""
    x, x_hat = _pair(x, x_hat)
    return float(np.mean((x - x_hat) ** 2))


def rmse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Root mean squared error."""
    return float(np.sqrt(mse(x, x_hat)))


def nmse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Normalized MSE: ``||x - x_hat||^2 / ||x||^2``.

    This is the y-axis of the Fig. 4 reproduction.  Returns ``inf`` when
    the reference is identically zero but the estimate is not.
    """
    x, x_hat = _pair(x, x_hat)
    denom = float(np.sum(x**2))
    num = float(np.sum((x - x_hat) ** 2))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def relative_error(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Relative L2 error ``||x - x_hat|| / ||x||`` (sqrt of NMSE)."""
    return float(np.sqrt(nmse(x, x_hat)))


def snr_db(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Reconstruction signal-to-noise ratio in dB (higher is better)."""
    value = nmse(x, x_hat)
    if value == 0.0:
        return float("inf")
    return float(-10.0 * np.log10(value))


def psnr_db(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Peak SNR in dB, using the reference signal's dynamic range."""
    x, x_hat = _pair(x, x_hat)
    peak = float(np.max(x) - np.min(x))
    err = mse(x, x_hat)
    if err == 0.0:
        return float("inf")
    if peak == 0.0:
        return float("-inf")
    return float(20.0 * np.log10(peak) - 10.0 * np.log10(err))


def max_abs_error(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Worst-case absolute error over the field."""
    x, x_hat = _pair(x, x_hat)
    return float(np.max(np.abs(x - x_hat)))


def support_recovery_rate(
    true_support: np.ndarray, estimated_support: np.ndarray
) -> float:
    """Fraction of true non-zero coefficient indices recovered.

    Used by the M = O(K log N) phase-transition bench (CLM-MKN): exact
    sparse recovery means recovering the support of alpha.
    """
    true_set = set(np.asarray(true_support, dtype=int).ravel().tolist())
    est_set = set(np.asarray(estimated_support, dtype=int).ravel().tolist())
    if not true_set:
        return 1.0
    return len(true_set & est_set) / len(true_set)
