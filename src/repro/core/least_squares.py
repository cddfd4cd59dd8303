"""Ordinary and generalized least-squares coefficient estimators.

Implements the closed-form solutions of the paper:

- eq. (11): OLS for homogeneous sensors,
      alpha_K = (Phi_K^* Phi_K)^{-1} Phi_K^* x_S
- eq. (12): GLS for heterogeneous/noisy sensors with noise covariance V,
      alpha_K = (Phi_K^* V^{-1} Phi_K)^{-1} Phi_K^* V^{-1} x_S

Both require the overdetermined, well-conditioned case M >= K with
rank(Phi_K) = K.  We solve via `lstsq`/Cholesky rather than forming the
normal-equation inverse explicitly, for numerical robustness — the paper's
error term epsilon_c ("error due to numerical ill-conditioning") is
exactly what the naive formula amplifies.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "ols_solve",
    "gls_solve",
    "whiten",
    "Whitener",
    "noise_variances",
    "condition_number",
]


def _as_matrix_vector(phi_k: np.ndarray, x_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    phi_k = np.asarray(phi_k, dtype=float)
    x_s = np.asarray(x_s, dtype=float).ravel()
    if phi_k.ndim != 2:
        raise ValueError("sensing matrix must be 2-D")
    if phi_k.shape[0] != x_s.size:
        raise ValueError(
            f"{phi_k.shape[0]} rows in sensing matrix but {x_s.size} measurements"
        )
    return phi_k, x_s


def ols_solve(phi_k: np.ndarray, x_s: np.ndarray) -> np.ndarray:
    """Ordinary least squares estimate of alpha_K (paper eq. 11).

    Parameters
    ----------
    phi_k:
        Sensing matrix ``Phi~_K`` of shape ``(M, K)`` — rows of the basis
        restricted to the selected coefficient columns.
    x_s:
        Measurement vector of length M.

    Returns
    -------
    Coefficient vector of length K minimising ``||x_s - phi_k @ alpha||_2``.
    """
    phi_k, x_s = _as_matrix_vector(phi_k, x_s)
    alpha, *_ = np.linalg.lstsq(phi_k, x_s, rcond=None)
    return alpha


class Whitener:
    """The factor ``V = L L^T`` taken once, applied as often as needed.

    Accepts every covariance form the solvers do: a scalar variance, a
    1-D vector of per-sensor variances, or a full ``(M, M)`` matrix.
    For the scalar and vector forms ``L`` is diagonal and only its
    inverse diagonal is held — no ``M x M`` array is formed and nothing
    is factored; a full matrix is Cholesky-factored once and applied by
    triangular solves.  ``None`` (homogeneous sensors) is the identity.
    """

    def __init__(self, covariance: np.ndarray | None, m: int) -> None:
        self._chol: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        if covariance is None:
            return
        covariance = np.asarray(covariance, dtype=float)
        if covariance.ndim >= 2:
            if covariance.shape != (m, m):
                raise ValueError(
                    f"covariance must be ({m}, {m}), got {covariance.shape}"
                )
            self._chol = np.linalg.cholesky(covariance)
            return
        if covariance.ndim == 1 and covariance.size != m:
            raise ValueError(
                f"variance vector length {covariance.size} != M={m}"
            )
        if np.any(covariance <= 0):
            raise ValueError(
                "variance must be positive"
                if covariance.ndim == 0
                else "all sensor variances must be positive"
            )
        self._scale = 1.0 / np.sqrt(covariance)

    def whiten(self, a: np.ndarray) -> np.ndarray:
        """``L^{-1} a`` for a length-M vector or an ``(M, K)`` matrix."""
        if self._chol is not None:
            return solve_triangular(
                self._chol, a, lower=True, check_finite=False
            )
        if self._scale is None:
            return a
        if a.ndim == 2 and self._scale.ndim == 1:
            return a * self._scale[:, None]
        return a * self._scale

    def unwhiten(self, r: np.ndarray) -> np.ndarray:
        """``L r`` for a length-M vector (a whitened residual)."""
        if self._chol is not None:
            return self._chol @ r
        return r if self._scale is None else r / self._scale


def whiten(
    phi_k: np.ndarray, x_s: np.ndarray, covariance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whiten a heteroscedastic system so OLS on the result equals GLS.

    Left-multiplies both sides by ``L^{-1}`` where ``V = L L^T``.
    Accepts a full covariance matrix, a 1-D vector of per-sensor variances,
    or a scalar variance (see :class:`Whitener`).
    """
    phi_k, x_s = _as_matrix_vector(phi_k, x_s)
    whitener = Whitener(covariance, x_s.size)
    return whitener.whiten(phi_k), whitener.whiten(x_s)


def noise_variances(covariance: np.ndarray) -> np.ndarray:
    """Per-sensor variances: the vector form itself, or a matrix's diagonal."""
    covariance = np.asarray(covariance, dtype=float)
    return covariance if covariance.ndim == 1 else np.diag(covariance)


def gls_solve(
    phi_k: np.ndarray, x_s: np.ndarray, covariance: np.ndarray
) -> np.ndarray:
    """Generalized least squares estimate of alpha_K (paper eq. 12).

    ``covariance`` describes the sensor-noise covariance V arising from
    heterogeneous phone sensors (Section 4, "GLS Solution for heterogenous
    sensors").  Scalar, per-sensor-variance vector and full-matrix forms
    are accepted.
    """
    phi_w, x_w = whiten(phi_k, x_s, covariance)
    alpha, *_ = np.linalg.lstsq(phi_w, x_w, rcond=None)
    return alpha


def condition_number(phi_k: np.ndarray) -> float:
    """2-norm condition number of the sensing matrix.

    The paper's epsilon_c grows with this; the ABL-K bench sweeps K and
    shows conditioning degrade as K approaches M.
    """
    phi_k = np.asarray(phi_k, dtype=float)
    if phi_k.size == 0:
        raise ValueError("empty sensing matrix")
    return float(np.linalg.cond(phi_k))
