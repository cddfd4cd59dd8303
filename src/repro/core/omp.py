"""Orthogonal Matching Pursuit (OMP) for sparse recovery.

Implements the solver for the paper's sparse-regression formulation
(eq. 13):

    minimize ||x - Phi alpha||_2^2   subject to   ||alpha||_0 <= K

which "can be effectively solved using the orthogonal matching pursuit
(OMP) algorithm [27]" (Tropp & Gilbert 2007).  OMP greedily selects the
dictionary column most correlated with the current residual, then refits
all selected coefficients by least squares — the same skeleton the CHS
algorithm of Fig. 6 builds on.

The default ``engine="fast"`` never refits from scratch: it keeps an
orthonormal factor of the selected (whitened) columns
(:class:`repro.core.incremental.IncrementalQR`), so admitting an atom
is one Gram-Schmidt step and the new residual is the old one with its
component along the new direction removed.  A GLS covariance is
factored once per call and the coefficients are solved once, at the
end.  ``engine="reference"`` runs the seed implementation
(:func:`repro.core.reference.omp_reference`), the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import contracts
from .incremental import IncrementalQR
from .least_squares import Whitener

__all__ = ["OMPResult", "omp"]


@dataclass
class OMPResult:
    """Outcome of one OMP run.

    Attributes
    ----------
    coefficients:
        Full-length (N) coefficient vector; zero outside the support.
    support:
        Indices of the selected dictionary columns, in selection order.
    residual_norm:
        Final ``||x_s - Phi_tilde alpha||_2``.
    iterations:
        Number of greedy selections performed.
    residual_history:
        Residual norm after every iteration (for convergence plots).
    """

    coefficients: np.ndarray
    support: np.ndarray
    residual_norm: float
    iterations: int
    residual_history: list[float] = field(default_factory=list)


def omp(
    phi_tilde: np.ndarray,
    x_s: np.ndarray,
    sparsity: int,
    *,
    tol: float = 1e-9,
    covariance: np.ndarray | None = None,
    engine: str = "fast",
) -> OMPResult:
    """Recover a sparse coefficient vector from measurements ``x_s``.

    Parameters
    ----------
    phi_tilde:
        Measurement dictionary of shape ``(M, N)`` — for spatial-field
        sensing this is the row-subsampled basis ``Phi[L, :]`` (eq. 7);
        for projection gathering it is ``A @ Phi``.
    x_s:
        Measurement vector of length M.
    sparsity:
        Target sparsity K (maximum number of non-zero coefficients).
    tol:
        Stop early once the residual norm falls below ``tol * ||x_s||``.
    covariance:
        Optional sensor-noise covariance — a scalar variance, a 1-D
        per-sensor variance vector (what the middleware passes; nothing
        ``M x M`` is formed) or a full matrix.  When given, the refit
        is GLS (eq. 12) instead of OLS (eq. 11), matching step 3(e)(ii)
        of Fig. 6.
    engine:
        ``"fast"`` (default) updates the residual by projection;
        ``"reference"`` runs the seed's from-scratch-refit loop.

    Returns
    -------
    :class:`OMPResult` with the N-length coefficient vector.
    """
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "reference":
        from .reference import omp_reference

        return omp_reference(
            phi_tilde, x_s, sparsity, tol=tol, covariance=covariance
        )

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

    # Column norms for a scale-invariant correlation test; guard zeros.
    # einsum sums the squares without the (M, N) temporaries of
    # ``np.linalg.norm(axis=0)``: at zone size those are MB-scale
    # allocations the allocator maps and unmaps on every call.
    col_norms = np.sqrt(np.einsum("ij,ij->j", phi_tilde, phi_tilde))
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)

    # The fit runs in whitened space (eq. 12 is OLS there); selection
    # correlates against the un-whitened residual, as eq. 13 states it.
    whitener = None if covariance is None else Whitener(covariance, m)
    x_fit = x_s if whitener is None else whitener.whiten(x_s)
    factor = IncrementalQR(m, capacity=sparsity)
    residual_fit = x_fit.copy()
    residual = x_s
    target = tol * max(np.linalg.norm(x_s), 1e-300)
    support: list[int] = []
    in_support = np.zeros(n, dtype=bool)
    history: list[float] = []

    for _ in range(sparsity):
        correlations = np.abs(phi_tilde.T @ residual) / safe_norms
        correlations[in_support] = -np.inf  # never reselect
        best = int(np.argmax(correlations))
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        support.append(best)
        in_support[best] = True
        column = phi_tilde[:, best]
        if whitener is not None:
            column = whitener.whiten(column)
        direction = factor.add_column(column)
        if direction is not None:
            # The new residual is the old one with its component along
            # the direction the atom added removed — no refit.
            residual_fit -= (direction @ residual_fit) * direction
        else:
            # A dependent atom got in: from here on, the reference's
            # minimum-norm refit.
            picked = phi_tilde[:, support]
            if whitener is not None:
                picked = whitener.whiten(picked)
            residual_fit = x_fit - picked @ factor.solve(x_fit)
        residual = (
            residual_fit
            if whitener is None
            else whitener.unwhiten(residual_fit)
        )
        history.append(float(np.linalg.norm(residual)))
        if history[-1] <= target:
            break

    coefficients = np.zeros(n)
    if support:
        alpha_sub = factor.solve(x_fit)
        if contracts.enabled():
            contracts.check_vector(
                "alpha_sub", alpha_sub, len(support), context="omp refit"
            )
            contracts.check_finite("alpha_sub", alpha_sub, context="omp refit")
        coefficients[support] = alpha_sub
    return OMPResult(
        coefficients=coefficients,
        support=np.asarray(support, dtype=int),
        residual_norm=float(np.linalg.norm(residual)),
        iterations=len(support),
        residual_history=history,
    )
