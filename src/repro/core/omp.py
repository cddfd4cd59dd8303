"""Orthogonal Matching Pursuit (OMP) for sparse recovery.

Implements the solver for the paper's sparse-regression formulation
(eq. 13):

    minimize ||x - Phi alpha||_2^2   subject to   ||alpha||_0 <= K

which "can be effectively solved using the orthogonal matching pursuit
(OMP) algorithm [27]" (Tropp & Gilbert 2007).  OMP greedily selects the
dictionary column most correlated with the current residual, then refits
all selected coefficients by least squares — the same skeleton the CHS
algorithm of Fig. 6 builds on, so both run on the one loop kept here,
:func:`_pursue`, each behind a thin wrapper with its own validation,
norm guard and result type.

The loop never refits from scratch: it keeps an orthonormal factor of
the selected (whitened) columns
(:class:`repro.core.incremental.IncrementalQR`), so admitting an atom
is one Gram-Schmidt step and the new residual is the old one with its
component along the new direction removed.  A GLS covariance is
factored once per call and the coefficients are solved once, at the
end.  The seed's loops (:mod:`repro.core.reference`) are the
equivalence oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis import contracts
from .incremental import IncrementalQR, first_max_index, top_k_indices
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


def _pursue(
    rows: np.ndarray,
    x_s: np.ndarray,
    capacity: int,
    tol: float,
    covariance: np.ndarray | None,
    norms: np.ndarray,
    *,
    analyze: Callable[[np.ndarray], np.ndarray] | None = None,
    batch_size: int = 1,
    max_iterations: int | None = None,
    min_score: float = 0.0,
    stop_at_noise: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """The greedy loop OMP and CHS share: correlate, select, admit,
    project — over the ``(M, N)`` sampled ``rows``, up to ``capacity``
    atoms, scored against the caller's guarded column ``norms``.

    The keywords are CHS's: ``analyze`` scores a residual in the basis
    when the lift is not the adjoint of sampling (default
    ``rows.T @ r``), ``batch_size`` atoms are admitted per pass, at most
    ``max_iterations`` passes run, and a best score of ``min_score`` or
    less ends the loop — eq. 13's OMP stops once nothing correlates
    with the residual; Fig. 6's step 3(c) always picks (``-inf``).

    ``stop_at_noise`` (OMP's, never CHS's) is a risk-inflation stop
    (Foster & George 1994): an atom enters only if it lowers the
    whitened RSS by at least ``2 ln N``.  That drop is ``(q . r_w)^2``
    for the unit direction ``q`` the atom adds — the projection the
    loop makes anyway — so the stop costs no refit.  A dependent atom
    adds no direction and buys no drop.  Either way the atom is refused
    (its column taken back out of the factor) and the loop ends.

    Returns the support in selection order, the N-length coefficient
    vector (its least-squares fit, zero elsewhere), the final
    measurement-domain residual and the residual norm after every pass.
    """
    m, n = rows.shape
    # The fit runs in whitened space (eq. 12 is OLS there); selection
    # correlates against the un-whitened residual, as eq. 13 states it.
    whitener = Whitener(covariance, m)
    x_fit = whitener.whiten(x_s)
    factor = IncrementalQR(m, capacity=capacity)
    residual_fit = x_fit.copy()
    residual = x_s
    # sqrt(v.dot(v)) is what np.linalg.norm evaluates for a 1-D float
    # vector, minus its Python dispatch (~50 such norms per fit).
    target = tol * max(math.sqrt(x_s.dot(x_s)), 1e-300)
    support: list[int] = []
    scores = np.empty(n)
    history: list[float] = []
    if max_iterations is None:
        max_iterations = capacity
    penalty = 2.0 * math.log(n)
    stopped = False

    while len(support) < capacity and len(history) < max_iterations:
        # The scores are built in the one N-length buffer, in place.
        alpha_r = (
            np.matmul(rows.T, residual, out=scores)
            if analyze is None
            else analyze(residual)
        )
        # Largest normalised magnitude first; ties break toward the
        # lower index — the low-frequency prior for physical fields.
        np.abs(alpha_r, out=scores)
        scores /= norms
        scores[support] = -np.inf  # never reselect
        if batch_size == 1:
            picked = [first_max_index(scores)]
        else:
            room = capacity - len(support)
            picked = top_k_indices(scores, min(batch_size, room)).tolist()
        # Nothing left, nothing finite, or nothing worth admitting.
        if not picked or not scores[picked[0]] > min_score:
            break
        before = len(support)
        for j in picked:
            direction = factor.add_column(whitener.whiten(rows[:, j]))
            step = None if direction is None else direction @ residual_fit
            if stop_at_noise and (step is None or step * step < penalty):
                factor.drop_last()
                stopped = True
                break
            support.append(j)
            if step is not None:
                # The new residual is the old one with its component
                # along the direction the atom added removed — no refit.
                residual_fit -= step * direction
        if len(support) == before:
            break  # the noise stop refused the pass's first atom
        if factor.degenerate:
            # A dependent atom got in: from here on, the reference's
            # minimum-norm refit.
            admitted = whitener.whiten(rows[:, support])
            residual_fit = x_fit - admitted @ factor.solve(x_fit)
        residual = whitener.unwhiten(residual_fit)
        history.append(math.sqrt(residual.dot(residual)))
        if history[-1] <= target or stopped:
            break

    alpha_sub = factor.solve(x_fit)
    if support and contracts.enabled():
        contracts.check_vector(
            "alpha_sub", alpha_sub, len(support), context="pursuit refit"
        )
        contracts.check_finite("alpha_sub", alpha_sub, context="pursuit refit")
    coefficients = np.zeros(n)
    coefficients[support] = alpha_sub
    return np.asarray(support, dtype=int), coefficients, residual, history


def omp(
    phi_tilde: np.ndarray,
    x_s: np.ndarray,
    sparsity: int,
    *,
    tol: float = 1e-9,
    covariance: np.ndarray | None = None,
    stop_at_noise: bool = False,
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
        Sparsity cap K (maximum number of non-zero coefficients).
        Eq. 13 bounds the support; without ``stop_at_noise`` the loop
        fills it.
    tol:
        Stop early once the residual norm falls below ``tol * ||x_s||``.
    covariance:
        Optional sensor-noise covariance — a scalar variance, a 1-D
        per-sensor variance vector (what the middleware passes; nothing
        ``M x M`` is formed) or a full matrix.  When given, the refit
        is GLS (eq. 12) instead of OLS (eq. 11), matching step 3(e)(ii)
        of Fig. 6.
    stop_at_noise:
        Admit an atom only while it lowers the whitened residual sum of
        squares by at least ``2 ln N`` — the risk-inflation penalty for
        picking one of N candidates at unit noise (Foster & George
        1994).  The penalty is in whitened units, so this needs a
        ``covariance``; it is fixed by N rather than a parameter, since
        with an honest noise model there is nothing left to tune.

    Returns
    -------
    :class:`OMPResult` with the N-length coefficient vector.
    """
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
    if stop_at_noise and covariance is None:
        raise ValueError(
            "stop_at_noise needs a covariance: 2 ln N is in whitened units"
        )

    # Column norms for a scale-invariant correlation test; guard zeros.
    # einsum sums the squares without the (M, N) temporaries of
    # ``np.linalg.norm(axis=0)``: at zone size those are MB-scale
    # allocations the allocator maps and unmaps on every call.
    col_norms = np.sqrt(np.einsum("ij,ij->j", phi_tilde, phi_tilde))
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)
    support, coefficients, residual, history = _pursue(
        phi_tilde, x_s, sparsity, tol, covariance, safe_norms,
        stop_at_noise=stop_at_noise,
    )
    return OMPResult(
        coefficients=coefficients,
        support=support,
        residual_norm=math.sqrt(residual.dot(residual)),
        iterations=support.size,
        residual_history=history,
    )
