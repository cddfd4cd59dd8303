"""Outlier-robust reconstruction wrappers around the CS solvers.

The CHS/OMP/GLS pipeline (eqs. 11-13, Fig. 6) is a least-squares
machine: a single wildly-wrong measurement row — a stuck sensor, a
Byzantine report with an understated ``noise_std`` — pulls the whole
zone estimate toward it, and the GLS covariance makes it *worse* when
the liar claims a tiny variance.  This module wraps any fit in two
classic robustifications:

Naive residuals cannot be trusted for screening: a block of outliers
drags the least-squares fit toward itself (*masking* — every residual
inflates and no single row looks bad), and under GLS an understated
claimed variance buys an outlier enough *leverage* that the fit nearly
interpolates it, leaving the liar with the smallest residual in the
zone.  Both wrappers therefore screen against a separate
**equal-weight LTS-style concentration fit**: fit all rows with no
covariance (no row can buy leverage), keep the best-fitting half and
refit on them (a *C-step*), scoring every iterate by its trimmed sum
of squared standardised residuals.  A start's C-steps stop as soon as
one fails to lower that objective (the FAST-LTS rule of Rousseeuw &
Van Driessen), and the lowest-scoring iterate visited is the reference.
An exact least-squares C-step can only lower the objective, so "until
the survivor set repeats" would be the same stop; a greedy sparse
refit is not one, its objective wanders, and waiting for a repeat
burned the whole refit budget to return whichever iterate came last.
Screening against one naive fit and concentrating only when a row
looks bad would be cheaper still and was rejected: masking and
leverage are exactly the cases where no row looks bad.
Rows are then classified against that robust reference:

- ``mode="trim"`` — hard rejection: rows whose standardised residual
  (claimed std floored by the MAD of the residuals, so an
  understated std cannot hide an outlier) exceeds the threshold are
  dropped, the final estimate is refit with the *real* covariance on
  the survivors, and classification repeats to a fixed point.  When
  nothing is rejected the original naive result object is returned
  untouched, so a fault-free trim run is bit-identical to the naive
  path.
- ``mode="huber"`` — IRLS with Huber weights: instead of hard
  rejection, rows beyond the threshold get their GLS variance inflated
  by ``z / threshold`` (weight ``threshold / z``), iterated until the
  weights stabilise.  Softer; keeps every row's information.  The
  first weights come from the concentration fit's residuals, so IRLS
  does not start from a leverage-corrupted estimate.

Both are deterministic — no RNG anywhere — and solver-agnostic: the
caller hands in a ``fit(values, locations, covariance)`` closure (the
broker passes its own prior-centred solve), so trimming composes with
CHS, OMP, operator bases and shared-basis caching for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import contracts
from .least_squares import noise_variances
from .reconstruction import Reconstruction

__all__ = ["RobustFit", "ROBUST_MODES", "robust_reconstruct", "robust_scales"]

ROBUST_MODES = ("none", "trim", "huber")

# Below this weight an IRLS row counts as rejected for trust accounting:
# its variance has been inflated 2x+, i.e. the fit largely ignored it.
_HUBER_REJECT_WEIGHT = 0.5


@dataclass
class RobustFit:
    """Outcome of one robust solve.

    ``kept`` masks the *input* rows (True = row survived); ``weights``
    carries the final IRLS weights (all ones for trim mode).  ``rounds``
    counts refits beyond the initial fit — 0 means the naive fit stood;
    ``fits`` counts every ``fit`` call the solve made, screening included.
    """

    result: Reconstruction
    x_hat: np.ndarray
    mode: str
    kept: np.ndarray
    weights: np.ndarray
    rounds: int = 0
    scales: np.ndarray = field(default_factory=lambda: np.empty(0))
    fits: int = 0

    @property
    def rejected_rows(self) -> np.ndarray:
        """Indices of input rows the fit rejected (or all-but-ignored)."""
        if self.mode == "huber":
            return np.flatnonzero(self.weights < _HUBER_REJECT_WEIGHT)
        return np.flatnonzero(~self.kept)

    def row_rejected(self) -> np.ndarray:
        """Boolean per-input-row rejection mask (trust accounting)."""
        rejected = np.zeros(self.kept.size, dtype=bool)
        rejected[self.rejected_rows] = True
        return rejected


def robust_scales(
    residual: np.ndarray, noise_stds: np.ndarray | None
) -> np.ndarray:
    """Per-row residual scales: claimed noise floored by a MAD estimate.

    The scale for row i is ``max(noise_std_i, sigma_mad)`` where
    ``sigma_mad = 1.4826 * median(|r - median(r)|)`` is the robust
    spread of the current residuals.  The MAD floor is what defeats the
    adversarial understated-std attack: a liar claiming ``std=0.01``
    still gets judged against the honest bulk's spread, while honest
    rows are never held to a tighter standard than the data supports
    (smooth fields are only approximately sparse, so residuals can
    legitimately exceed the sensor noise).
    """
    residual = np.asarray(residual, dtype=float)
    sigma_mad = 0.0
    if residual.size:
        center = float(np.median(residual))
        sigma_mad = 1.4826 * float(np.median(np.abs(residual - center)))
    floor = max(sigma_mad, 1e-12)
    if noise_stds is None:
        return np.full(residual.shape, floor)
    return np.maximum(np.asarray(noise_stds, dtype=float), floor)


def _subset_covariance(
    covariance: np.ndarray | None, keep: np.ndarray
) -> np.ndarray | None:
    """Restrict a covariance (variance vector or full matrix) to ``keep``."""
    if covariance is None:
        return None
    covariance = np.asarray(covariance, dtype=float)
    if covariance.ndim == 1:
        return covariance[keep]
    return covariance[np.ix_(keep, keep)]


def _concentration_fit(
    fit,
    values: np.ndarray,
    locations: np.ndarray,
    noise_stds: np.ndarray | None,
    h: int,
    max_rounds: int,
) -> np.ndarray:
    """Equal-weight LTS concentration: the robust screening reference.

    Fits *without* covariance (an understated claimed variance buys no
    leverage here), keeps the ``h`` best-fitting rows — best by
    residual standardised against the claimed std, so a liar's tiny
    claim makes it *easier* to expel, not harder — and refits on them,
    for as long as the trimmed objective keeps falling (at most
    ``max_rounds`` refits per start).  Returns the reference estimate.
    """
    m = values.size
    scale = (
        np.maximum(np.asarray(noise_stds, dtype=float), 1e-12)
        if noise_stds is not None
        else np.ones(m)
    )
    _, x_full = fit(values, locations, None)
    if h >= m:
        return x_full

    def score(x_ref):
        """An estimate's ``h`` best-fitting rows and its objective, the
        trimmed sum of their squared standardised residuals."""
        z = np.abs(values - x_ref[locations]) / scale
        best_rows = np.argsort(z, kind="stable")[:h]
        # Squaring is monotone, so this is sum(sort(z**2)[:h]).
        return np.sort(best_rows), float(np.sum(z[best_rows] ** 2))

    # Multi-start (FAST-LTS style): a start set from a corrupted fit can
    # converge to a corrupted local minimum — with few degrees of
    # freedom the full fit *absorbs* a gross outlier and hands the
    # residual to honest rows.  Two deterministic starts cover each
    # other: rows closest to the value median (no fit to corrupt), and
    # the best rows of the equal-weight full fit (spatially aware).
    dist = np.abs(values - np.median(values))
    full_idx, full_ssr = score(x_full)
    starts = [np.sort(np.argsort(dist, kind="stable")[:h]), full_idx]
    if np.array_equal(*starts):
        starts.pop()
    # The equal-weight full fit itself competes as a candidate
    # reference under the same trimmed-SSR objective.  On clean data it
    # is the *best-informed* fit available, and a half-sample
    # concentration iterate that underfit (the sparse solver can fail
    # on h of m rows) must not displace it — that failure mode expels
    # honest rows and makes the "robust" estimate far worse than the
    # naive one it was meant to protect.  With real outliers the
    # dragged full fit loses this contest decisively.
    best_ssr, best_x = full_ssr, x_full
    for keep_idx in starts:
        start_ssr = np.inf
        for _ in range(max_rounds):
            _, x_ref = fit(values[keep_idx], locations[keep_idx], None)
            new_idx, trimmed_ssr = score(x_ref)
            if not trimmed_ssr < start_ssr - 1e-12:
                break  # stopped descending: the start's best is behind it
            start_ssr = trimmed_ssr
            if trimmed_ssr < best_ssr - 1e-12:
                best_ssr, best_x = trimmed_ssr, x_ref
            if np.array_equal(new_idx, keep_idx):
                break
            keep_idx = new_idx
    return best_x


def robust_reconstruct(
    fit,
    values: np.ndarray,
    locations: np.ndarray,
    *,
    covariance: np.ndarray | None = None,
    noise_stds: np.ndarray | None = None,
    mode: str = "trim",
    threshold: float = 3.5,
    max_rounds: int = 8,
    min_keep: int | None = None,
) -> RobustFit:
    """Robustly reconstruct from possibly-corrupted measurements.

    Parameters
    ----------
    fit:
        ``fit(values, locations, covariance) -> (Reconstruction, x_hat)``
        — the underlying solve (e.g. the broker's prior-centred
        :func:`repro.core.reconstruction.reconstruct` call).  ``x_hat``
        is only ever read at the ``locations`` passed in, so a caller
        that gathers its basis rows once may pass row numbers as
        ``locations`` and return predictions at those rows alone.
    values / locations / covariance:
        The full measurement set; ``covariance`` (the GLS noise model:
        a 1-D per-row variance vector, or a full matrix) is subset
        along with the rows on refits.
    noise_stds:
        Per-row claimed noise scales used to standardise residuals
        (defaults to the sqrt of the covariance's variances when
        omitted).
    mode:
        ``"trim"`` (hard rejection to a fixed point) or ``"huber"``
        (IRLS soft downweighting).
    threshold:
        Standardised-residual cut; rows with ``|r_i| / scale_i`` beyond
        it are rejected (trim) or downweighted (huber).
    max_rounds:
        Refit budget beyond the initial fit.
    min_keep:
        Trim never rejects below this many surviving rows (default:
        half the input rows, at least 4) — a solver needs rows to stand
        on, and a fault fraction beyond half is unrecoverable anyway.

    Returns
    -------
    RobustFit
        With ``rounds == 0`` and the *original* result object when
        nothing was rejected — the bit-identical fault-free guarantee.
    """
    if mode not in ("trim", "huber"):
        raise ValueError(f"unknown robust mode {mode!r}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    values = np.asarray(values, dtype=float)
    locations = np.asarray(locations, dtype=int)
    m = values.size
    if contracts.enabled():
        # Robustification rejects *statistical* outliers; a NaN/Inf row
        # is a data-integrity fault and must fail loudly instead of
        # silently poisoning every residual comparison below.
        contracts.check_finite("values", values, context="robust_reconstruct")
        if noise_stds is not None:
            contracts.check_finite(
                "noise_stds", noise_stds, context="robust_reconstruct"
            )
    if noise_stds is None and covariance is not None:
        noise_stds = np.sqrt(noise_variances(covariance))
    if min_keep is None:
        min_keep = max(4, m // 2)
    min_keep = min(min_keep, m)

    fits = 0

    def counted_fit(*args):
        nonlocal fits
        fits += 1
        return fit(*args)

    result, x_hat = counted_fit(values, locations, covariance)
    kept = np.ones(m, dtype=bool)
    weights = np.ones(m, dtype=float)

    def _classify(x_est):
        """Keep/reject every row against an estimate.

        The robust spread is the MAD over *all* rows' residuals — not
        just the reference's in-sample rows, whose residuals
        underestimate the spread a held-out row legitimately carries
        (cross-validation error of an underfit sparse model).  MAD
        holds up to a minority of gross outliers, so the liars inflate
        it only marginally."""
        resid = values - x_est[locations]
        sc = robust_scales(resid, noise_stds)
        z = np.abs(resid) / sc
        keep = z <= threshold
        if int(keep.sum()) < min_keep:
            # Never starve the solver: keep the best-fitting floor.
            order = np.argsort(z, kind="stable")
            keep = np.zeros(m, dtype=bool)
            keep[order[:min_keep]] = True
        return keep, sc

    # Robust screening reference (see module docstring): residuals are
    # judged against an equal-weight concentration fit, never against
    # the naive fit a coordinated block of liars can drag or leverage.
    x_ref = _concentration_fit(
        counted_fit, values, locations, noise_stds, min_keep, max_rounds
    )

    if mode == "trim":
        kept, scales = _classify(x_ref)
        if kept.all():
            return RobustFit(
                result=result,
                x_hat=x_hat,
                mode=mode,
                kept=kept,
                weights=weights,
                rounds=0,
                scales=scales,
                fits=fits,
            )
        # Fixed point with re-inclusion: refit with the real covariance
        # on the survivors, re-classify everyone against the refit (a
        # held-out honest row the reference could not explain gets back
        # in once the cleaned fit explains it), repeat until stable.
        rounds = 0
        fitted_kept = kept
        for _ in range(max_rounds):
            fitted_kept = kept
            idx = np.flatnonzero(kept)
            result_r, x_hat_r = counted_fit(
                values[idx],
                locations[idx],
                _subset_covariance(covariance, idx),
            )
            rounds += 1
            new_kept, scales = _classify(x_hat_r)
            if np.array_equal(new_kept, kept):
                break
            if new_kept.all():
                # Converged back to everyone: the naive fit stands.
                return RobustFit(
                    result=result,
                    x_hat=x_hat,
                    mode=mode,
                    kept=new_kept,
                    weights=weights,
                    rounds=0,
                    scales=scales,
                    fits=fits,
                )
            kept = new_kept
        return RobustFit(
            result=result_r,
            x_hat=x_hat_r,
            mode=mode,
            kept=fitted_kept,
            weights=weights,
            rounds=rounds,
            scales=scales,
            fits=fits,
        )

    # -- huber: IRLS soft downweighting ---------------------------------
    # The scale is estimated ONCE, robustly, from the reference fit's
    # surviving residuals and frozen through IRLS (re-estimating it from
    # a partially-corrupted iterate inflates it and lets gross outliers
    # claw their weight back).
    scales = robust_scales(values - x_ref[locations], noise_stds)
    rounds = 0
    x_irls = x_ref  # first weights come from the robust reference
    for _ in range(max_rounds):
        residual = values - x_irls[locations]
        z = np.abs(residual) / scales
        new_weights = np.where(z <= threshold, 1.0, threshold / z)
        if np.max(np.abs(new_weights - weights)) < 1e-3:
            weights = new_weights
            break
        weights = new_weights
        rounds += 1
        # Inflate each row's variance by 1/w — Huber's equivalence
        # between downweighting and a heavier claimed noise.
        inflated = (scales**2) / np.maximum(weights, 1e-12)
        result, x_hat = counted_fit(values, locations, inflated)
        x_irls = x_hat
    return RobustFit(
        result=result,
        x_hat=x_hat,
        mode=mode,
        kept=kept,
        weights=weights,
        rounds=rounds,
        scales=scales,
        fits=fits,
    )
