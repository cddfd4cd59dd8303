"""Sensor heterogeneity: phone quality tiers and the GLS covariance V.

Eq. (12) of the paper weights measurements by the inverse of the sensor
noise covariance V ("covariance matrix of sensor accuracy
characteristics").  In a real crowd, V's diagonal comes from the mix of
handset models; we model that mix with *quality tiers* and build V from
the tier assignment of the nodes that actually reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QualityTier",
    "STANDARD_TIERS",
    "draw_tiers",
    "tier_noise_multipliers",
    "batched_readings",
    "covariance_from_stds",
    "covariance_for_tiers",
    "heterogeneity_ratio",
]


@dataclass(frozen=True)
class QualityTier:
    """One handset quality class and its sensor noise multiplier."""

    name: str
    noise_multiplier: float
    population_share: float

    def __post_init__(self) -> None:
        if self.noise_multiplier <= 0:
            raise ValueError("noise_multiplier must be positive")
        if not 0 <= self.population_share <= 1:
            raise ValueError("population_share must be in [0, 1]")


#: A plausible 2014-era handset mix: flagship / mid-range / budget.
STANDARD_TIERS: tuple[QualityTier, ...] = (
    QualityTier("flagship", noise_multiplier=0.5, population_share=0.2),
    QualityTier("midrange", noise_multiplier=1.0, population_share=0.5),
    QualityTier("budget", noise_multiplier=2.5, population_share=0.3),
)


def draw_tiers(
    count: int,
    tiers: tuple[QualityTier, ...] = STANDARD_TIERS,
    rng: np.random.Generator | int | None = None,
) -> list[QualityTier]:
    """Assign a quality tier to each of ``count`` nodes by population share."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not tiers:
        raise ValueError("need at least one tier")
    shares = np.array([t.population_share for t in tiers], dtype=float)
    total = shares.sum()
    if total <= 0:
        raise ValueError("tier population shares must sum to a positive value")
    gen = np.random.default_rng(rng)
    picks = gen.choice(len(tiers), size=count, p=shares / total)
    return [tiers[i] for i in picks]


def tier_noise_multipliers(
    count: int,
    tiers: tuple[QualityTier, ...] = STANDARD_TIERS,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Array form of :func:`draw_tiers`: per-node noise multipliers.

    Consumes the stream identically to :func:`draw_tiers` (one
    ``choice`` call), so a population seeded the same way gets the same
    tier mix whether it stores tier objects or a multiplier array.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not tiers:
        raise ValueError("need at least one tier")
    shares = np.array([t.population_share for t in tiers], dtype=float)
    total = shares.sum()
    if total <= 0:
        raise ValueError("tier population shares must sum to a positive value")
    gen = np.random.default_rng(rng)
    picks = gen.choice(len(tiers), size=count, p=shares / total)
    multipliers = np.array([t.noise_multiplier for t in tiers], dtype=float)
    return multipliers[picks]


def batched_readings(
    truth: np.ndarray,
    noise_stds: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One noisy reading per node: ``truth + std * z`` as a single chunk.

    ``Generator.standard_normal(n)`` consumes the stream exactly like
    ``n`` successive scalar draws, so this is bit-identical to a
    per-node loop computing ``truth[i] + noise_stds[i] * rng.standard_normal()``
    in ascending order — the equivalence the struct-of-arrays sensing
    path is pinned against.
    """
    truth = np.asarray(truth, dtype=float)
    noise_stds = np.asarray(noise_stds, dtype=float)
    if truth.shape != noise_stds.shape:
        raise ValueError(
            f"truth shape {truth.shape} != noise_stds shape {noise_stds.shape}"
        )
    return truth + noise_stds * rng.standard_normal(truth.shape[0])


def covariance_from_stds(noise_stds: np.ndarray) -> np.ndarray:
    """Diagonal covariance V from per-measurement noise std deviations.

    Zero stds are floored at a tiny positive variance so V stays
    invertible (a noiseless sensor still gets near-infinite GLS weight).
    """
    stds = np.asarray(noise_stds, dtype=float).ravel()
    if np.any(stds < 0):
        raise ValueError("noise stds must be non-negative")
    floored = np.maximum(stds, 1e-9)
    return np.diag(floored**2)


def covariance_for_tiers(
    tiers: list[QualityTier], base_noise_std: float
) -> np.ndarray:
    """Diagonal V for a set of reporting nodes given their tiers."""
    if base_noise_std < 0:
        raise ValueError("base noise std must be non-negative")
    stds = np.array([base_noise_std * t.noise_multiplier for t in tiers])
    return covariance_from_stds(stds)


def heterogeneity_ratio(covariance: np.ndarray) -> float:
    """Max/min diagonal variance ratio — 1.0 means homogeneous sensors.

    Accepts V as a full matrix or as the 1-D vector of its diagonal.
    The ABL-NOISE bench sweeps this ratio and shows the OLS-vs-GLS gap
    grow with it.
    """
    covariance = np.asarray(covariance, dtype=float)
    diag = covariance if covariance.ndim == 1 else np.diag(covariance)
    if diag.size == 0:
        raise ValueError("empty covariance")
    low = float(diag.min())
    if low <= 0:
        raise ValueError("covariance diagonal must be positive")
    return float(diag.max()) / low
