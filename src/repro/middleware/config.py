"""Configuration dataclasses for the SenseDroid middleware stack.

The paper's framework is explicitly *tunable*: sparsity levels, per-zone
compression thresholds, basis and solver choices are all knobs ("ability
to opportunistically set different sparsity levels", "multi-resolution
compressive thresholds", Section 1).  All knobs live here so experiments
can sweep them declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .overload import OverloadConfig

__all__ = ["CompressionPolicy", "BrokerConfig", "NodeConfig", "HierarchyConfig"]

#: Lower clamp on self-reported noise stds when building the GLS
#: covariance V.  The seed clamped at 1e-9, so a "perfect" (zero-std)
#: infrastructure read got ~1e18 relative weight and numerically
#: drowned every mobile report; 0.02 keeps the weight ratio against a
#: 0.3-sigma phone bounded (~225x) while staying below every real
#: sensor spec in the fleet, so existing behaviour is unchanged.
GLS_STD_FLOOR = 0.02


@dataclass(frozen=True)
class CompressionPolicy:
    """How a broker chooses M (measurements) for its zone.

    Attributes
    ----------
    mode:
        ``"fixed-ratio"``  — M = ratio * N;
        ``"sparsity"``     — M from the K log N rule using the zone's
        estimated sparsity (local fluctuation exploitation, Section 3);
        ``"dense"``        — M = N (no compression; the baseline).
    ratio:
        Compression ratio for fixed-ratio mode.
    oversampling:
        Constant in M = oversampling * K * log N for sparsity mode.
    min_measurements / max_ratio:
        Safety clamps applied in every mode.
    """

    mode: str = "sparsity"
    ratio: float = 0.2
    oversampling: float = 1.7
    min_measurements: int = 4
    max_ratio: float = 0.8

    def __post_init__(self) -> None:
        if self.mode not in ("fixed-ratio", "sparsity", "dense"):
            raise ValueError(f"unknown compression mode {self.mode!r}")
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if self.oversampling <= 0:
            raise ValueError("oversampling must be positive")
        if self.min_measurements < 1:
            raise ValueError("min_measurements must be >= 1")
        if not 0 < self.max_ratio <= 1:
            raise ValueError("max_ratio must be in (0, 1]")

    def measurements(self, n: int, sparsity_estimate: int | None = None) -> int:
        """Pick M for a zone of N points given an optional K estimate."""
        if n < 1:
            raise ValueError("zone size must be positive")
        if self.mode == "dense":
            return n
        if self.mode == "fixed-ratio":
            m = int(round(self.ratio * n))
        else:
            k = max(sparsity_estimate or 1, 1)
            import numpy as np

            m = int(np.ceil(self.oversampling * k * np.log(max(n, 2))))
        ceiling = max(int(round(self.max_ratio * n)), 1)
        return int(min(max(m, min(self.min_measurements, n)), ceiling))


@dataclass(frozen=True)
class BrokerConfig:
    """Broker-side reconstruction and sampling configuration."""

    solver: str = "chs"
    basis: str = "dct2"  # separable 2-D DCT over the zone grid
    policy: CompressionPolicy = field(default_factory=CompressionPolicy)
    use_gls: bool = True  # weight heterogeneous sensors per eq. (12)
    # Byzantine/data-fault robustness (repro.core.robust): "none" keeps
    # the seed's trusting solve; "trim" iteratively rejects rows whose
    # standardised residual exceeds the robust threshold and refits to
    # a fixed point (bit-identical to "none" when nothing is rejected);
    # "huber" soft-downweights them via IRLS instead.  Either non-none
    # mode also switches the GLS covariance to trust-discounted weights
    # and arms the broker's quarantine machinery (thresholds, EWMA step
    # and hysteresis pair are robust_reconstruct's and TrustManager's
    # own defaults).
    robust_mode: str = "none"
    # Rehab probe cadence: every rehab_interval-th round re-commands up
    # to rehab_probes quarantined nodes (one planned cell each) so a
    # recovered sensor can earn its way back in.
    rehab_interval: int = 4
    rehab_probes: int = 2
    use_prior_basis: bool = False  # swap in a PCA basis learned from history
    # Aquiba-style redundancy suppression ([25]): when several nodes
    # share a grid cell, command them one at a time and stop at the
    # first answer.  Disabled, every co-located node reports and the
    # broker averages — more energy for a small noise reduction.
    suppress_redundant: bool = True
    # Collaborative energy sharing ([24]): among co-located candidates,
    # command the fullest battery first so the duty rotates with charge.
    fair_rotation: bool = True
    # Coverage guard ([28]-style quality control): if set, the broker
    # re-draws a round's random plan (up to a few attempts) while its
    # largest spatial gap (Chebyshev cells to the nearest sample)
    # exceeds this bound — random draws occasionally cluster badly.
    max_coverage_gap: float | None = None
    # Reliable command/report exchange over a lossy channel: how many
    # times to re-command a node that yielded no report before giving
    # up on it.  0 keeps the seed's fire-and-forget behaviour.  Every
    # retry is a real transmission metered through the link model —
    # persistence has an honest radio-energy price.
    command_retries: int = 0
    # Zero-latency bus: base backoff between retries in *simulated*
    # seconds — retry i goes out at once, stamped retry_backoff_s *
    # 2**(i-1) (capped at 32x the base) after the previous attempt.  A
    # deferred bus waits report_timeout_s instead.
    retry_backoff_s: float = 0.5
    # When a planned cell yields nothing (loss, churn, refusal and no
    # infrastructure), draw replacement cells from the uncommanded
    # coverage so the effective M stays near the planned M — a dropped
    # row of Phi is replaced instead of mourned.
    topup_resampling: bool = False
    # Deferred bus (latency_mode="link"), read by ZoneRoundDriver: sim
    # seconds after the commands go out at which the broker stops
    # waiting and solves with whatever reports arrived — the
    # partial-solve deadline of the COLLECTING state.  On the
    # zero-latency bus every exchange completes inside send, so no
    # round ever reaches it.
    report_deadline_s: float = 10.0
    # Deferred bus: how long to wait for one command's report before
    # retrying (or moving to the next co-located candidate).  Doubles
    # per retry attempt.  Must comfortably exceed the command + report
    # round-trip latency of the slowest link in play.  The zero-latency
    # bus knows an attempt failed when send returns unanswered.
    report_timeout_s: float = 2.0
    # Overload protection (repro.middleware.overload): admission
    # control on round launch, the solve-deadline circuit breaker and
    # the graceful-degradation ladder.  Every feature defaults off, so
    # the stock config is bit-identical to the unprotected stack.
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    seed: int | None = None

    def __post_init__(self) -> None:
        from ..core.reconstruction import SOLVERS

        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        from ..core.robust import ROBUST_MODES

        if self.robust_mode not in ROBUST_MODES:
            raise ValueError(f"unknown robust_mode {self.robust_mode!r}")
        if self.rehab_interval < 1:
            raise ValueError("rehab_interval must be >= 1")
        if self.rehab_probes < 0:
            raise ValueError("rehab_probes must be non-negative")
        if self.max_coverage_gap is not None and self.max_coverage_gap < 0:
            raise ValueError("max_coverage_gap must be non-negative")
        if self.command_retries < 0:
            raise ValueError("command_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.report_deadline_s <= 0:
            raise ValueError("report_deadline_s must be positive")
        if self.report_timeout_s <= 0:
            raise ValueError("report_timeout_s must be positive")


@dataclass(frozen=True)
class NodeConfig:
    """Mobile-node configuration: sensing rates and context processing."""

    context_window: int = 256
    context_rate_hz: float = 32.0
    temporal_duty_cycle: float = 0.125  # ~32 of 256 samples
    temporal_solver: str = "omp"
    share_contexts: bool = True

    def __post_init__(self) -> None:
        if self.context_window < 8:
            raise ValueError("context window too small")
        if self.context_rate_hz <= 0:
            raise ValueError("context rate must be positive")
        if not 0 < self.temporal_duty_cycle <= 1:
            raise ValueError("duty cycle must be in (0, 1]")


@dataclass(frozen=True)
class HierarchyConfig:
    """Shape of the multi-tier deployment (Fig. 1)."""

    zones_x: int = 2
    zones_y: int = 2
    nodes_per_nanocloud: int = 32
    nanoclouds_per_localcloud: int = 1

    def __post_init__(self) -> None:
        if min(
            self.zones_x,
            self.zones_y,
            self.nodes_per_nanocloud,
            self.nanoclouds_per_localcloud,
        ) < 1:
            raise ValueError("hierarchy dimensions must be >= 1")
