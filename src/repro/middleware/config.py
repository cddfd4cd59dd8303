"""Configuration dataclasses for the SenseDroid middleware stack.

Two kinds of field live here.  The *paper knobs* are what Sections 3-4
make tunable ("ability to opportunistically set different sparsity
levels", "multi-resolution compressive thresholds", Section 1): the
compression mode and ratio of :class:`CompressionPolicy` (the sparsity
mode sizes M from the zone's estimated K) and the broker's ``basis``
and ``solver``.  The experiments sweep these.  The *deployment
settings* are what an operator of one installation chooses: the
robust mode and its rehab cadence, redundancy suppression, retries,
deadlines and timeouts, the overload switches, the seed, and the
:class:`HierarchyConfig` shape.

A number that no experiment or deployment varies is a module constant
beside the code that reads it, not a field: the sparsity rule's
OVERSAMPLING and clamps below, the overload protocol's thresholds
(:mod:`repro.middleware.overload`), the on-node context window
(:mod:`repro.middleware.node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .overload import OverloadConfig

__all__ = ["CompressionPolicy", "BrokerConfig", "HierarchyConfig"]

#: Lower clamp on self-reported noise stds when building the GLS
#: covariance V.  The seed clamped at 1e-9, so a "perfect" (zero-std)
#: infrastructure read got ~1e18 relative weight and numerically
#: drowned every mobile report; 0.02 keeps the weight ratio against a
#: 0.3-sigma phone bounded (~225x) while staying below every real
#: sensor spec in the fleet, so existing behaviour is unchanged.
GLS_STD_FLOOR = 0.02

#: The sparsity mode's M = OVERSAMPLING * K * log N rule.
OVERSAMPLING = 1.7
#: Safety clamps on a compressive M: at least MIN_MEASUREMENTS (or the
#: whole zone, if smaller), at most MAX_RATIO of the zone.
MIN_MEASUREMENTS = 4
MAX_RATIO = 0.8


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

    Both compressive modes clamp M to [``MIN_MEASUREMENTS``,
    ``MAX_RATIO`` * N].
    """

    mode: str = "sparsity"
    ratio: float = 0.2

    def __post_init__(self) -> None:
        if self.mode not in ("fixed-ratio", "sparsity", "dense"):
            raise ValueError(f"unknown compression mode {self.mode!r}")
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")

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

            m = int(np.ceil(OVERSAMPLING * k * np.log(max(n, 2))))
        ceiling = max(int(round(MAX_RATIO * n)), 1)
        return int(min(max(m, min(MIN_MEASUREMENTS, n)), ceiling))


@dataclass(frozen=True)
class BrokerConfig:
    """Broker-side reconstruction and sampling configuration.

    The broker always weights a round by the reports' claimed noise
    stds (GLS, eq. 12), orders co-located candidates fullest battery
    first ([24]) and, once :meth:`~repro.middleware.broker.Broker
    .set_prior` installs a zone prior, solves in the prior's basis and
    centring.  None of these is a switch.
    """

    solver: str = "chs"
    basis: str = "dct2"  # separable 2-D DCT over the zone grid
    policy: CompressionPolicy = field(default_factory=CompressionPolicy)
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
    # Aquiba-style redundancy suppression ([25]): when several nodes
    # share a grid cell, command them one at a time and stop at the
    # first answer.  Disabled, every co-located node reports and the
    # broker averages — more energy for a small noise reduction.
    suppress_redundant: bool = True
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
        if self.command_retries < 0:
            raise ValueError("command_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.report_timeout_s <= 0:
            raise ValueError("report_timeout_s must be positive")


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
