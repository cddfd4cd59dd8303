"""Sample statistics for the layered benchmark: one percentile rule.

Every timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, with the sample count — a p99
of forty samples is the maximum under another name, so the rule picks
the tail the sample can actually support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Timing", "tail_percentile", "timing"]

#: Candidate tails in per mille (exact integer arithmetic), highest first.
_LADDER = (999, 990, 950, 900, 800, 750, 700, 600)
_MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with >= 10 of ``n`` samples beyond it."""
    for per_mille in _LADDER:
        if n * (1000 - per_mille) >= _MIN_BEYOND * 1000:
            return per_mille / 10.0
    return None


@dataclass(frozen=True)
class Timing:
    """Median and supported tail of one set of samples."""

    n: int
    p50: float
    tail: float
    tail_pct: float | None

    def __str__(self) -> str:
        if self.tail_pct is None:
            return f"p50 {self.p50:.4g} (n={self.n}, no tail: n too small)"
        return (
            f"p50 {self.p50:.4g}, p{self.tail_pct:g} {self.tail:.4g} "
            f"(n={self.n})"
        )


def timing(samples: Sequence[float] | np.ndarray) -> Timing:
    """Apply the percentile rule; an empty sample gives zeros."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        return Timing(n=0, p50=0.0, tail=0.0, tail_pct=None)
    pct = tail_percentile(values.size)
    p50 = float(np.percentile(values, 50.0))
    tail = float(np.percentile(values, pct)) if pct is not None else p50
    return Timing(n=int(values.size), p50=p50, tail=tail, tail_pct=pct)
