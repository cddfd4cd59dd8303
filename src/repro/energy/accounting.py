"""Energy accounting: per-node ledgers and experiment-level summaries.

Every energy-consuming event in the middleware (a sensor sample, a radio
message, a CS solve) posts to an :class:`EnergyLedger` under a category.
The CLM-ENERGY bench compares ledgers across sensing strategies —
continuous vs compressive duty-cycled, collaborative vs every-node-senses
— so the ledger keeps categories separable and supports fleet-level
aggregation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .model import Battery

__all__ = ["EnergyLedger", "FleetEnergyReport", "savings_percent"]


@dataclass
class EnergyLedger:
    """Per-node energy ledger with category breakdown.

    Categories in use across the middleware: ``sensing``, ``radio_tx``,
    ``radio_rx``, ``cpu``.  Arbitrary categories are allowed.

    ``on_change`` is called whenever the total moves (:meth:`post`,
    :meth:`merge`): the NanoCloud member table that caches a sum over
    its members' totals hooks it to drop that sum.
    """

    node_id: str = ""
    battery: Battery | None = None
    _by_category: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    on_change: Callable[[], None] | None = field(
        default=None, repr=False, compare=False
    )

    def post(self, category: str, amount_mj: float) -> None:
        """Record an energy expense and drain the battery if present."""
        if not category:
            raise ValueError("category must be non-empty")
        if not 0.0 <= amount_mj < math.inf:
            if amount_mj < 0:
                raise ValueError("energy amounts must be non-negative")
            raise ValueError(f"energy amount must be finite, got {amount_mj}")
        self._by_category[category] += amount_mj
        if self.on_change is not None:
            self.on_change()
        if self.battery is not None:
            self.battery.drain(amount_mj)

    def total_mj(self) -> float:
        return float(sum(self._by_category.values()))

    def category_mj(self, category: str) -> float:
        return float(self._by_category.get(category, 0.0))

    def breakdown(self) -> dict[str, float]:
        """Copy of the category totals, sorted by category name."""
        return {k: self._by_category[k] for k in sorted(self._by_category)}

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's totals into this one (fleet rollups)."""
        for category, amount in other._by_category.items():
            self._by_category[category] += amount
        if self.on_change is not None:
            self.on_change()


@dataclass
class FleetEnergyReport:
    """Aggregate energy view over many node ledgers."""

    ledgers: list[EnergyLedger]

    def total_mj(self) -> float:
        return float(sum(ledger.total_mj() for ledger in self.ledgers))

    def mean_mj(self) -> float:
        if not self.ledgers:
            return 0.0
        return self.total_mj() / len(self.ledgers)

    def max_mj(self) -> float:
        """Worst-case node — the one whose battery dies first."""
        if not self.ledgers:
            return 0.0
        return float(max(ledger.total_mj() for ledger in self.ledgers))

    def breakdown(self) -> dict[str, float]:
        """Fleet-wide category totals."""
        rollup = EnergyLedger(node_id="fleet")
        for ledger in self.ledgers:
            rollup.merge(ledger)
        return rollup.breakdown()


def savings_percent(baseline_mj: float, treatment_mj: float) -> float:
    """Percent energy saved by the treatment relative to the baseline.

    The paper cites ">80% power savings compared to traditional sensing
    without collaborations" [24]; this is the figure of merit.
    """
    if baseline_mj <= 0:
        raise ValueError("baseline energy must be positive")
    if treatment_mj < 0:
        raise ValueError("treatment energy must be non-negative")
    return 100.0 * (1.0 - treatment_mj / baseline_mj)
