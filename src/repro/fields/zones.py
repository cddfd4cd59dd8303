"""Zone partitioning of the total spatial field.

Section 4: "the total spatial field area is subdivided into zones and
each zone is covered by the mobile local cloud (LCs).  The total spatial
field is then the sum of all the subfields computed and processed by the
local cloud."  A :class:`ZoneGrid` cuts the global field into a regular
grid of rectangular zones, maps between zone-local and global vector
indices, and reassembles the global field from per-zone reconstructions.

Fig. 5's per-zone compression decision ("based on the type of sensing
field, the signal sparsity, accuracy requirement, the middleware broker
decides the compression ratio during data aggregation in each zone") is
implemented by :func:`allocate_measurements`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.basis import dct2_basis
from ..core.sparsity import energy_sparsity
from .field import SpatialField

__all__ = ["Zone", "ZoneGrid", "allocate_measurements"]


@dataclass(frozen=True)
class Zone:
    """One rectangular zone of the global field."""

    zone_id: int
    x0: int
    y0: int
    width: int
    height: int
    criticality: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("zone dimensions must be positive")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError("zone origin must be non-negative")
        if self.criticality < 0:
            raise ValueError("criticality must be non-negative")

    @property
    def n(self) -> int:
        """Grid points covered by this zone."""
        return self.width * self.height

    def local_to_global(self, k_local: int, parent_height: int) -> int:
        """Map a zone-local vector index to the parent field's index."""
        if not 0 <= k_local < self.n:
            raise IndexError(f"local index {k_local} outside zone of {self.n}")
        i_local, j_local = k_local // self.height, k_local % self.height
        i = self.x0 + i_local
        j = self.y0 + j_local
        return i * parent_height + j


class ZoneGrid:
    """Regular partition of a field into ``zones_x x zones_y`` rectangles.

    Field dimensions must divide evenly so every grid point belongs to
    exactly one zone — required for exact reassembly.
    """

    def __init__(
        self,
        field_width: int,
        field_height: int,
        zones_x: int,
        zones_y: int,
        criticality: np.ndarray | None = None,
    ) -> None:
        if field_width <= 0 or field_height <= 0:
            raise ValueError("field dimensions must be positive")
        if zones_x <= 0 or zones_y <= 0:
            raise ValueError("zone counts must be positive")
        if field_width % zones_x or field_height % zones_y:
            raise ValueError(
                f"{field_width}x{field_height} field does not divide into "
                f"{zones_x}x{zones_y} zones"
            )
        self.field_width = field_width
        self.field_height = field_height
        self.zones_x = zones_x
        self.zones_y = zones_y
        zw = field_width // zones_x
        zh = field_height // zones_y
        if criticality is None:
            crit = np.ones((zones_y, zones_x))
        else:
            crit = np.asarray(criticality, dtype=float)
            if crit.shape != (zones_y, zones_x):
                raise ValueError(
                    f"criticality must be ({zones_y}, {zones_x}), got {crit.shape}"
                )
        self.zones: list[Zone] = []
        zone_id = 0
        for zy in range(zones_y):
            for zx in range(zones_x):
                self.zones.append(
                    Zone(
                        zone_id=zone_id,
                        x0=zx * zw,
                        y0=zy * zh,
                        width=zw,
                        height=zh,
                        criticality=float(crit[zy, zx]),
                    )
                )
                zone_id += 1

    def __len__(self) -> int:
        return len(self.zones)

    def __iter__(self):
        return iter(self.zones)

    def extract(self, parent: SpatialField, zone: Zone) -> SpatialField:
        """Cut the zone's subfield out of the parent field."""
        self._check_parent(parent)
        return parent.subfield(zone.x0, zone.y0, zone.width, zone.height)

    def _check_parent(self, parent: SpatialField) -> None:
        if (parent.width, parent.height) != (self.field_width, self.field_height):
            raise ValueError(
                f"parent field {parent.width}x{parent.height} does not match "
                f"zone grid {self.field_width}x{self.field_height}"
            )

    def assemble(self, subfields: dict[int, SpatialField], name: str = "assembled") -> SpatialField:
        """Reassemble the global field from one subfield per zone.

        This is the paper's "concatenate the results of the NCs for the
        local region" step, lifted to the LC -> global tier.
        """
        missing = {z.zone_id for z in self.zones} - set(subfields)
        if missing:
            raise ValueError(f"missing subfields for zones {sorted(missing)}")
        grid = np.zeros((self.field_height, self.field_width))
        for zone in self.zones:
            sub = subfields[zone.zone_id]
            if (sub.width, sub.height) != (zone.width, zone.height):
                raise ValueError(
                    f"zone {zone.zone_id} subfield {sub.width}x{sub.height} "
                    f"!= zone {zone.width}x{zone.height}"
                )
            grid[
                zone.y0 : zone.y0 + zone.height, zone.x0 : zone.x0 + zone.width
            ] = sub.grid
        return SpatialField(grid=grid, name=name)

    def local_sparsities(
        self, parent: SpatialField, energy: float = 0.99
    ) -> dict[int, int]:
        """Per-zone effective sparsity of the subfield in a local DCT basis.

        "Local sparsity is easy to compute" — this is the quantity the
        broker uses to set per-zone measurement budgets.
        """
        self._check_parent(parent)
        result = {}
        for zone in self.zones:
            sub = self.extract(parent, zone)
            phi = dct2_basis(sub.width, sub.height)
            vector = sub.vector()
            # Measure sparsity of the field's *variation*: the DC term
            # always dominates the energy of physical fields (20 C mean
            # vs 2 C swings) and would mask regional structure, so count
            # it separately (+1).
            centered = vector - vector.mean()
            scale = max(np.abs(vector).max(), 1.0)
            if np.linalg.norm(centered) <= 1e-9 * scale:
                # Numerically flat zone: only the DC coefficient matters.
                result[zone.zone_id] = 1
                continue
            alpha = phi.T @ centered
            result[zone.zone_id] = energy_sparsity(alpha, energy) + 1
        return result


def allocate_measurements(
    zone_grid: ZoneGrid,
    sparsities: dict[int, int],
    total_budget: int,
    *,
    min_per_zone: int = 3,
    use_criticality: bool = True,
    log_scaling: bool = True,
) -> dict[int, int]:
    """Divide a global measurement budget across zones (Fig. 5 policy).

    Each zone's share is proportional to ``criticality * K_z * log(N_z)``
    (the measurement cost implied by M = O(K log N)); with
    ``log_scaling=False`` it is proportional to ``criticality * K_z``.
    Shares are clamped to ``[min_per_zone, N_z]`` and the largest-share
    zones absorb rounding slack so the total exactly equals the budget
    whenever it is feasible.

    Raises
    ------
    ValueError
        If the budget cannot cover ``min_per_zone`` per zone, or exceeds
        the total number of grid points.
    """
    zones = list(zone_grid)
    if set(sparsities) != {z.zone_id for z in zones}:
        raise ValueError("sparsities must cover exactly the zone ids")
    floor_total = min_per_zone * len(zones)
    ceiling_total = sum(z.n for z in zones)
    if total_budget < floor_total:
        raise ValueError(
            f"budget {total_budget} below minimum {floor_total} "
            f"({min_per_zone} per zone)"
        )
    if total_budget > ceiling_total:
        raise ValueError(
            f"budget {total_budget} exceeds total grid points {ceiling_total}"
        )

    weights = {}
    for zone in zones:
        k = max(int(sparsities[zone.zone_id]), 1)
        w = float(k)
        if log_scaling:
            w *= np.log(max(zone.n, 2))
        if use_criticality:
            w *= max(zone.criticality, 1e-9)
        weights[zone.zone_id] = w
    total_weight = sum(weights.values())

    allocation = {}
    for zone in zones:
        share = total_budget * weights[zone.zone_id] / total_weight
        allocation[zone.zone_id] = min(max(round(share), min_per_zone), zone.n)

    # Repair rounding drift: add/remove from zones with most headroom/slack.
    def drift() -> int:
        return sum(allocation.values()) - total_budget

    by_weight = sorted(zones, key=lambda z: weights[z.zone_id], reverse=True)
    # The drift can be as large as the full budget (when clamping kicks
    # in), so bound the repair loop by total capacity, not current drift.
    max_repairs = ceiling_total + len(zones)
    guard = 0
    while drift() != 0 and guard < max_repairs:
        guard += 1
        if drift() > 0:
            candidates = [
                z for z in reversed(by_weight)
                if allocation[z.zone_id] > min_per_zone
            ]
            if not candidates:
                break
            allocation[candidates[0].zone_id] -= 1
        else:
            candidates = [z for z in by_weight if allocation[z.zone_id] < z.n]
            if not candidates:
                break
            allocation[candidates[0].zone_id] += 1
    return allocation
