"""The full multi-tier hierarchy of Fig. 1: public cloud over LocalClouds.

"The conceptual architecture ... is hierarchically organized and
spatially distributed through multiple local clouds (LCs) which in turn
is formed from spatial distribution of nano clouds (NCs)" — the
:class:`Hierarchy` partitions the global field into a
:class:`repro.fields.zones.ZoneGrid`, builds one LocalCloud per zone,
runs global aggregation rounds (optionally with zone-adaptive measurement
allocation, the Fig. 5 policy), and assembles the global field estimate
at the cloud tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fields.field import SpatialField
from ..fields.zones import ZoneGrid, allocate_measurements
from ..network.bus import MessageBus
from ..network.links import LTE, LinkModel
from ..sensors.base import Environment
from .config import BrokerConfig, HierarchyConfig
from .localcloud import LocalCloud, LocalCloudResult
from .rounds import ZoneRoundDriver, ZoneSchedule

__all__ = ["GlobalEstimate", "Hierarchy"]


@dataclass
class GlobalEstimate:
    """One global round's output at the cloud tier."""

    field: SpatialField
    zone_results: dict[int, LocalCloudResult]
    timestamp: float

    @property
    def total_measurements(self) -> int:
        return sum(r.total_measurements for r in self.zone_results.values())


class Hierarchy:
    """Public cloud + one LocalCloud per zone of the global field.

    Parameters
    ----------
    field_width / field_height:
        Global field grid dimensions.
    config:
        Hierarchy shape (zone counts, NC sizes).
    broker_config:
        Reconstruction configuration shared by every NC broker.
    criticality:
        Optional ``(zones_y, zones_x)`` zone weight matrix (Fig. 5's
        region emphasis).
    """

    CLOUD_ADDRESS = "cloud"

    def __init__(
        self,
        field_width: int,
        field_height: int,
        *,
        config: HierarchyConfig | None = None,
        broker_config: BrokerConfig | None = None,
        sensor_name: str = "temperature",
        criticality: np.ndarray | None = None,
        bus: MessageBus | None = None,
        uplink: LinkModel = LTE,
        auto_link: bool = False,
        cell_size_m: float = 10.0,
        heterogeneous: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.broker_config = broker_config or BrokerConfig()
        self.bus = bus or MessageBus()
        self.bus.register(self.CLOUD_ADDRESS, uplink)
        self.zone_grid = ZoneGrid(
            field_width,
            field_height,
            self.config.zones_x,
            self.config.zones_y,
            criticality=criticality,
        )
        gen = np.random.default_rng(rng)
        self.localclouds: dict[int, LocalCloud] = {}
        for zone in self.zone_grid:
            zone_criticality = None
            if criticality is not None:
                zone_criticality = np.full(
                    zone.n, float(zone.criticality)
                )
            self.localclouds[zone.zone_id] = LocalCloud(
                f"lc{zone.zone_id}",
                self.bus,
                zone.width,
                zone.height,
                origin=(zone.x0, zone.y0),
                n_nanoclouds=self.config.nanoclouds_per_localcloud,
                nodes_per_nc=self.config.nodes_per_nanocloud,
                sensor_name=sensor_name,
                config=broker_config,
                criticality=zone_criticality,
                auto_link=auto_link,
                cell_size_m=cell_size_m,
                heterogeneous=heterogeneous,
                rng=gen.integers(2**31),
            )

    @property
    def n_nodes(self) -> int:
        return sum(lc.n_nodes for lc in self.localclouds.values())

    def zone_budgets(
        self, truth: SpatialField, total_budget: int
    ) -> dict[int, int]:
        """Zone-adaptive measurement allocation (Fig. 5 policy) from the
        current ground truth's local sparsities.

        In deployment the sparsity estimates come from zone priors or the
        brokers' previous rounds; benches pass the ground truth to get
        the oracle allocation both arms of a comparison share.
        """
        sparsities = self.zone_grid.local_sparsities(truth)
        return allocate_measurements(
            self.zone_grid, sparsities, total_budget
        )

    def run_global_round(
        self,
        env: Environment,
        timestamp: float = 0.0,
        *,
        zone_measurements: dict[int, int] | None = None,
    ) -> GlobalEstimate:
        """Run every LocalCloud and assemble the global field estimate.

        Parameters
        ----------
        zone_measurements:
            Optional per-zone measurement budgets (e.g. from
            :meth:`zone_budgets`); zones not listed use their brokers'
            own policy.
        """
        # Collect every zone (bus traffic + RNG draws), then solve, then
        # finalise, each in zone order.  The order is part of the
        # result: finish_round sends AGGREGATE traffic that draws from
        # the bus loss stream, so finalising a zone before the next is
        # collected would change which reports a lossy channel eats.
        pending_by_zone: dict[int, list] = {}
        for zone in self.zone_grid:
            lc = self.localclouds[zone.zone_id]
            budgets = None
            if zone_measurements and zone.zone_id in zone_measurements:
                per_nc = self._split_budget(
                    zone_measurements[zone.zone_id], len(lc.nanoclouds)
                )
                budgets = per_nc
            pending_by_zone[zone.zone_id] = lc.collect_rounds(
                env, timestamp, measurements_per_nc=budgets
            )
        solved_by_zone = {
            zone_id: [broker.solve_round(pending) for broker, pending in pairs]
            for zone_id, pairs in pending_by_zone.items()
        }

        zone_results: dict[int, LocalCloudResult] = {}
        subfields: dict[int, SpatialField] = {}
        for zone in self.zone_grid:
            lc = self.localclouds[zone.zone_id]
            result = lc.finish_round(
                pending_by_zone[zone.zone_id],
                solved_by_zone[zone.zone_id],
                timestamp,
            )
            lc.report_upward(self.CLOUD_ADDRESS, result, timestamp)
            zone_results[zone.zone_id] = result
            subfields[zone.zone_id] = result.field
        self.bus.endpoint(self.CLOUD_ADDRESS).drain()
        global_field = self.zone_grid.assemble(subfields, name="global-estimate")
        return GlobalEstimate(
            field=global_field, zone_results=zone_results, timestamp=timestamp
        )

    def async_drivers(
        self,
        env: Environment,
        clock,
        *,
        schedules: dict[int, ZoneSchedule] | None = None,
        default_period_s: float = 30.0,
        report_deadline_s: float | None = None,
        zone_measurements: dict[int, int] | None = None,
        on_complete=None,
    ) -> dict[int, ZoneRoundDriver]:
        """Build one event-driven round driver per zone.

        Each zone's LocalCloud runs on its own period and phase offset
        (from ``schedules``; unlisted zones use ``default_period_s``)
        instead of the global lockstep barrier of
        :meth:`run_global_round`.  Call ``start()`` on each driver (or
        let the simulation engine do it) to arm the schedules on the
        clock; every completed round flows through ``on_complete`` as a
        :class:`repro.middleware.rounds.ZoneRoundOutcome`.
        """
        drivers: dict[int, ZoneRoundDriver] = {}
        for zone in self.zone_grid:
            lc = self.localclouds[zone.zone_id]
            schedule = (schedules or {}).get(
                zone.zone_id, ZoneSchedule(period_s=default_period_s)
            )
            budgets = None
            if zone_measurements and zone.zone_id in zone_measurements:
                budgets = self._split_budget(
                    zone_measurements[zone.zone_id], len(lc.nanoclouds)
                )
            drivers[zone.zone_id] = ZoneRoundDriver(
                zone.zone_id,
                lc,
                env,
                clock,
                period_s=schedule.period_s,
                offset_s=schedule.offset_s,
                report_deadline_s=report_deadline_s,
                cloud_address=self.CLOUD_ADDRESS,
                measurements_per_nc=budgets,
                on_complete=on_complete,
            )
        return drivers

    @staticmethod
    def _split_budget(budget: int, parts: int) -> list[int]:
        """Split a zone budget evenly across its NanoClouds."""
        base = budget // parts
        remainder = budget % parts
        return [base + (1 if i < remainder else 0) for i in range(parts)]

    def total_node_energy_mj(self) -> float:
        """Phone-side energy across the whole deployment."""
        return sum(
            nc.total_node_energy_mj()
            for lc in self.localclouds.values()
            for nc in lc.nanoclouds
        )
