"""The SenseDroid facade: one object that assembles the whole stack.

This is the public entry point a downstream application uses: build a
deployment over an environment, run sensing rounds, ask for contexts,
query the log.  Everything underneath (hierarchy, brokers, nodes, bus,
storage) stays accessible for advanced use, but the facade covers the
paper's five middleware features — mobile phone sensing, context
determination, communication/collaboration, data logging/retrieval, and
query/filtering — in a handful of methods.
"""

from __future__ import annotations

import numpy as np

from ..context.group import GroupContext
from ..core import metrics
from ..fields.field import SpatialField
from ..network.bus import MessageBus
from ..sensors.base import Environment, SensorReading
from .config import BrokerConfig, HierarchyConfig
from .hierarchy import GlobalEstimate, Hierarchy
from .query import Query
from .storage import ContextRecord, DataStore

__all__ = ["SenseDroid"]


class SenseDroid:
    """A deployed SenseDroid instance over one environment.

    Parameters
    ----------
    env:
        Ground-truth environment (fields + indoor map).
    sensor_name:
        The physical field being crowdsensed.
    hierarchy_config / broker_config:
        Deployment shape and reconstruction configuration.
    store_path:
        SQLite path for the data log (default in-memory).
    transport:
        Message transport the deployment rides — any
        :class:`repro.network.transport.Transport` backend (the
        in-process :class:`~repro.network.bus.MessageBus` or the
        socket-facing
        :class:`~repro.network.asyncio_transport.AsyncioTransport`).
        ``None`` builds a private synchronous bus, the seed behaviour.
    """

    def __init__(
        self,
        env: Environment,
        *,
        sensor_name: str = "temperature",
        hierarchy_config: HierarchyConfig | None = None,
        broker_config: BrokerConfig | None = None,
        criticality: np.ndarray | None = None,
        store_path: str = ":memory:",
        heterogeneous: bool = True,
        transport: MessageBus | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if sensor_name not in env.fields:
            raise ValueError(
                f"environment has no field {sensor_name!r}; "
                f"available: {sorted(env.fields)}"
            )
        self.env = env
        self.sensor_name = sensor_name
        truth = env.fields[sensor_name]
        self.hierarchy = Hierarchy(
            truth.width,
            truth.height,
            config=hierarchy_config,
            broker_config=broker_config,
            sensor_name=sensor_name,
            criticality=criticality,
            heterogeneous=heterogeneous,
            bus=transport,
            rng=rng,
        )
        self.store = DataStore(store_path)
        self._round = 0

    # -- sensing ----------------------------------------------------------

    def sense_field(
        self,
        *,
        total_budget: int | None = None,
        adaptive: bool = False,
    ) -> GlobalEstimate:
        """Run one global compressive sensing round.

        Parameters
        ----------
        total_budget:
            Optional global measurement budget; required for
            ``adaptive=True`` where it is split across zones by local
            sparsity and criticality (Fig. 5); otherwise each broker's
            own policy chooses M.
        adaptive:
            Enable the zone-adaptive allocation.
        """
        timestamp = float(self._round)
        zone_measurements = None
        if adaptive:
            if total_budget is None:
                raise ValueError("adaptive allocation needs a total_budget")
            truth = self.env.fields[self.sensor_name]
            zone_measurements = self.hierarchy.zone_budgets(
                truth, total_budget
            )
        elif total_budget is not None:
            per_zone = total_budget // len(self.hierarchy.zone_grid)
            zone_measurements = {
                zone.zone_id: max(per_zone, 4)
                for zone in self.hierarchy.zone_grid
            }
        estimate = self.hierarchy.run_global_round(
            self.env, timestamp, zone_measurements=zone_measurements
        )
        self._round += 1
        self._log_round(estimate)
        return estimate

    def _log_round(self, estimate: GlobalEstimate) -> None:
        """Log every collected measurement into the data store."""
        readings = []
        for zone_id, result in estimate.zone_results.items():
            lc = self.hierarchy.localclouds[zone_id]
            for nc, nc_estimate in zip(lc.nanoclouds, result.nc_estimates):
                values = nc_estimate.reconstruction
                for cell, value in zip(
                    nc_estimate.plan.locations.tolist(),
                    (values.x_hat[nc_estimate.plan.locations]).tolist(),
                ):
                    readings.append(
                        SensorReading(
                            sensor=self.sensor_name,
                            timestamp=estimate.timestamp,
                            value=float(value),
                            node_id=nc.broker.broker_id,
                        )
                    )
        if readings:
            self.store.log_readings(readings)

    def estimate_error(self, estimate: GlobalEstimate) -> float:
        """Relative L2 error of a global estimate vs the ground truth."""
        truth = self.env.fields[self.sensor_name]
        return metrics.relative_error(
            truth.vector(), estimate.field.vector()
        )

    def zone_error(self, zone_id: int, zone_field: SpatialField) -> float:
        """Relative L2 error of one zone's field vs its truth block.

        Event-driven rounds finish per zone at different sim times, so
        there is no global estimate to score — each zone's estimate is
        compared against the ground truth *restricted to that zone*.
        """
        zone = next(
            z for z in self.hierarchy.zone_grid if z.zone_id == zone_id
        )
        truth = self.env.fields[self.sensor_name]
        block = truth.grid[
            zone.y0 : zone.y0 + zone.height, zone.x0 : zone.x0 + zone.width
        ]
        return metrics.relative_error(
            block.ravel(order="F"), zone_field.vector()
        )

    # -- contexts ----------------------------------------------------------

    def sense_contexts(self, compressive: bool = True) -> dict[str, str]:
        """Run on-node activity inference across the fleet and share the
        results through each NanoCloud broker.

        Returns the inferred mode per node id.
        """
        timestamp = float(self._round)
        inferred: dict[str, str] = {}
        for lc in self.hierarchy.localclouds.values():
            for nc in lc.nanoclouds:
                for node in nc.nodes.values():
                    detection = node.sense_activity_context(
                        timestamp, compressive=compressive
                    )
                    inferred[node.node_id] = detection.estimate.mode
                    if node.shared_contexts:
                        node.share_context(
                            nc.bus,
                            nc.broker.broker_id,
                            node.shared_contexts[-1],
                        )
                    self.store.log_context(
                        ContextRecord(
                            kind="activity",
                            node_id=node.node_id,
                            timestamp=timestamp,
                            value=detection.estimate.mode,
                        )
                    )
                nc.broker.process_inbox(nc.bus, timestamp)
        return inferred

    def group_context(self, kind: str = "activity") -> list[GroupContext]:
        """Per-NanoCloud group context rollups (Section 3's shared
        'group context, behavior, and preferences')."""
        now = float(self._round)
        rollups = []
        for lc in self.hierarchy.localclouds.values():
            for nc in lc.nanoclouds:
                rollups.append(nc.broker.groups.aggregate(kind, now))
        return rollups

    # -- retrieval ----------------------------------------------------------

    def query(self, query: Query) -> list[SensorReading]:
        """On-demand query over the logged readings."""
        return self.store.run_query(query)

    def latest_field(self) -> SpatialField:
        """Ground-truth field currently being sensed (for comparisons)."""
        return self.env.fields[self.sensor_name]

    # -- accounting ----------------------------------------------------------

    def energy_summary_mj(self) -> dict[str, float]:
        """Fleet energy: phone-side sensing/CPU plus radio traffic."""
        return {
            "node_energy_mj": self.hierarchy.total_node_energy_mj(),
            "radio_energy_mj": self.hierarchy.bus.stats.total_energy_mj,
            "messages": float(self.hierarchy.bus.stats.messages),
            "bytes": float(self.hierarchy.bus.stats.bytes),
        }

    def fleet_status(self) -> dict[str, float]:
        """Operational health of the crowd: battery levels and privacy
        transparency counters, aggregated across all nodes."""
        levels = []
        shared = withheld = 0
        for lc in self.hierarchy.localclouds.values():
            for nc in lc.nanoclouds:
                for node in nc.nodes.values():
                    if node.ledger.battery is not None:
                        levels.append(node.ledger.battery.level)
                    shared += node.audit.total_shared()
                    withheld += node.audit.total_withheld()
        return {
            "nodes": float(self.hierarchy.n_nodes),
            "battery_min": float(min(levels)) if levels else 1.0,
            "battery_mean": float(np.mean(levels)) if levels else 1.0,
            "readings_shared": float(shared),
            "readings_withheld": float(withheld),
        }

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "SenseDroid":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
