"""LocalCloud: a zone's head broker over several NanoClouds.

"The head broker in the LCs in turn communicate with other LCs and the
public cloud in the next hierarchy ... This hierarchy allows the nodes
to collaborate through the broker ... and concatenate the results of the
NCs for the local region" (Section 3).  A LocalCloud covers one zone of
the global field; the zone is split column-wise into NC sub-zones, each
aggregated independently, and the head concatenates the sub-results into
the zone estimate it reports upward as a compressed coefficient payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.reconstruction import Reconstruction
from ..core.robust import RobustFit
from ..fields.field import SpatialField
from ..network.bus import MessageBus
from ..network.links import LinkModel, WIFI
from ..network.message import Message, MessageKind
from ..network.topics import TOPIC_ZONE_ESTIMATES
from ..sensors.base import Environment
from .broker import Broker, ZoneEstimate, _PendingRound
from .config import BrokerConfig
from .nanocloud import NanoCloud

__all__ = ["LocalCloudResult", "LocalCloud"]

# (broker, its collected-but-unsolved round)
PendingPair = tuple[Broker, _PendingRound]
# what Broker.solve_round returned for it
SolvedRound = tuple[Reconstruction, np.ndarray, RobustFit | None]


@dataclass
class LocalCloudResult:
    """One LC round: the assembled zone field plus per-NC diagnostics."""

    field: SpatialField
    nc_estimates: list[ZoneEstimate]
    timestamp: float

    @property
    def total_measurements(self) -> int:
        return sum(e.m for e in self.nc_estimates)

    @property
    def coefficients_reported(self) -> int:
        """Scalars the LC forwards upward (support indices + values)."""
        return sum(
            2 * int(e.reconstruction.support.size) for e in self.nc_estimates
        )


class LocalCloud:
    """One zone's LocalCloud: head broker + NanoClouds."""

    def __init__(
        self,
        lc_id: str,
        bus: MessageBus,
        zone_width: int,
        zone_height: int,
        *,
        origin: tuple[int, int] = (0, 0),
        n_nanoclouds: int = 1,
        nodes_per_nc: int = 32,
        sensor_name: str = "temperature",
        config: BrokerConfig | None = None,
        criticality: np.ndarray | None = None,
        uplink: LinkModel = WIFI,
        auto_link: bool = False,
        cell_size_m: float = 10.0,
        heterogeneous: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if zone_width % n_nanoclouds:
            raise ValueError(
                f"zone width {zone_width} does not split into "
                f"{n_nanoclouds} NanoCloud columns"
            )
        self.lc_id = lc_id
        self.head_address = f"{lc_id}/head"
        self.bus = bus
        self.config = config or BrokerConfig()
        self.zone_width = zone_width
        self.zone_height = zone_height
        self.origin = origin
        self.uplink = uplink
        bus.register(self.head_address, uplink)
        gen = np.random.default_rng(rng)
        nc_width = zone_width // n_nanoclouds
        self.nanoclouds: list[NanoCloud] = []
        ox, oy = origin
        for idx in range(n_nanoclouds):
            # Slice the zone-local criticality vector for this NC column.
            nc_criticality = None
            if criticality is not None:
                full = np.asarray(criticality, dtype=float).ravel()
                cells = []
                for i in range(idx * nc_width, (idx + 1) * nc_width):
                    cells.extend(
                        range(i * zone_height, (i + 1) * zone_height)
                    )
                nc_criticality = full[np.asarray(cells, dtype=int)]
            self.nanoclouds.append(
                NanoCloud.build(
                    f"{lc_id}/nc{idx}",
                    bus,
                    nc_width,
                    zone_height,
                    nodes_per_nc,
                    sensor_name=sensor_name,
                    origin=(ox + idx * nc_width, oy),
                    config=config,
                    criticality=nc_criticality,
                    auto_link=auto_link,
                    cell_size_m=cell_size_m,
                    heterogeneous=heterogeneous,
                    rng=gen.integers(2**31),
                )
            )

    @classmethod
    def from_nanoclouds(
        cls,
        lc_id: str,
        bus: MessageBus,
        nanoclouds: list[NanoCloud],
        *,
        config: BrokerConfig | None = None,
        uplink: LinkModel = WIFI,
    ) -> "LocalCloud":
        """Assemble a LocalCloud around pre-built NanoClouds.

        The constructor always scatters fresh synthetic nodes; a
        deployment whose membership arrives dynamically — the ingestion
        gateway, whose nodes are live devices joining over sockets —
        builds its NanoClouds first (possibly with zero nodes) and wraps
        them here.  Zone geometry is derived from the broker columns:
        widths are summed, heights must agree.
        """
        if not nanoclouds:
            raise ValueError("at least one NanoCloud is required")
        heights = {nc.broker.zone_height for nc in nanoclouds}
        if len(heights) != 1:
            raise ValueError(
                "NanoCloud columns must share one zone height, got "
                f"{sorted(heights)}"
            )
        lc = cls.__new__(cls)
        lc.lc_id = lc_id
        lc.head_address = f"{lc_id}/head"
        lc.bus = bus
        lc.config = config or nanoclouds[0].broker.config
        lc.zone_width = sum(nc.broker.zone_width for nc in nanoclouds)
        lc.zone_height = heights.pop()
        lc.origin = nanoclouds[0].origin
        lc.uplink = uplink
        bus.register(lc.head_address, uplink)
        lc.nanoclouds = list(nanoclouds)
        return lc

    @property
    def n_nodes(self) -> int:
        return sum(nc.n_nodes for nc in self.nanoclouds)

    def collect_rounds(
        self,
        env: Environment,
        timestamp: float = 0.0,
        measurements_per_nc: list[int] | None = None,
        sparsity_cap: int | None = None,
    ) -> list[PendingPair]:
        """Collection phase for every NanoCloud, serially in NC order.

        All bus traffic and RNG draws happen here; the returned pairs
        capture each NC's broker (post-heartbeat, so failovers are
        resolved) with its pending round for a later solve phase.
        """
        if measurements_per_nc is not None and len(measurements_per_nc) != len(
            self.nanoclouds
        ):
            raise ValueError("one measurement budget per NanoCloud required")
        pairs: list[PendingPair] = []
        for idx, nc in enumerate(self.nanoclouds):
            m = measurements_per_nc[idx] if measurements_per_nc else None
            pending = nc.collect_round(
                env, timestamp, measurements=m, sparsity_cap=sparsity_cap
            )
            pairs.append((nc.broker, pending))
        return pairs

    def finish_round(
        self,
        pairs: list[PendingPair],
        solved: list[SolvedRound],
        timestamp: float,
    ) -> LocalCloudResult:
        """Finalisation phase: adapt broker state serially in NC order,
        forward each NC's AGGREGATE message, and concatenate sub-fields.
        """
        estimates: list[ZoneEstimate] = []
        columns: list[np.ndarray] = []
        for idx, ((broker, pending), solution) in enumerate(
            zip(pairs, solved)
        ):
            estimate = broker.finalize_round(pending, *solution)
            estimates.append(estimate)
            columns.append(estimate.field.grid)
            support = int(estimate.reconstruction.support.size)
            self.bus.send(
                Message(
                    kind=MessageKind.AGGREGATE,
                    source=broker.broker_id,
                    destination=self.head_address,
                    payload={"nc": idx, "support": support},
                    payload_values=max(2 * support, 1),
                    timestamp=timestamp,
                )
            )
        self.bus.endpoint(self.head_address).drain()
        zone_grid = np.hstack(columns)
        field = SpatialField(
            grid=zone_grid, name=f"zone@{self.lc_id}"
        )
        result = LocalCloudResult(
            field=field, nc_estimates=estimates, timestamp=timestamp
        )
        # Observability downlink: anyone subscribed to the shared zone-
        # estimates topic (dashboards, monitors, tests) hears a summary
        # of every finished round.  The subscribers live out-of-tree,
        # hence the pubsub-flow pragma; the subscribers() guard already
        # makes the no-subscriber case free.
        if self.bus.subscribers(TOPIC_ZONE_ESTIMATES):
            self.bus.publish(  # reprolint: allow[pubsub-flow]
                TOPIC_ZONE_ESTIMATES,
                Message(
                    kind=MessageKind.DISSEMINATE,
                    source=self.head_address,
                    destination=self.head_address,
                    payload={
                        "lc": self.lc_id,
                        "measurements": result.total_measurements,
                        "coefficients": result.coefficients_reported,
                    },
                    payload_values=3,
                    timestamp=timestamp,
                ),
            )
        return result

    def run_round(
        self,
        env: Environment,
        timestamp: float = 0.0,
        measurements_per_nc: list[int] | None = None,
        sparsity_cap: int | None = None,
    ) -> LocalCloudResult:
        """Aggregate every NanoCloud and concatenate their sub-fields.

        Each NC broker forwards its result to the head as an AGGREGATE
        message carrying the compressed coefficient payload (metered).
        """
        pairs = self.collect_rounds(
            env, timestamp, measurements_per_nc, sparsity_cap=sparsity_cap
        )
        solved = [broker.solve_round(pending) for broker, pending in pairs]
        return self.finish_round(pairs, solved, timestamp)

    def report_upward(
        self, cloud_address: str, result: LocalCloudResult, timestamp: float
    ) -> None:
        """Send the zone result to the public cloud (compressed payload)."""
        self.bus.send(
            Message(
                kind=MessageKind.AGGREGATE,
                source=self.head_address,
                destination=cloud_address,
                payload={"lc": self.lc_id},
                payload_values=max(result.coefficients_reported, 1),
                timestamp=timestamp,
            )
        )
