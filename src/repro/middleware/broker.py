"""The NanoCloud broker (Fig. 2, right box).

The broker "performs stochastic (random) spatial sampling in various
nodes": given N candidate grid cells covered by member nodes (and
optional infrastructure sensors), it

1. estimates the zone's current sparsity K (from a learned prior, or
   adaptively from its previous round's coefficients),
2. picks M via its :class:`repro.middleware.config.CompressionPolicy`,
3. commands the selected nodes over the bus and collects their reports,
4. falls back to infrastructure sensors where nodes refuse or are absent
   ("the broker can also use measurement from infrastructure sensors"),
5. builds the heterogeneity covariance V from the reported noise levels
   and reconstructs the zone field with the configured solver (Fig. 6 /
   eq. 12), and
6. aggregates the contexts nodes share (group context, Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..context.group import ContextReport, GroupAggregator
from ..core.operators import BasisOperator
from ..core.reconstruction import Reconstruction, reconstruct
from ..core.robust import RobustFit, robust_reconstruct
from ..core.registry import (
    has_operator,
    shared_basis,
    shared_dct2_operator,
    shared_operator,
)
from ..core.sampling import MeasurementPlan
from ..core.sparsity import energy_sparsity
from ..energy.accounting import EnergyLedger
from ..fields.coverage import largest_gap_radius
from ..fields.field import SpatialField
from ..fields.priors import ZonePrior
from ..network.bus import Endpoint, MessageBus
from ..network.message import Message, MessageKind
from ..sensors.base import Environment, NodeState, Sensor
from .config import GLS_STD_FLOOR, BrokerConfig
from .node import MobileNode
from .overload import OverloadController
from .trust import TrustManager

__all__ = ["ZoneEstimate", "Broker"]


@dataclass
class ZoneEstimate:
    """One aggregation round's output for a zone.

    Beyond the reconstruction itself, the estimate carries round-quality
    telemetry: how many command/report legs the channel ate, how many
    retries the broker paid for, and how far the realised measurement
    count fell short of the plan — the "health record" consumers use to
    weight a degraded round's field appropriately.
    """

    field: SpatialField
    reconstruction: Reconstruction
    plan: MeasurementPlan
    timestamp: float
    reports_ok: int
    reports_refused: int
    infra_reads: int
    sparsity_estimate: int
    commands_lost: int = 0
    reports_lost: int = 0
    retries_used: int = 0
    planned_m: int = 0
    degraded: bool = False
    # Overload telemetry: how many round slots old this estimate is
    # (0 = freshly solved; N = the Nth consecutive slot it was served
    # stale for) and the degradation-ladder level that produced it.
    staleness_rounds: int = 0
    degraded_level: int = 0
    # Data-fault telemetry (robust_mode != "none"): rows the robust
    # solve rejected (or all-but-ignored), refit iterations spent, the
    # nodes currently quarantined, and the broker's trust snapshot.
    rejected_reports: int = 0
    robust_rounds: int = 0
    quarantined_nodes: tuple[str, ...] = ()
    trust: dict[str, float] = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.plan.m

    @property
    def effective_m(self) -> int:
        """Measurements the solve actually stood on: realised rows of
        Phi minus any the robust solve rejected."""
        return self.plan.m - self.rejected_reports

    @property
    def delivery_ratio(self) -> float:
        """Realised over planned measurements (1.0 = nothing lost)."""
        if self.planned_m <= 0:
            return 1.0
        return self.plan.m / self.planned_m

    @property
    def compression_ratio(self) -> float:
        return self.plan.compression_ratio


@dataclass
class _Collected:
    """Measurements gathered during one round.

    ``sources`` attributes each row to the member node(s) whose reports
    produced it — empty for infrastructure reads — so the robust solve's
    per-row verdicts can settle on the right trust ledgers.
    """

    locations: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    noise_stds: list[float] = field(default_factory=list)
    sources: list[tuple[str, ...]] = field(default_factory=list)

    def add(
        self,
        cell: int,
        value: float,
        noise_std: float | None,
        sources: tuple[str, ...] = (),
    ) -> None:
        """Record one realised measurement (one row of Phi)."""
        self.locations.append(cell)
        self.values.append(value)
        self.noise_stds.append(noise_std or 0.0)
        self.sources.append(sources)


@dataclass
class _RoundTelemetry:
    """Transport-level accounting for one round's exchanges."""

    commands_lost: int = 0
    reports_lost: int = 0
    retries_used: int = 0
    refused: int = 0
    infra_reads: int = 0


@dataclass
class _RoundPlan:
    """One round's sampling decisions, frozen before any bus traffic.

    :meth:`Broker.plan_round` performs every RNG draw of the round's
    planning (the stochastic spatial sampling) and snapshots the member
    map; the :class:`_Collector` then commands exactly these cells.
    """

    k_est: int
    planned_m: int
    candidates: np.ndarray
    plan: MeasurementPlan
    members_by_cell: dict[int, list[str]]
    # Rehabilitation probes: cell -> quarantined node commanded first at
    # that cell this round (empty unless robust_mode is active and the
    # rehab cadence fired).
    probes: dict[int, str] = field(default_factory=dict)


@dataclass(slots=True)
class _CellAttempt:
    """One cell's command progress and the reports it has gathered."""

    cell: int
    candidates: list[str]
    stamp: float  # timestamp of the current attempt's command (zero bus)
    candidate_idx: int = 0
    attempt: int = 0
    awaiting: str | None = None
    satisfied: bool = False
    exhausted: bool = False
    reports: tuple[tuple[str, float, float], ...] = ()  # (node, value, std)


class _Collector:
    """One broker's command/report exchange for one round, on any bus.

    Cells are commanded in plan order.  Each walks its co-located
    candidates (:meth:`Broker._cell_order`), re-commanding a silent one
    up to ``command_retries`` times before moving on, and falls back to
    its infrastructure sensor when no candidate answered.  With
    ``suppress_redundant`` the first report realises the cell; without
    it every candidate is asked and the reports are averaged.  Once
    every planned cell has resolved, ``topup_resampling`` commands spare
    cells in one random order until the planned M is met.  Reports
    arrive through the endpoint handlers :meth:`attach` installs.

    Only the detection of a silent attempt depends on the bus.  On the
    zero-latency bus ``send`` runs the destination's handler inline, so
    when it returns the exchange is over: an attempt neither answered
    nor moved on by then failed (command lost, report lost or node
    gone), and the next goes out at once, stamped
    ``retry_backoff_s * 2**min(a - 1, 5)`` later.  On a deferred bus a
    ``report_timeout_s`` timer, doubling per retry, decides instead.
    """

    def __init__(
        self,
        broker: Broker,
        plan: _RoundPlan,
        bus: MessageBus,
        nodes: dict[str, MobileNode],
        env: Environment,
        timestamp: float,
        *,
        on_settled: Callable[[], None] | None = None,
        on_late: Callable[[], None] | None = None,
    ) -> None:
        self.broker = broker
        self.plan = plan
        self.bus = bus
        self.nodes = nodes
        self.env = env
        self.timestamp = timestamp
        self.on_settled = on_settled  # every cell resolved
        self.on_late = on_late  # a report nobody here awaits
        self.collected = _Collected()
        self.telemetry = _RoundTelemetry()
        self.cells: dict[int, _CellAttempt] = {}
        self.commanded: dict[str, int] = {}
        self.closed = False
        self._deferred = bus.deferred
        self._open = 0  # cells neither satisfied nor exhausted
        self._spare: list[int] | None = None  # top-up cells, reversed
        self._settling = False
        endpoint = bus.endpoint(broker.broker_id)
        self._lost_baseline = (endpoint.outbound_lost, endpoint.inbound_lost)

    @property
    def settled(self) -> bool:
        return self._open == 0

    @property
    def partial(self) -> bool:
        """A planned cell went unrealised."""
        return any(
            not self.cells[cell].satisfied
            for cell in self.plan.plan.locations.tolist()
        )

    def attach(self) -> list[tuple[Endpoint, Callable | None]]:
        """Route the broker's and the members' arrivals here; returns
        the handlers replaced."""
        endpoint = self.bus.endpoint(self.broker.broker_id)
        replaced = [(endpoint, endpoint.handler)]
        endpoint.handler = self._on_report
        for node_id, node in self.nodes.items():
            try:
                endpoint = self.bus.endpoint(node_id)
            except KeyError:
                continue  # churned off the bus; sends to it drop-and-count
            replaced.append((endpoint, endpoint.handler))
            endpoint.handler = lambda message, n=node: self._on_command(
                n, message
            )
        return replaced

    def run(self) -> None:
        """Command every planned cell, in plan order."""
        probes = self.plan.probes
        # Open them all first: top-up waits until none is left open.
        attempts = [
            self._open_cell(cell, probes)
            for cell in self.plan.plan.locations.tolist()
        ]
        for ca in attempts:
            self._dispatch(ca)

    def close(self) -> _PendingRound:
        """Stop collecting and freeze the round (raises RuntimeError
        when nothing was collected)."""
        self.closed = True
        broker = self.broker
        # Cells still in flight at the deadline keep what reported, else
        # read their fixed sensor.
        for cell in sorted(self.cells):
            ca = self.cells[cell]
            if not (ca.satisfied or ca.exhausted):
                self._exhaust(ca)
        if not self.collected.locations:
            # Last-ditch graceful degradation: the whole crowd is dark
            # (total loss, partition, mass churn) but the zone still
            # owns fixed sensors — read them all rather than abort.
            for cell in sorted(broker.infrastructure):
                value, noise_std = broker._read_infrastructure(
                    cell, self.env, self._now()
                )
                self.telemetry.infra_reads += 1
                self.collected.add(cell, value, noise_std)
        endpoint = self.bus.endpoint(broker.broker_id)
        self.telemetry.commands_lost += (
            endpoint.outbound_lost - self._lost_baseline[0]
        )
        self.telemetry.reports_lost += (
            endpoint.inbound_lost - self._lost_baseline[1]
        )
        return broker._freeze_round(
            self.collected, self.telemetry, self.plan.k_est,
            self.plan.planned_m, self.timestamp,
        )

    # -- cells ----------------------------------------------------------

    def _now(self) -> float:
        return float(self.bus.clock.now) if self._deferred else self.timestamp

    def _open_cell(
        self, cell: int, probes: dict[int, str] | None = None
    ) -> _CellAttempt:
        ca = _CellAttempt(
            cell=cell,
            candidates=self.broker._cell_order(
                cell, self.plan.members_by_cell, self.nodes, probes
            ),
            stamp=self.timestamp,
        )
        self.cells[cell] = ca
        self._open += 1
        return ca

    def _dispatch(self, ca: _CellAttempt) -> None:
        """Command the cell's current candidate until the cell resolves
        (zero bus) or a report is awaited (deferred bus)."""
        broker = self.broker
        while not (ca.satisfied or ca.exhausted):
            if ca.candidate_idx >= len(ca.candidates):
                self._exhaust(ca)
                return
            node_id = ca.candidates[ca.candidate_idx]
            if node_id not in self.nodes:
                self._rotate(ca)
                continue
            command = Message(
                kind=MessageKind.SENSE_COMMAND,
                source=broker.broker_id,
                destination=node_id,
                payload={"sensor": broker.sensor_name, "grid_index": ca.cell},
                payload_values=2,
                timestamp=(
                    float(self.bus.clock.now) if self._deferred else ca.stamp
                ),
            )
            self.commanded[node_id] = ca.cell
            ca.awaiting = node_id
            if self._deferred:
                if not self.bus.send(command, strict=False):
                    # Endpoint gone at transmit time; rotate immediately.
                    self._rotate(ca)
                    continue
                self.bus.clock.schedule_in(
                    broker.config.report_timeout_s * 2 ** min(ca.attempt, 5),
                    lambda now, a=ca, n=node_id, k=ca.attempt: self._timeout(
                        a, n, k
                    ),
                )
                return
            turn = (ca.candidate_idx, ca.attempt)
            self.bus.send(command, strict=False)
            if turn == (ca.candidate_idx, ca.attempt) and not ca.satisfied:
                self._retry(ca)  # send returned unanswered

    def _retry(self, ca: _CellAttempt) -> None:
        """The current attempt failed: re-command, or move on."""
        config = self.broker.config
        if ca.attempt < config.command_retries:
            ca.attempt += 1
            self.telemetry.retries_used += 1
            ca.stamp += config.retry_backoff_s * 2 ** min(ca.attempt - 1, 5)
        else:
            self._rotate(ca)

    def _rotate(self, ca: _CellAttempt) -> None:
        ca.candidate_idx += 1
        ca.attempt = 0
        ca.stamp = self.timestamp

    def _timeout(self, ca: _CellAttempt, node_id: str, attempt: int) -> None:
        if self.closed or ca.satisfied or ca.exhausted:
            return
        if ca.awaiting != node_id or ca.attempt != attempt:
            return  # stale timer: the cell moved on without us
        self._retry(ca)
        self._dispatch(ca)

    def _exhaust(self, ca: _CellAttempt) -> None:
        """No candidate left: average what reported, else read the fixed
        sensor, else the cell stays unrealised."""
        if ca.reports:
            self._realise(ca, *self._average(ca))
        elif ca.cell in self.broker.infrastructure:
            value, noise_std = self.broker._read_infrastructure(
                ca.cell, self.env, self._now()
            )
            self.telemetry.infra_reads += 1
            self._realise(ca, value, noise_std, ())
        else:
            ca.exhausted = True
            self._open -= 1
            self._settle()

    @staticmethod
    def _average(ca: _CellAttempt) -> tuple[float, float, tuple[str, ...]]:
        """Co-located reports average to a lower-noise virtual reading:
        std scales as 1/sqrt(r)."""
        if len(ca.reports) == 1:
            source, value, noise_std = ca.reports[0]
            return value, noise_std, (source,)
        sources, values, stds = zip(*ca.reports)
        noise_std = np.sqrt(np.mean(np.square(stds))) / np.sqrt(len(stds))
        return float(np.mean(values)), float(noise_std), sources

    def _realise(
        self,
        ca: _CellAttempt,
        value: float,
        noise_std: float | None,
        sources: tuple[str, ...],
    ) -> None:
        if not ca.exhausted:
            self._open -= 1
        ca.satisfied = True
        self.collected.add(ca.cell, value, noise_std, sources)
        self._settle()

    def _settle(self) -> None:
        """A cell resolved: once every planned cell has, top up toward
        the planned M; when nothing is left open, tell the owner."""
        if self._settling or self.closed:
            return
        planned_m = self.plan.planned_m
        if (
            self._open == 0
            and self._spare is None
            and self.broker.config.topup_resampling
            and len(self.collected.locations) < planned_m
        ):
            # Replacement sampling: a lost report is just a dropped row
            # of Phi — draw substitute cells from the uncommanded
            # coverage until the effective M is back near the plan (or
            # the coverage runs out).
            spare = [
                c for c in self.plan.candidates.tolist() if c not in self.cells
            ]
            order = self.broker._rng.permutation(len(spare)).tolist()
            self._spare = [spare[i] for i in reversed(order)]
        if self._spare:
            self._settling = True
            while (
                self._spare
                and len(self.collected.locations) + self._open < planned_m
            ):
                self._dispatch(self._open_cell(self._spare.pop()))
            self._settling = False
        if self._open == 0 and self.on_settled is not None:
            self.on_settled()

    # -- arrivals -------------------------------------------------------

    def _on_command(self, node: MobileNode, message: Message) -> None:
        if message.kind is MessageKind.SENSE_COMMAND:
            node.handle_command(message, self.env, self.bus)
        else:
            self.bus.requeue(message)

    def _on_report(self, message: Message) -> None:
        if message.kind is not MessageKind.SENSE_REPORT:
            # Context shares etc. keep their inbox path for the usual
            # consumers (Broker.process_inbox) — re-enqueued through the
            # bounded bus API so a saturated broker sheds them instead
            # of queueing without limit (RPR008).
            self.bus.requeue(message)
            return
        cell = None if self.closed else self.commanded.get(message.source)
        if cell is None:
            if self.on_late is not None:
                self.on_late()
            return
        ca = self.cells[cell]
        if ca.satisfied:
            return
        payload = message.payload
        if payload.get("ok"):
            value = float(payload["value"])
            noise_std = float(payload.get("noise_std", 0.0))
            if self.broker.config.suppress_redundant:
                # Aquiba-style suppression [25]: one answer per cell is
                # enough; spare the co-located phones.
                self._realise(ca, value, noise_std, (message.source,))
                return
            if all(source != message.source for source, _, _ in ca.reports):
                ca.reports += ((message.source, value, noise_std),)
            if ca.exhausted:
                self._realise(ca, *self._average(ca))
                return
        else:
            # An explicit refusal (privacy / missing sensor).
            self.telemetry.refused += 1
        if ca.awaiting == message.source:
            self._rotate(ca)
            if self._deferred:
                self._dispatch(ca)


@dataclass(frozen=True)
class _PendingRound:
    """One round's collected inputs, frozen between collect and solve.

    :meth:`Broker._freeze_round` produces this record after all bus
    traffic and RNG draws are done, and resolves into it everything the
    solve reads of the broker — basis, prior, solver, robust mode — so
    :func:`solve_pending` is a function of this record alone (Fig. 6's
    ``(x_S, L, Phi, V)``) and cannot touch the bus, the nodes or broker
    state.
    """

    locations: np.ndarray
    values: np.ndarray
    covariance: np.ndarray | None  # per-row GLS variances, length M
    noise_stds: list[float]
    k_est: int
    solver_sparsity: int
    planned_m: int
    timestamp: float
    telemetry: _RoundTelemetry
    # Per-row node attribution (parallel to ``locations``).
    sources: list[tuple[str, ...]]
    basis: np.ndarray | BasisOperator
    prior: ZonePrior | None  # None unless the round centres on a prior
    solver: str
    robust_mode: str


def solve_pending(
    pending: _PendingRound,
) -> tuple[Reconstruction, np.ndarray, RobustFit | None]:
    """Reconstruct the zone field from one frozen round (eqs. 11-13).

    Pure numerics over ``pending``, which it never writes.  Returns the
    solver result, the zone field vector ``x_hat`` and the robust
    outcome (``None`` when ``robust_mode`` is ``"none"``).
    """
    prior = pending.prior

    def fit(
        values: np.ndarray,
        locations: np.ndarray,
        covariance: np.ndarray | None,
    ) -> tuple[Reconstruction, np.ndarray]:
        sparsity = min(pending.solver_sparsity, values.size)
        if prior is not None:
            centered = prior.center(values, locations)
            result = reconstruct(
                centered, locations, pending.basis,
                solver=pending.solver,
                sparsity=sparsity,
                covariance=covariance,
            )
            return result, prior.uncenter(result.x_hat)
        result = reconstruct(
            values, locations, pending.basis,
            solver=pending.solver,
            sparsity=sparsity,
            covariance=covariance,
            center=True,  # physical fields: baseline + sparse variation
        )
        return result, result.x_hat

    if pending.robust_mode == "none":
        result, x_hat = fit(
            pending.values, pending.locations, pending.covariance
        )
        return result, x_hat, None
    robust = robust_reconstruct(
        fit,
        pending.values,
        pending.locations,
        covariance=pending.covariance,
        mode=pending.robust_mode,
    )
    return robust.result, robust.x_hat, robust


class Broker:
    """Sink/collector of one NanoCloud.

    Parameters
    ----------
    broker_id:
        Bus address.
    zone_width / zone_height:
        Grid dimensions of the zone this broker covers (N = W*H).
    sensor_name:
        The physical quantity being aggregated (e.g. ``"temperature"``).
    config:
        Solver/policy configuration.
    criticality:
        Optional per-cell weight map (vectorised, length N) used to bias
        node selection toward important cells (Fig. 5's emphasis).
    """

    def __init__(
        self,
        broker_id: str,
        zone_width: int,
        zone_height: int,
        sensor_name: str = "temperature",
        *,
        config: BrokerConfig | None = None,
        criticality: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not broker_id:
            raise ValueError("broker_id must be non-empty")
        if zone_width <= 0 or zone_height <= 0:
            raise ValueError("zone dimensions must be positive")
        self.broker_id = broker_id
        self.zone_width = zone_width
        self.zone_height = zone_height
        self.sensor_name = sensor_name
        self.config = config or BrokerConfig()
        self.n = zone_width * zone_height
        if criticality is not None:
            criticality = np.asarray(criticality, dtype=float).ravel()
            if criticality.size != self.n:
                raise ValueError(
                    f"criticality length {criticality.size} != N={self.n}"
                )
        self.criticality = criticality
        self.members: dict[str, int] = {}  # node_id -> local grid index
        self.infrastructure: dict[int, Sensor] = {}  # grid index -> sensor
        self.prior: ZonePrior | None = None
        self.ledger = EnergyLedger(node_id=broker_id)
        self.groups = GroupAggregator()
        self.last_sparsity: int | None = None
        # Trust ledger feeding the robust pipeline; constructed always
        # (cheap) but only consulted when config.robust_mode != "none".
        self.trust = TrustManager()
        # Overload state (detector/breaker/ladder) is zone knowledge,
        # like trust: it rides the failover carry-over on promotion so
        # an acting broker resumes mid-degradation.  Inert (and never
        # consulted by the round driver) at the default-off config.
        self.overload = OverloadController(self.config.overload)
        # config.seed pins the broker exactly (sweeps); otherwise the
        # deployment-level rng keeps whole-system runs reproducible.
        self._rng = np.random.default_rng(
            self.config.seed if self.config.seed is not None else rng
        )
        self._basis_cache: np.ndarray | BasisOperator | None = None
        # Rolling memory of past reconstructions (monotone round index,
        # vectorised field) feeding learn_prior_from_history.
        self._history: list[tuple[float, np.ndarray]] = []
        self._rounds_run = 0
        self.history_limit = 64

    # -- membership -----------------------------------------------------

    def join(self, node_id: str, grid_index: int) -> None:
        """Admit a node covering one grid cell of the zone."""
        if not 0 <= grid_index < self.n:
            raise ValueError(f"grid index {grid_index} outside zone of {self.n}")
        self.members[node_id] = grid_index

    def leave(self, node_id: str) -> None:
        self.members.pop(node_id, None)

    def add_infrastructure(self, grid_index: int, sensor: Sensor) -> None:
        """Install a fixed infrastructure sensor at a grid cell."""
        if not 0 <= grid_index < self.n:
            raise ValueError(f"grid index {grid_index} outside zone of {self.n}")
        self.infrastructure[grid_index] = sensor

    def set_prior(self, prior: ZonePrior) -> None:
        """Install a learned zone prior (basis + typical sparsity)."""
        if prior.basis.shape != (self.n, self.n):
            raise ValueError("prior basis does not match zone size")
        self.prior = prior
        self._basis_cache = None

    def learn_prior_from_history(self, min_rounds: int = 8) -> ZonePrior:
        """Learn and install a :class:`ZonePrior` from this broker's own
        past reconstructions.

        Section 3: "often prior available data about the local regions
        can be exploited to improve the sensing efficiency".  The broker
        *is* the region's historian — every round produces a field
        estimate, and once enough have accumulated their principal
        components form a basis adapted to the zone's field process.
        Call periodically (e.g. nightly); subsequent rounds then use the
        prior's basis and typical sparsity when ``use_prior_basis`` is
        set.

        Raises
        ------
        RuntimeError
            If fewer than ``min_rounds`` reconstructions are remembered.
        """
        if min_rounds < 2:
            raise ValueError("need at least two rounds to learn a prior")
        if len(self._history) < min_rounds:
            raise RuntimeError(
                f"only {len(self._history)} remembered rounds; "
                f"need {min_rounds}"
            )
        from ..fields.priors import build_zone_prior
        from ..fields.temporal import FieldTrace

        trace = FieldTrace()
        for timestamp, vector in self._history:
            trace.append(
                SpatialField.from_vector(
                    vector, self.zone_width, self.zone_height
                ),
                timestamp,
            )
        prior = build_zone_prior(trace)
        self.set_prior(prior)
        return prior

    def coverage(self) -> set[int]:
        """Grid cells observable by a member node or infra sensor."""
        return set(self.members.values()) | set(self.infrastructure)

    # -- internals ------------------------------------------------------

    def _basis(self) -> np.ndarray | BasisOperator:
        if self._basis_cache is None:
            cfg = self.config
            if cfg.use_prior_basis and self.prior is not None:
                self._basis_cache = self.prior.basis
            elif cfg.basis == "dct2":
                self._basis_cache = shared_dct2_operator(
                    self.zone_width, self.zone_height
                )
            elif has_operator(cfg.basis):
                self._basis_cache = shared_operator(cfg.basis, self.n)
            else:
                # No operator form (haar, identity, ...): share the dense
                # matrix across every same-shaped broker in the process.
                self._basis_cache = shared_basis(cfg.basis, self.n)
        return self._basis_cache

    def _sparsity_estimate(self) -> int:
        if self.prior is not None:
            return max(self.prior.typical_sparsity, 1)
        if self.last_sparsity is not None:
            return max(self.last_sparsity, 1)
        # Cold start: assume a moderately sparse field.
        return max(self.n // 16, 4)

    def _make_plan(self, m: int, candidates: np.ndarray) -> MeasurementPlan:
        """Select M cells among the covered candidates.

        A criticality map, when the broker has one, biases the draw;
        otherwise uniform random — the paper's stochastic spatial
        sampling.
        """
        m = min(m, candidates.size)
        weights = None
        if self.criticality is not None:
            weights = self.criticality[candidates]
            if weights.sum() <= 0:
                weights = None

        def draw() -> np.ndarray:
            if weights is None:
                return self._rng.choice(candidates, size=m, replace=False)
            probabilities = weights / weights.sum()
            return self._rng.choice(
                candidates, size=m, replace=False, p=probabilities
            )

        picked = draw()
        max_gap = self.config.max_coverage_gap
        if max_gap is not None:
            # Coverage guard: random draws occasionally cluster; keep the
            # best of a few attempts if none meets the bound.
            best = picked
            best_gap = largest_gap_radius(picked, self.n, self.zone_height)
            attempts = 0
            while best_gap > max_gap and attempts < 8:
                attempts += 1
                candidate_plan = draw()
                gap = largest_gap_radius(
                    candidate_plan, self.n, self.zone_height
                )
                if gap < best_gap:
                    best, best_gap = candidate_plan, gap
            picked = best
        return MeasurementPlan(n=self.n, locations=np.sort(picked))

    def _cell_order(
        self,
        cell: int,
        members_by_cell: dict[int, list[str]],
        nodes: dict[str, MobileNode],
        probes: dict[int, str] | None = None,
    ) -> list[str]:
        """Order co-located candidates for commanding.

        With ``fair_rotation`` (default) the fullest battery goes first,
        spreading the sensing burden across a dense crowd — the
        collaborative energy sharing of [24].  Without batteries (or
        with rotation disabled) the stored order is used.  A rehab probe
        scheduled at this cell goes first regardless (quarantined nodes
        are otherwise absent from ``members_by_cell``), with the healthy
        candidates behind it as replacements should the probe fail.
        """
        candidates = members_by_cell.get(cell, [])
        if self.config.fair_rotation and len(candidates) >= 2:

            def charge(node_id: str) -> float:
                node = nodes.get(node_id)
                if node is None or node.ledger.battery is None:
                    return 1.0
                return node.ledger.battery.level

            candidates = sorted(
                candidates, key=lambda nid: (-charge(nid), nid)
            )
        probe = (probes or {}).get(cell)
        if probe is not None and probe not in candidates:
            return [probe, *candidates]
        return candidates

    def _read_infrastructure(
        self, grid_index: int, env: Environment, timestamp: float
    ) -> tuple[float, float]:
        """Telemeter a fixed infrastructure sensor directly."""
        sensor = self.infrastructure[grid_index]
        i, j = grid_index // self.zone_height, grid_index % self.zone_height
        state = NodeState(x=float(i), y=float(j))
        reading = sensor.read(env, state, timestamp)
        self.ledger.post("sensing", sensor.spec.energy_per_sample_mj)
        return reading.value, sensor.spec.noise_std

    # -- the aggregation round -------------------------------------------
    #
    # A round has three phases joined by data, not by shared state:
    #
    #   collect_round   — plan_round's draws, then a _Collector's
    #                     command/report exchange (the ZoneRoundDriver
    #                     runs the same collector per NanoCloud); ends by
    #                     freezing everything the solve reads into a
    #                     _PendingRound.
    #   solve_round     — solve_pending(pending): pure numerics, a
    #                     function of the frozen round alone.
    #   finalize_round  — sparsity adaptation, trust, history, the
    #                     ZoneEstimate; the only phase that mutates the
    #                     broker after collection.
    #
    # run_round composes the three; the LocalCloud / Hierarchy layers
    # drive the phases separately so every zone is collected before any
    # is finalized (finalisation sends AGGREGATE traffic, which draws
    # from the bus loss stream).

    def plan_round(
        self,
        *,
        measurements: int | None = None,
        sparsity_cap: int | None = None,
    ) -> _RoundPlan:
        """Draw one round's sampling plan (all of its RNG bar the
        collector's top-up order).

        ``sparsity_cap`` clamps the round's working sparsity
        estimate (the degradation ladder's coarse level: a capped K
        bounds both M and the solve's iteration count); ``None`` leaves
        the estimate untouched.

        Raises
        ------
        RuntimeError
            If the broker has no coverage to sample from.
        """
        k_est = self._sparsity_estimate()
        if sparsity_cap is not None:
            k_est = min(k_est, sparsity_cap)
        m = (
            measurements
            if measurements is not None
            else self.config.policy.measurements(self.n, k_est)
        )
        robust = self.config.robust_mode != "none"
        quarantined = self.trust.quarantined if robust else set()
        eligible = {
            cell
            for node_id, cell in self.members.items()
            if node_id not in quarantined
        } | set(self.infrastructure)
        candidates = np.array(sorted(eligible), dtype=int)
        # Rehabilitation probes: on the rehab cadence, command a few
        # quarantined nodes at their own cells so a recovered sensor can
        # demonstrate good rows and earn release.
        probes: dict[int, str] = {}
        if (
            robust
            and quarantined
            and self.config.rehab_probes > 0
            and (self._rounds_run + 1) % self.config.rehab_interval == 0
        ):
            for node_id in self.trust.probe_candidates(
                self.config.rehab_probes
            ):
                cell = self.members.get(node_id)
                if cell is None or cell in probes:
                    continue
                probes[cell] = node_id
        if candidates.size == 0 and not probes:
            raise RuntimeError(f"broker {self.broker_id} has no coverage")
        if candidates.size:
            plan = self._make_plan(m, candidates)
            locations = plan.locations
        else:
            locations = np.array([], dtype=int)
        if probes:
            locations = np.unique(
                np.concatenate(
                    [locations, np.array(sorted(probes), dtype=int)]
                )
            )
            plan = MeasurementPlan(n=self.n, locations=locations)
        members_by_cell: dict[int, list[str]] = {}
        for node_id, cell in self.members.items():
            if node_id in quarantined:
                continue
            members_by_cell.setdefault(cell, []).append(node_id)
        return _RoundPlan(
            k_est=k_est,
            planned_m=plan.m,
            candidates=candidates,
            plan=plan,
            members_by_cell=members_by_cell,
            probes=probes,
        )

    def _freeze_round(
        self,
        collected: _Collected,
        telemetry: _RoundTelemetry,
        k_est: int,
        planned_m: int,
        timestamp: float,
    ) -> _PendingRound:
        """Freeze a round's collected inputs for the solve phase.

        Last step of the serial collect phase: the basis handle, the
        prior, the solver name and the robust mode are read off the
        broker here, so the solve never looks at ``self``.

        Raises
        ------
        RuntimeError
            If nothing was collected (no reports, no infrastructure).
        """
        if not collected.locations:
            raise RuntimeError(
                f"broker {self.broker_id} collected no measurements "
                f"from {planned_m} commanded cells ({telemetry.refused} "
                f"refused, {telemetry.commands_lost} commands and "
                f"{telemetry.reports_lost} reports lost) and no "
                "infrastructure"
            )
        locations = np.asarray(collected.locations, dtype=int)
        values = np.asarray(collected.values, dtype=float)
        sources = list(collected.sources)
        covariance = None
        if self.config.use_gls and any(s > 0 for s in collected.noise_stds):
            # Floor the self-reported stds: a claimed-perfect (zero-std)
            # row must not get unbounded GLS weight — and with robust
            # mode on, discount each row by its least-trusted
            # contributor so repeat offenders lose influence even
            # before quarantine (effective variance = std^2 / trust).
            stds = np.maximum(
                np.asarray(collected.noise_stds, dtype=float), GLS_STD_FLOOR
            )
            if self.config.robust_mode != "none":
                row_trust = np.array(
                    [self.trust.row_trust(row) for row in sources],
                    dtype=float,
                )
                stds = stds / np.sqrt(row_trust)
            covariance = stds**2

        # A badly degraded round can realise fewer measurements than the
        # nominal sparsity; a solver can never recover more coefficients
        # than it has rows, so clamp instead of crashing.
        solver_sparsity = max(min(max(k_est, 4), values.size), 1)
        return _PendingRound(
            locations=locations,
            values=values,
            covariance=covariance,
            noise_stds=list(collected.noise_stds),
            k_est=k_est,
            solver_sparsity=solver_sparsity,
            planned_m=planned_m,
            timestamp=timestamp,
            telemetry=telemetry,
            sources=sources,
            basis=self._basis(),
            prior=self.prior if self.config.use_prior_basis else None,
            solver=self.config.solver,
            robust_mode=self.config.robust_mode,
        )

    def collect_round(
        self,
        bus: MessageBus,
        nodes: dict[str, MobileNode],
        env: Environment,
        timestamp: float = 0.0,
        *,
        measurements: int | None = None,
        sparsity_cap: int | None = None,
    ) -> _PendingRound:
        """Phase 1: plan, command, and collect one round's measurements.

        Performs every side-effecting step of the round — the sampling
        plan's RNG draws, all command/report bus exchanges, infrastructure
        reads — and freezes the result into a :class:`_PendingRound`.
        On the zero-latency bus every exchange completes inside ``send``,
        so the whole collection happens within this call.

        Raises
        ------
        RuntimeError
            If no usable measurements could be collected.
        """
        collector = _Collector(
            self,
            self.plan_round(
                measurements=measurements, sparsity_cap=sparsity_cap
            ),
            bus, nodes, env, timestamp,
        )
        replaced = collector.attach()
        try:
            collector.run()
        finally:
            for endpoint, handler in replaced:
                endpoint.handler = handler
        return collector.close()

    def solve_round(
        self, pending: _PendingRound
    ) -> tuple[Reconstruction, np.ndarray, RobustFit | None]:
        """Phase 2: :func:`solve_pending` on the frozen round."""
        return solve_pending(pending)

    def finalize_round(
        self,
        pending: _PendingRound,
        result: Reconstruction,
        x_hat: np.ndarray,
        robust: RobustFit | None,
    ) -> ZoneEstimate:
        """Phase 3: adapt state from the solve and emit the estimate.

        ``result``, ``x_hat`` and ``robust`` are what :meth:`solve_round`
        returned for ``pending``.
        """
        locations = pending.locations
        values = pending.values
        k_est = pending.k_est
        telemetry = pending.telemetry
        collected_noise_stds = pending.noise_stds
        timestamp = pending.timestamp
        planned_m = pending.planned_m
        refused = telemetry.refused
        infra_reads = telemetry.infra_reads

        # Trust bookkeeping: every attributed row's accept/reject verdict
        # feeds its contributors' EWMA, then quarantine/release
        # transitions apply.  Serial phase — the only trust mutation.
        rejected_reports = 0
        if robust is not None:
            rejected = robust.row_rejected()
            rejected_reports = int(rejected.sum())
            sources = pending.sources
            slots = [self.trust.slot(n) for row in sources for n in row]
            counts = [len(row) for row in sources]
            self.trust.observe(slots, np.repeat(rejected, counts))
            self.trust.update_quarantine(
                self._rounds_run + 1, member_count=len(self.members)
            )

        # Adapt the sparsity estimate for the next round.  Shrink toward
        # the effective sparsity actually used; but if the fit left a
        # substantial residual at the measured cells, the field is richer
        # than K — grow the estimate instead (a K-capped solve can never
        # reveal more than K coefficients by itself).  Rows the robust
        # solve rejected are outliers, not field richness — judge the
        # residual on the surviving rows only.
        keep = (
            robust.kept
            if robust is not None
            else np.ones(locations.size, dtype=bool)
        )
        fitted = x_hat[locations[keep]]
        kept_values = values[keep]
        norm_values = max(float(np.linalg.norm(kept_values)), 1e-300)
        residual_rel = (
            float(np.linalg.norm(kept_values - fitted)) / norm_values
        )
        noise_floor = 0.0
        if collected_noise_stds:
            noise_floor = float(
                np.linalg.norm(np.asarray(collected_noise_stds)[keep])
            ) / norm_values
        if residual_rel > max(2.0 * noise_floor, 0.02):
            self.last_sparsity = min(
                int(np.ceil(k_est * 1.5)) + 1, max(self.n // 2, 1)
            )
        else:
            # Shrink toward the coefficients that actually carry energy.
            # The DC term of a physical field dwarfs everything else, so
            # measure the energy sparsity of the *remaining* spectrum and
            # count DC separately — mirroring ZoneGrid.local_sparsities.
            coefficients = result.coefficients.copy()
            if coefficients.size:
                coefficients[np.argmax(np.abs(coefficients))] = 0.0
            self.last_sparsity = max(
                energy_sparsity(coefficients, energy=0.99) + 1, 1
            )
        zone_field = SpatialField.from_vector(
            x_hat, self.zone_width, self.zone_height,
            name=f"{self.sensor_name}@{self.broker_id}",
        )
        self._rounds_run += 1
        self._history.append((float(self._rounds_run), x_hat.copy()))
        if len(self._history) > self.history_limit:
            self._history.pop(0)
        actual_plan = MeasurementPlan(n=self.n, locations=locations)
        degraded = (
            telemetry.commands_lost > 0
            or telemetry.reports_lost > 0
            or actual_plan.m < planned_m
            or rejected_reports > 0
        )
        return ZoneEstimate(
            field=zone_field,
            reconstruction=result,
            plan=actual_plan,
            timestamp=timestamp,
            reports_ok=int(locations.size) - infra_reads,
            reports_refused=refused,
            infra_reads=infra_reads,
            sparsity_estimate=k_est,
            commands_lost=telemetry.commands_lost,
            reports_lost=telemetry.reports_lost,
            retries_used=telemetry.retries_used,
            planned_m=planned_m,
            degraded=degraded,
            rejected_reports=rejected_reports,
            robust_rounds=robust.rounds if robust is not None else 0,
            quarantined_nodes=(
                tuple(sorted(self.trust.quarantined))
                if robust is not None
                else ()
            ),
            trust=self.trust.snapshot() if robust is not None else {},
        )

    def run_round(
        self,
        bus: MessageBus,
        nodes: dict[str, MobileNode],
        env: Environment,
        timestamp: float = 0.0,
        *,
        measurements: int | None = None,
        sparsity_cap: int | None = None,
    ) -> ZoneEstimate:
        """Execute one compressive aggregation round (all three phases).

        Parameters
        ----------
        bus:
            Transport; the broker and all member nodes must be registered.
        nodes:
            Node objects by id (the simulation's handle to make members
            answer their commands).
        env:
            Ground-truth environment the sensors read.
        measurements:
            Explicit M override (used by sweeps); default: policy choice.

        Raises
        ------
        RuntimeError
            If no usable measurements could be collected.
        """
        pending = self.collect_round(
            bus, nodes, env, timestamp,
            measurements=measurements, sparsity_cap=sparsity_cap,
        )
        return self.finalize_round(pending, *self.solve_round(pending))

    # -- context aggregation ----------------------------------------------

    def process_inbox(self, bus: MessageBus, now: float) -> int:
        """Consume pending CONTEXT_SHARE messages into the group
        aggregator; returns how many were processed."""
        processed = 0
        remaining = []
        for message in bus.endpoint(self.broker_id).drain():
            if message.kind is MessageKind.CONTEXT_SHARE:
                self.groups.add(
                    ContextReport(
                        node_id=message.source,
                        timestamp=message.timestamp,
                        kind=str(message.payload["kind"]),
                        value=message.payload["value"],
                    )
                )
                processed += 1
            else:
                remaining.append(message)
        # Non-context messages go back for their actual consumers,
        # through the bounded path (RPR008: never touch inbox directly).
        for message in remaining:
            bus.requeue(message)
        return processed

    def disseminate(
        self,
        bus: MessageBus,
        payload: dict,
        payload_values: int,
        timestamp: float,
    ) -> int:
        """Push collective information back to all members (the downlink
        of the paper's bidirectional NanoCloud).  Returns the number of
        members actually reached; churned or unreachable members are
        dropped and counted by the bus, never raised."""
        sent = 0
        for node_id in sorted(self.members):
            delivered = bus.send(
                Message(
                    kind=MessageKind.DISSEMINATE,
                    source=self.broker_id,
                    destination=node_id,
                    payload=payload,
                    payload_values=payload_values,
                    timestamp=timestamp,
                ),
                strict=False,
            )
            if delivered:
                sent += 1
        return sent
