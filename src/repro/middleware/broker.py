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
from ..network.bus import MessageBus
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
    map, so the synchronous collect loop and the event-driven round
    driver command the exact same cells from the exact same draw
    sequence.
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

    def _command_node(
        self,
        node: MobileNode,
        grid_index: int,
        bus: MessageBus,
        env: Environment,
        timestamp: float,
        telemetry: _RoundTelemetry | None = None,
    ) -> dict | None:
        """Command/telemetry exchange with a member node, with retries.

        Returns the report payload, or ``None`` when every attempt
        failed — command lost, report lost, or the node churned off the
        bus entirely (the drop-and-count ``strict=False`` path).  Each
        retry re-transmits after a capped exponential backoff in
        *simulated* time (the retry command's timestamp advances), and
        is metered through the link model like any other message, so the
        energy ledgers price reliability honestly.
        """
        if telemetry is None:
            telemetry = _RoundTelemetry()
        backoff = self.config.retry_backoff_s
        attempt_time = timestamp
        for attempt in range(self.config.command_retries + 1):
            if attempt:
                telemetry.retries_used += 1
                attempt_time += backoff * 2 ** min(attempt - 1, 5)
            command = Message(
                kind=MessageKind.SENSE_COMMAND,
                source=self.broker_id,
                destination=node.node_id,
                payload={
                    "sensor": self.sensor_name,
                    "grid_index": grid_index,
                },
                payload_values=2,
                timestamp=attempt_time,
            )
            if not bus.send(command, strict=False):
                telemetry.commands_lost += 1
                continue
            # Drain the node's inbox so the command is consumed in order.
            for message in bus.endpoint(node.node_id).drain():
                if message.message_id == command.message_id:
                    node.handle_command(message, env, bus)
            for message in bus.endpoint(self.broker_id).drain():
                if (
                    message.kind is MessageKind.SENSE_REPORT
                    and message.source == node.node_id
                ):
                    return message.payload
            # The command arrived (the node sensed and replied), but the
            # report leg never made it back.
            telemetry.reports_lost += 1
        return None

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

    def _collect_cell(
        self,
        cell: int,
        members_by_cell: dict[int, list[str]],
        nodes: dict[str, MobileNode],
        bus: MessageBus,
        env: Environment,
        timestamp: float,
        collected: _Collected,
        telemetry: _RoundTelemetry,
        probes: dict[int, str] | None = None,
    ) -> bool:
        """Try to realise one planned measurement at ``cell``.

        Commands candidate nodes in rotation order, falls back to an
        infrastructure sensor, and appends the result to ``collected``.
        Returns True when the cell produced a value.
        """
        value: float | None = None
        noise_std: float | None = None
        cell_values: list[float] = []
        cell_stds: list[float] = []
        cell_sources: list[str] = []
        for node_id in self._cell_order(
            cell, members_by_cell, nodes, probes
        ):
            node = nodes.get(node_id)
            if node is None:
                continue
            payload = self._command_node(
                node, cell, bus, env, timestamp, telemetry
            )
            if payload and payload.get("ok"):
                cell_values.append(float(payload["value"]))
                cell_stds.append(float(payload.get("noise_std", 0.0)))
                cell_sources.append(node_id)
                if self.config.suppress_redundant:
                    # Aquiba-style suppression [25]: one answer per
                    # cell is enough; spare the co-located phones.
                    break
            elif payload is not None:
                # An explicit refusal (privacy / missing sensor); lost
                # exchanges are already counted in the telemetry.
                telemetry.refused += 1
        if cell_values:
            # Multiple (unsuppressed) co-located reports average to
            # a lower-noise virtual reading: std scales as 1/sqrt(r).
            value = float(np.mean(cell_values))
            noise_std = float(
                np.sqrt(np.mean(np.square(cell_stds)))
                / np.sqrt(len(cell_stds))
            )
        if value is None and cell in self.infrastructure:
            value, noise_std = self._read_infrastructure(
                cell, env, timestamp
            )
            telemetry.infra_reads += 1
            cell_sources = []
        if value is None:
            return False
        collected.add(cell, value, noise_std, tuple(cell_sources))
        return True

    # -- the aggregation round -------------------------------------------
    #
    # A round has three phases joined by data, not by shared state:
    #
    #   collect_round   — bus traffic, node commands, RNG draws; ends by
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
        """Draw one round's sampling plan (all of the round's RNG).

        Shared by the synchronous collect loop and the event-driven
        round driver, so both command the same cells from the same draw
        sequence.  ``sparsity_cap`` clamps the round's working sparsity
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

    def _infra_sweep(
        self,
        collected: _Collected,
        telemetry: _RoundTelemetry,
        env: Environment,
        timestamp: float,
    ) -> None:
        """Last-ditch graceful degradation: the whole crowd is dark
        (total loss, partition, mass churn) but the zone still owns
        fixed sensors — read them all rather than abort."""
        for cell in sorted(self.infrastructure):
            value, noise_std = self._read_infrastructure(cell, env, timestamp)
            telemetry.infra_reads += 1
            collected.add(cell, value, noise_std)

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

        Raises
        ------
        RuntimeError
            If no usable measurements could be collected.
        """
        round_plan = self.plan_round(
            measurements=measurements, sparsity_cap=sparsity_cap
        )
        members_by_cell = round_plan.members_by_cell

        collected = _Collected()
        telemetry = _RoundTelemetry()
        planned_m = round_plan.planned_m
        for cell in round_plan.plan.locations.tolist():
            self._collect_cell(
                cell, members_by_cell, nodes, bus, env, timestamp,
                collected, telemetry, round_plan.probes,
            )

        if (
            self.config.topup_resampling
            and len(collected.locations) < planned_m
        ):
            # Replacement sampling: a lost report is just a dropped row
            # of Phi — draw substitute cells from the uncommanded
            # coverage until the effective M is back near the plan (or
            # the coverage runs out).
            attempted = set(round_plan.plan.locations.tolist())
            spare = np.array(
                [c for c in round_plan.candidates.tolist() if c not in attempted],
                dtype=int,
            )
            for idx in self._rng.permutation(spare.size):
                if len(collected.locations) >= planned_m:
                    break
                self._collect_cell(
                    int(spare[idx]), members_by_cell, nodes, bus, env,
                    timestamp, collected, telemetry,
                )

        if not collected.locations and self.infrastructure:
            self._infra_sweep(collected, telemetry, env, timestamp)

        return self._freeze_round(
            collected, telemetry, round_plan.k_est, planned_m, timestamp
        )

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
