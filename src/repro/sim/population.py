"""Struct-of-arrays node population: the city-scale simulation core.

One :class:`repro.middleware.node.MobileNode` object per node caps the
simulator near a few thousand nodes — every tick pays a Python call,
an attribute walk and a scalar RNG draw per node.  This module keeps
the *whole population* in contiguous numpy arrays (positions,
velocities, headings, zone ids, sensor noise stds, trust state) and
advances everything with the vectorized mobility steps of
:mod:`repro.mobility.models` and one batched noise chunk per zone.

Determinism contract
--------------------
The array core is not a different simulation, it is the *same*
simulation evaluated in bulk.  ``engine="object"`` preserves the
object-per-node path (real ``NodeState`` objects stepped one at a time
through the scalar mobility models, scalar noise draws); ``engine="vector"``
is the array path.  Both consume identical RNG streams — chunked draws
(``standard_normal((k, 2))``, ``random((k, 4))``) advance a Generator
exactly like the equivalent scalar sequence — so the two engines are
bit-identical, which ``tests/sim/test_population.py`` pins with
Hypothesis the same way ``repro.core.reference`` pins the solvers.

Streams are split with ``SeedSequence.spawn`` (via
:func:`repro.core.registry.spawn_shard_seeds`): one child for
placement, one for tier assignment, one for mobility, and one child
*per zone* for sensing noise — so a zone's measurement stream does not
depend on how many nodes other zones hold, and sharded replays stay
stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..core.registry import spawn_shard_seeds
from ..middleware.trust import TrustManager
from ..mobility.models import (
    MODE_NAMES,
    GaussMarkov,
    RandomWaypoint,
    StaticPlacement,
    gauss_markov_step_arrays,
    mode_codes_from_speed,
    random_waypoint_new_legs,
    random_waypoint_step_arrays,
    static_step_arrays,
)
from ..network.frames import ZoneReportFrame
from ..sensors.base import NodeState
from ..sensors.noise import (
    STANDARD_TIERS,
    QualityTier,
    batched_readings,
    tier_noise_multipliers,
)

__all__ = ["PopulationConfig", "NodePopulation"]

_MOBILITIES = ("static", "random_waypoint", "gauss_markov")
_ENGINES = ("vector", "object")


@dataclass(frozen=True)
class PopulationConfig:
    """Geometry, mobility and sensing parameters of one population."""

    n_nodes: int
    width: int
    height: int
    zones_x: int = 1
    zones_y: int = 1
    mobility: str = "gauss_markov"
    dt: float = 1.0
    # Gauss-Markov parameters.
    mean_speed: float = 4.0
    alpha: float = 0.85
    speed_std: float = 1.0
    heading_std: float = 0.3
    # Random-waypoint parameters.
    speed_range: tuple[float, float] = (0.5, 2.0)
    pause_range: tuple[float, float] = (0.0, 5.0)
    # Sensing parameters.
    base_noise_std: float = 0.5
    tiers: tuple[QualityTier, ...] = STANDARD_TIERS
    seed: int = 0
    engine: str = "vector"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("field dimensions must be positive")
        if self.zones_x < 1 or self.zones_y < 1:
            raise ValueError("zone counts must be positive")
        if self.width % self.zones_x or self.height % self.zones_y:
            raise ValueError(
                f"field {self.width}x{self.height} must tile evenly into "
                f"{self.zones_x}x{self.zones_y} zones"
            )
        if self.mobility not in _MOBILITIES:
            raise ValueError(
                f"unknown mobility {self.mobility!r}; expected one of "
                f"{_MOBILITIES}"
            )
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {_ENGINES}"
            )
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_zones(self) -> int:
        return self.zones_x * self.zones_y

    @property
    def zone_width(self) -> int:
        return self.width // self.zones_x

    @property
    def zone_height(self) -> int:
        return self.height // self.zones_y

    @property
    def cells_per_zone(self) -> int:
        return self.zone_width * self.zone_height


def _grid_cells(coords: np.ndarray, extent: int) -> np.ndarray:
    """Nearest field-grid cell along one axis, clamped into the field."""
    return np.clip(np.rint(coords).astype(np.int64), 0, extent - 1)


@dataclass
class _ObjectMirror:
    """The preserved object-per-node path (``engine="object"``)."""

    states: list[NodeState] = dataclass_field(default_factory=list)
    model: object = None


class NodePopulation:
    """All node state as contiguous arrays, advanced in bulk.

    Arrays (all length ``n_nodes``): ``x``, ``y``, ``speed``,
    ``heading``, ``mode`` (int8 codes into
    :data:`repro.mobility.models.MODE_NAMES`), ``noise_std``, and
    ``trust``/``quarantined`` (columns of the city's trust ledger,
    ``trust_ledger``).  ``zone_id`` is a property derived from
    ``x``/``y`` on first read after a tick.  Random-waypoint
    populations additionally keep the per-node leg plan
    (``leg_speed``, ``target_x``, ``target_y``, ``pause_next``,
    ``pause_left``) and the ``(2, n)`` leg direction cache ``leg_dir``
    (cos/sin of ``heading``) as arrays instead of dynamic attributes.
    """

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
        n = config.n_nodes
        root = np.random.SeedSequence(config.seed)
        place_ss, tier_ss, mob_ss, zone_parent = root.spawn(4)
        self._mob_rng = np.random.default_rng(mob_ss)
        self._zone_rngs = [
            np.random.default_rng(seq)
            for seq in spawn_shard_seeds(zone_parent, config.n_zones)
        ]

        place = np.random.default_rng(place_ss)
        draws = place.random((n, 3))
        self.x = 0.0 + (float(config.width) - 0.0) * draws[:, 0]
        self.y = 0.0 + (float(config.height) - 0.0) * draws[:, 1]
        self.heading = 0.0 + (2.0 * np.pi - 0.0) * draws[:, 2]
        self.speed = np.zeros(n)
        self.mode = np.zeros(n, dtype=np.int8)
        self.noise_std = config.base_noise_std * tier_noise_multipliers(
            n, config.tiers, np.random.default_rng(tier_ss)
        )
        self.trust_ledger = TrustManager(n, quarantine_below=0.25)
        # The ledger's own columns (an index ledger never reallocates).
        self.trust = self.trust_ledger.trust
        self.quarantined = self.trust_ledger.in_quarantine

        if config.mobility == "gauss_markov":
            self.speed[:] = config.mean_speed
        elif config.mobility == "random_waypoint":
            self.leg_speed = np.zeros(n)
            self.target_x = np.zeros(n)
            self.target_y = np.zeros(n)
            self.pause_next = np.zeros(n)
            self.pause_left = np.zeros(n)
            self.leg_dir = np.zeros((2, n))
            random_waypoint_new_legs(
                np.arange(n),
                self._mob_rng.random((n, 4)),
                self.x,
                self.y,
                self.heading,
                self.leg_dir,
                self.leg_speed,
                self.target_x,
                self.target_y,
                self.pause_next,
                width=float(config.width),
                height=float(config.height),
                speed_range=config.speed_range,
                pause_range=config.pause_range,
            )
            self.speed[:] = self.leg_speed
        self.mode[:] = mode_codes_from_speed(self.speed)
        self._zone_id: np.ndarray | None = None

        self._mirror: _ObjectMirror | None = None
        if config.engine == "object":
            self._mirror = self._build_mirror()

    # -- construction helpers ------------------------------------------

    def _build_mirror(self) -> _ObjectMirror:
        cfg = self.config
        model: StaticPlacement | RandomWaypoint | GaussMarkov
        if cfg.mobility == "static":
            model = StaticPlacement(cfg.width, cfg.height)
        elif cfg.mobility == "random_waypoint":
            model = RandomWaypoint(
                cfg.width,
                cfg.height,
                speed_range=cfg.speed_range,
                pause_range=cfg.pause_range,
            )
            model._rng = self._mob_rng  # share the population stream
        else:
            model = GaussMarkov(
                cfg.width,
                cfg.height,
                mean_speed=cfg.mean_speed,
                alpha=cfg.alpha,
                speed_std=cfg.speed_std,
                heading_std=cfg.heading_std,
            )
            model._rng = self._mob_rng
        states = []
        for i in range(cfg.n_nodes):
            state = NodeState(
                x=float(self.x[i]),
                y=float(self.y[i]),
                speed=float(self.speed[i]),
                heading=float(self.heading[i]),
                mode=MODE_NAMES[int(self.mode[i])],
            )
            if cfg.mobility == "random_waypoint":
                # Mirror the pre-drawn initial leg so the lazy _new_leg
                # branch never fires and the streams stay aligned.
                state._rwp_target = (  # type: ignore[attr-defined]
                    float(self.target_x[i]),
                    float(self.target_y[i]),
                )
                state._rwp_pause = float(self.pause_next[i])  # type: ignore[attr-defined]
                state._rwp_speed = float(self.leg_speed[i])  # type: ignore[attr-defined]
                state._rwp_pause_left = 0.0  # type: ignore[attr-defined]
            states.append(state)
        return _ObjectMirror(states=states, model=model)

    @property
    def zone_id(self) -> np.ndarray:
        """Per-node zone ids, computed on first read after a tick."""
        if self._zone_id is None:
            cfg = self.config
            zi = _grid_cells(self.x, cfg.width) // cfg.zone_width
            zj = _grid_cells(self.y, cfg.height) // cfg.zone_height
            self._zone_id = zi * cfg.zones_y + zj
        return self._zone_id

    # -- public geometry helpers ---------------------------------------

    def node_name(self, index: int) -> str:
        """Stable per-node id string (fault injectors key on it)."""
        return f"meganode-{index}"

    def grid_indices(
        self, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Field-grid (i, j) cells for nodes ``idx``."""
        cfg = self.config
        i = _grid_cells(self.x[idx], cfg.width)
        j = _grid_cells(self.y[idx], cfg.height)
        return i, j

    def cells_in_zone(self, idx: np.ndarray) -> np.ndarray:
        """Zone-local column-stacked cell index for nodes ``idx``.

        Matches :func:`repro.fields.field.vectorize`'s ``k = i * H + j``
        convention within the node's zone, so the returned values index
        rows of the zone's ``dct2_basis``.
        """
        cfg = self.config
        i, j = self.grid_indices(idx)
        ci = i - (i // cfg.zone_width) * cfg.zone_width
        cj = j - (j // cfg.zone_height) * cfg.zone_height
        return ci * cfg.zone_height + cj

    def zone_members(self, zone: int) -> np.ndarray:
        """Ascending indices of non-quarantined nodes in ``zone``."""
        return np.flatnonzero((self.zone_id == zone) & ~self.quarantined)

    # -- mobility ------------------------------------------------------

    def tick(self) -> None:
        """Advance every node by ``config.dt``; :attr:`zone_id` goes stale."""
        if self._mirror is not None:
            self._tick_object()
        else:
            self._tick_vector()
        self._zone_id = None

    def _tick_vector(self) -> None:
        cfg = self.config
        if cfg.mobility == "static":
            static_step_arrays(self.speed, self.mode)
        elif cfg.mobility == "gauss_markov":
            normals = self._mob_rng.standard_normal((cfg.n_nodes, 2))
            gauss_markov_step_arrays(
                self.x,
                self.y,
                self.speed,
                self.heading,
                self.mode,
                normals,
                dt=cfg.dt,
                width=float(cfg.width),
                height=float(cfg.height),
                mean_speed=cfg.mean_speed,
                alpha=cfg.alpha,
                speed_std=cfg.speed_std,
                heading_std=cfg.heading_std,
            )
        else:
            random_waypoint_step_arrays(
                self._mob_rng,
                self.x,
                self.y,
                self.speed,
                self.heading,
                self.leg_dir,
                self.mode,
                self.leg_speed,
                self.target_x,
                self.target_y,
                self.pause_next,
                self.pause_left,
                dt=cfg.dt,
                width=float(cfg.width),
                height=float(cfg.height),
                speed_range=cfg.speed_range,
                pause_range=cfg.pause_range,
            )

    def _tick_object(self) -> None:
        assert self._mirror is not None
        cfg = self.config
        model = self._mirror.model
        for i, state in enumerate(self._mirror.states):
            model.step(state, cfg.dt)  # type: ignore[attr-defined]
            self.x[i] = state.x
            self.y[i] = state.y
            self.speed[i] = state.speed
            self.heading[i] = state.heading
            self.mode[i] = MODE_NAMES.index(state.mode)

    # -- sensing -------------------------------------------------------

    def sense_round(
        self,
        truth: np.ndarray,
        *,
        round_index: int,
        reports_per_zone: int,
        fault_injector=None,
        now: float = 0.0,
    ) -> list[ZoneReportFrame]:
        """One batched sensing round: one frame per populated zone.

        Per zone (ascending id): draw the reporting subset from the
        zone's own stream (``choice`` without replacement — the broker's
        compressive-selection idiom), then one noise chunk for the
        selected nodes.  ``truth`` is the ground-truth field indexed as
        ``truth[i, j]``.  An optional
        :class:`repro.sensors.faults.SensorFaultInjector` corrupts the
        afflicted subset *after* honest noise, exactly like
        ``MobileNode.read_sensor`` — per-model streams make the call
        order across nodes irrelevant, but both engines apply it in the
        same (selection) order anyway.
        """
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (self.config.width, self.config.height):
            raise ValueError(
                f"truth field shape {truth.shape} != "
                f"({self.config.width}, {self.config.height})"
            )
        frames: list[ZoneReportFrame] = []
        for zone in range(self.config.n_zones):
            members = self.zone_members(zone)
            if members.size == 0:
                continue
            zrng = self._zone_rngs[zone]
            m = min(reports_per_zone, members.size)
            picked = members[
                zrng.choice(members.size, size=m, replace=False)
            ]
            gi, gj = self.grid_indices(picked)
            truth_vals = truth[gi, gj]
            stds = self.noise_std[picked].copy()
            if self._mirror is not None:
                values = np.empty(m)
                for k in range(m):
                    values[k] = (
                        truth_vals[k] + stds[k] * zrng.standard_normal()
                    )
            else:
                values = batched_readings(truth_vals, stds, zrng)
            if fault_injector is not None:
                for k in range(m):
                    name = self.node_name(int(picked[k]))
                    if name in fault_injector.faulty_nodes:
                        values[k], stds[k] = fault_injector.corrupt(
                            name, float(values[k]), float(stds[k]), now
                        )
            frames.append(
                ZoneReportFrame(
                    zone_id=zone,
                    round_index=round_index,
                    node_ids=picked,
                    values=values,
                    noise_stds=stds,
                )
            )
        return frames

    # -- trust ---------------------------------------------------------

    def update_trust(self, node_ids: np.ndarray, rejected: np.ndarray) -> None:
        """Fold one zone frame's verdicts (True = the robust layer threw
        the report out) into the city's trust ledger: the broker's
        :class:`repro.middleware.trust.TrustManager` over node indices,
        quarantining below 0.25.  A quarantined node leaves
        :meth:`zone_members`; the city sends no rehab probes, so its
        quarantine is one-way."""
        self.trust_ledger.observe(node_ids, rejected)
        self.trust_ledger.update_quarantine()

    # -- diagnostics ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def mode_names(self) -> list[str]:
        """Per-node activity mode strings (diagnostics)."""
        return [MODE_NAMES[int(code)] for code in self.mode]
