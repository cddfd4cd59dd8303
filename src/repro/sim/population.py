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
simulation evaluated in bulk.  Chunked draws
(``standard_normal((k, 2))``, ``random((k, 4))``) advance a Generator
exactly like the equivalent scalar sequence, so stepping real
``NodeState`` objects one at a time through the scalar mobility
models, with scalar noise draws, gives the same arrays bit for bit.
That object-per-node path lives beside its tests
(``tests/sim/object_population.py``), where
``tests/sim/test_population.py`` pins the two with Hypothesis the same
way ``repro.core.reference`` pins the solvers.

Streams are split with ``SeedSequence.spawn`` (via
:func:`repro.core.registry.spawn_shard_seeds`): one child for
placement, one for tier assignment, one for mobility, and one child
*per zone* for sensing noise — so a zone's measurement stream does not
depend on how many nodes other zones hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import spawn_shard_seeds
from ..middleware.trust import TrustManager
from ..mobility.models import (
    MODE_NAMES,
    gauss_markov_step_arrays,
    mode_codes_from_speed,
    random_waypoint_new_legs,
    random_waypoint_step_arrays,
    static_step_arrays,
)
from ..network.frames import ZoneReportFrame
from ..sensors.noise import (
    STANDARD_TIERS,
    batched_readings,
    tier_noise_multipliers,
)

__all__ = ["PopulationConfig", "NodePopulation"]

_MOBILITIES = ("static", "random_waypoint", "gauss_markov")

#: Gauss-Markov parameters every population moves with.
GM_MEAN_SPEED = 4.0
GM_ALPHA = 0.85
GM_SPEED_STD = 1.0
GM_HEADING_STD = 0.3
#: Per-reading noise before each node's handset-tier multiplier.
BASE_NOISE_STD = 0.5


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
    # Random-waypoint parameters.
    speed_range: tuple[float, float] = (0.5, 2.0)
    pause_range: tuple[float, float] = (0.0, 5.0)
    seed: int = 0

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


def _grid_cells(coords: np.ndarray, extent: int) -> np.ndarray:
    """Nearest field-grid cell along one axis, clamped into the field."""
    return np.clip(np.rint(coords).astype(np.int64), 0, extent - 1)


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

    #: One noise chunk per zone frame; a scalar-draw override is the
    #: object-per-node oracle.
    _readings = staticmethod(batched_readings)

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
        self.noise_std = BASE_NOISE_STD * tier_noise_multipliers(
            n, STANDARD_TIERS, np.random.default_rng(tier_ss)
        )
        self.trust_ledger = TrustManager(n, quarantine_below=0.25)
        # The ledger's own columns (an index ledger never reallocates).
        self.trust = self.trust_ledger.trust
        self.quarantined = self.trust_ledger.in_quarantine

        if config.mobility == "gauss_markov":
            self.speed[:] = GM_MEAN_SPEED
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
                mean_speed=GM_MEAN_SPEED,
                alpha=GM_ALPHA,
                speed_std=GM_SPEED_STD,
                heading_std=GM_HEADING_STD,
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
        self._zone_id = None

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
        order across nodes irrelevant, but it is applied in selection
        order anyway.
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
            values = self._readings(truth_vals, stds, zrng)
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
