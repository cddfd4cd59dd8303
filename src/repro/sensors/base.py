"""Sensor abstractions: specs, readings, environment, node state.

SenseDroid "enables and provides data capture from different sensors on
(or attached to) mobile phones by providing configurable sensing probes"
(Section 3).  Offline, a sensor is a function of the *environment* (the
ground-truth physical world we simulate) and the *node state* (where the
phone is and what its user is doing).  Every concrete sensor declares a
:class:`SensorSpec` carrying its noise characteristics — the source of
the heterogeneity covariance V in the GLS solution (eq. 12) — and its
per-sample energy cost, which feeds :mod:`repro.energy`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..fields.field import SpatialField

__all__ = [
    "SensorSpec",
    "SensorReading",
    "NodeState",
    "Environment",
    "Sensor",
]


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one sensor's quality and cost.

    Attributes
    ----------
    name:
        Sensor type name, e.g. ``"temperature"``.
    unit:
        Physical unit of the readings.
    noise_std:
        Standard deviation of additive Gaussian read noise.  Differs
        across phone models — the paper's "heterogeneous sensors with
        different characteristics and quality (as in different mobile
        phone)".
    bias:
        Constant additive offset (cheap sensors are often biased).
    resolution:
        Quantisation step of the ADC; 0 disables quantisation.
    energy_per_sample_mj:
        Energy drawn per sample, in millijoules.
    max_rate_hz:
        Highest supported sampling rate.
    """

    name: str
    unit: str = ""
    noise_std: float = 0.0
    bias: float = 0.0
    resolution: float = 0.0
    energy_per_sample_mj: float = 0.1
    max_rate_hz: float = 100.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sensor name must be non-empty")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.resolution < 0:
            raise ValueError("resolution must be non-negative")
        if self.energy_per_sample_mj < 0:
            raise ValueError("energy_per_sample_mj must be non-negative")
        if self.max_rate_hz <= 0:
            raise ValueError("max_rate_hz must be positive")

    @property
    def variance(self) -> float:
        """Noise variance — one diagonal entry of the GLS covariance V."""
        return self.noise_std**2


@dataclass(frozen=True)
class SensorReading:
    """One timestamped sensor sample."""

    sensor: str
    timestamp: float
    value: float
    unit: str = ""
    node_id: str = ""
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


@dataclass
class NodeState:
    """Kinematic and activity state of one mobile node.

    ``mode`` is the ground-truth user activity (``"idle"``, ``"walking"``,
    ``"driving"``) that the IsDriving context probe tries to infer;
    ``indoor`` is the ground truth behind the IsIndoor flag.
    """

    x: float = 0.0
    y: float = 0.0
    speed: float = 0.0
    heading: float = 0.0  # radians, 0 = +x
    mode: str = "idle"
    indoor: bool = False

    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Environment:
    """Ground-truth world the simulated sensors observe.

    Attributes
    ----------
    fields:
        Named scalar fields (``"temperature"``, ``"pollution"``, ...);
        sensors read them at the node's grid cell.
    indoor_map:
        Optional 0/1 field marking indoor cells; drives GPS satellite
        visibility and the WiFi AP density model.
    ambient_sound_db:
        Baseline sound pressure level for microphones.
    ambient_light_lux:
        Baseline outdoor illuminance for light sensors.
    magnetic_declination:
        Offset between true and magnetic heading (radians).
    """

    fields: dict[str, SpatialField] = field(default_factory=dict)
    indoor_map: SpatialField | None = None
    ambient_sound_db: float = 45.0
    ambient_light_lux: float = 10000.0
    magnetic_declination: float = 0.0

    def field_value(self, name: str, x: float, y: float) -> float:
        """Read field ``name`` at continuous position (x, y) by clamped
        nearest-cell lookup."""
        try:
            fld = self.fields[name]
        except KeyError:
            raise KeyError(
                f"environment has no field {name!r}; available: "
                f"{sorted(self.fields)}"
            ) from None
        i = min(max(round(x), 0), fld.width - 1)
        j = min(max(round(y), 0), fld.height - 1)
        return float(fld.grid[j, i])

    def is_indoor(self, x: float, y: float) -> bool:
        """Ground-truth indoor flag at (x, y); False with no indoor map."""
        if self.indoor_map is None:
            return False
        i = min(max(round(x), 0), self.indoor_map.width - 1)
        j = min(max(round(y), 0), self.indoor_map.height - 1)
        return bool(self.indoor_map.grid[j, i] > 0.5)


class Sensor(ABC):
    """Base class for all simulated sensors.

    Concrete sensors implement :meth:`_true_value`; the base class layers
    the spec's bias, Gaussian noise and quantisation on top, so noise
    behaviour is uniform and testable in one place.
    """

    def __init__(
        self,
        spec: SensorSpec,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(rng)
        self.samples_taken = 0

    @abstractmethod
    def _true_value(
        self, env: Environment, state: NodeState, timestamp: float
    ) -> float:
        """Noise-free physical value this sensor would observe."""

    def read(
        self, env: Environment, state: NodeState, timestamp: float
    ) -> SensorReading:
        """Take one sample: truth + bias + noise, then quantise."""
        value = self._true_value(env, state, timestamp) + self.spec.bias
        if self.spec.noise_std > 0:
            value += self._rng.standard_normal() * self.spec.noise_std
        if self.spec.resolution > 0:
            value = round(value / self.spec.resolution) * self.spec.resolution
        self.samples_taken += 1
        return SensorReading(
            sensor=self.spec.name,
            timestamp=timestamp,
            value=float(value),
            unit=self.spec.unit,
            noise_std=self.spec.noise_std,
        )

    @property
    def energy_spent_mj(self) -> float:
        """Total sensing energy drawn so far."""
        return self.samples_taken * self.spec.energy_per_sample_mj
