"""Sensor-fusion primitives used to build virtual sensors.

Fig. 3 of the paper shows physical sensor measurements fused "to
construct more meaningful sensors (e.g. orientation, compass and
inclinometer sensors)".  These are the standard small fusion blocks:
tilt from gravity, tilt-compensated compass heading, complementary
filtering of gyro + accelerometer, and windowed smoothing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tilt_from_gravity",
    "heading_from_magnetometer",
    "complementary_filter",
    "moving_average",
    "exponential_smoother",
]

GRAVITY = 9.81


def tilt_from_gravity(ax: float, ay: float, az: float) -> tuple[float, float]:
    """(pitch, roll) in radians from a gravity-dominated accelerometer
    reading — the inclinometer virtual sensor."""
    norm = float(np.sqrt(ax * ax + ay * ay + az * az))
    if norm == 0.0:
        raise ValueError("zero acceleration vector has no orientation")
    pitch = float(np.arctan2(-ax, np.sqrt(ay * ay + az * az)))
    roll = float(np.arctan2(ay, az))
    return pitch, roll


def heading_from_magnetometer(
    mx: float, my: float, mz: float, pitch: float, roll: float,
    declination: float = 0.0,
) -> float:
    """Tilt-compensated compass heading in radians, in [0, 2*pi).

    Rotates the magnetometer vector into the horizontal plane using the
    (pitch, roll) from :func:`tilt_from_gravity`, then takes the planar
    angle plus magnetic declination.
    """
    cos_p, sin_p = np.cos(pitch), np.sin(pitch)
    cos_r, sin_r = np.cos(roll), np.sin(roll)
    xh = mx * cos_p + mz * sin_p
    yh = mx * sin_r * sin_p + my * cos_r - mz * sin_r * cos_p
    # Counter-clockwise-from-+x convention, matching NodeState.heading.
    heading = float(np.arctan2(yh, xh)) + declination
    return float(heading % (2 * np.pi))


def complementary_filter(
    gyro_rates: np.ndarray,
    accel_angles: np.ndarray,
    dt: float,
    alpha: float = 0.98,
    initial: float | None = None,
) -> np.ndarray:
    """Fuse a gyro rate stream with accelerometer-derived angles.

    The classic estimator ``theta[t] = alpha*(theta[t-1] + w*dt) +
    (1-alpha)*theta_acc[t]``: the gyro term tracks fast motion, the
    accelerometer term removes drift.
    """
    gyro_rates = np.asarray(gyro_rates, dtype=float).ravel()
    accel_angles = np.asarray(accel_angles, dtype=float).ravel()
    if gyro_rates.shape != accel_angles.shape:
        raise ValueError("gyro and accel streams must have equal length")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    if gyro_rates.size == 0:
        return np.zeros(0)
    theta = np.empty_like(gyro_rates)
    theta[0] = accel_angles[0] if initial is None else initial
    for i in range(1, gyro_rates.size):
        predicted = theta[i - 1] + gyro_rates[i] * dt
        theta[i] = alpha * predicted + (1.0 - alpha) * accel_angles[i]
    return theta


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered-causal moving average with edge shrinking (output length
    equals input length)."""
    values = np.asarray(values, dtype=float).ravel()
    if window <= 0:
        raise ValueError("window must be positive")
    if values.size == 0:
        return np.zeros(0)
    kernel = np.ones(min(window, values.size))
    sums = np.convolve(values, kernel, mode="full")[: values.size]
    counts = np.convolve(np.ones_like(values), kernel, mode="full")[: values.size]
    return sums / counts


def exponential_smoother(values: np.ndarray, alpha: float) -> np.ndarray:
    """First-order IIR smoothing ``y[t] = alpha*x[t] + (1-alpha)*y[t-1]``."""
    values = np.asarray(values, dtype=float).ravel()
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if values.size == 0:
        return np.zeros(0)
    out = np.empty_like(values)
    out[0] = values[0]
    for i in range(1, values.size):
        out[i] = alpha * values[i] + (1 - alpha) * out[i - 1]
    return out
