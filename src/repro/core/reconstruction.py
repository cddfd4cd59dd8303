"""High-level reconstruction API: one entry point over all solvers.

Brokers, context probes, baselines and benches all funnel through
:func:`reconstruct`, which takes measurements + locations + a basis and a
solver name, and returns a uniform :class:`Reconstruction` record.  This
keeps solver selection a *configuration* decision, matching the paper's
"tunable approximate processing" theme: the middleware can trade accuracy
for compute by switching solver or sparsity without touching call sites.

The basis may be a dense ``(N, N)`` array or a matrix-free
:class:`repro.core.operators.BasisOperator`; with an operator the full
basis is never materialised — solvers see only the ``(M, N)`` sampled
rows and the final synthesis runs as one fast transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..analysis import contracts
from . import metrics
from .chs import chs
from .l1 import l1_solve, l1_solve_noisy
from .least_squares import gls_solve, ols_solve
from .omp import omp
from .operators import BasisOperator
from .sampling import subsample_rows

__all__ = ["Reconstruction", "reconstruct", "SOLVERS"]

SolverName = Literal[
    "chs", "omp", "cosamp", "iht", "l1", "l1-noisy", "ols", "gls"
]
SOLVERS: tuple[str, ...] = (
    "chs", "omp", "cosamp", "iht", "l1", "l1-noisy", "ols", "gls"
)


@dataclass
class Reconstruction:
    """Uniform result record returned by :func:`reconstruct`."""

    x_hat: np.ndarray
    coefficients: np.ndarray
    support: np.ndarray
    solver: str
    m: int
    n: int

    @property
    def compression_ratio(self) -> float:
        return self.m / self.n

    def nmse(self, x_true: np.ndarray) -> float:
        return metrics.nmse(x_true, self.x_hat)

    def relative_error(self, x_true: np.ndarray) -> float:
        return metrics.relative_error(x_true, self.x_hat)

    def snr_db(self, x_true: np.ndarray) -> float:
        return metrics.snr_db(x_true, self.x_hat)


def _dense_support(coefficients: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(coefficients))) if coefficients.size else 0.0
    if peak == 0.0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(np.abs(coefficients) > 1e-8 * peak)


def reconstruct(
    measurements: np.ndarray,
    locations: np.ndarray,
    phi: np.ndarray | BasisOperator,
    *,
    solver: SolverName = "chs",
    sparsity: int | None = None,
    covariance: np.ndarray | None = None,
    noise_budget: float | None = None,
    batch_size: int = 1,
    center: bool = False,
) -> Reconstruction:
    """Reconstruct a full N-point field from M point measurements.

    Parameters
    ----------
    measurements:
        Sensor readings ``x_S`` at the given locations (length M).
    locations:
        Grid indices ``L`` of the reporting sensors.
    phi:
        Full ``(N, N)`` orthonormal synthesis basis, dense or as a
        matrix-free :class:`repro.core.operators.BasisOperator`.
    solver:
        One of ``chs`` (Fig. 6, default), ``omp`` (eq. 13), ``cosamp``
        / ``iht`` (standard greedy/thresholding alternatives), ``l1``
        (eqs. 9-10), ``l1-noisy`` (eq. 14 via LP), ``ols`` (eq. 11 on the
        leading-K columns), ``gls`` (eq. 12 likewise).
    sparsity:
        Target K.  Defaults to ``max(1, M // 2)``, keeping the refit
        overdetermined as the paper requires.
    covariance:
        Sensor-noise covariance V for GLS-style refits: a 1-D vector of
        per-measurement variances, or a full ``(M, M)`` matrix.
    noise_budget:
        Per-measurement tolerance for ``l1-noisy``.
    batch_size:
        CHS batch size (step 3c subset size).
    center:
        Model the field as ``baseline + sparse variation``: subtract the
        measurement sample mean before the sparse solve and add it back
        to ``x_hat`` afterwards.  Physical fields (temperature ~20 C,
        pressure ~1013 hPa) are dominated by their baseline, and at very
        small M a greedy solver can otherwise represent the baseline
        with a spuriously well-matching non-constant atom whose
        off-sample oscillation ruins the reconstruction.  Brokers enable
        this; leave off for zero-mean/exactly-sparse signals.

    Returns
    -------
    :class:`Reconstruction` with ``x_hat`` of length N.
    """
    measurements = np.asarray(measurements, dtype=float).ravel()
    locations = np.asarray(locations, dtype=int).ravel()
    op: BasisOperator | None
    dense: np.ndarray | None
    basis: np.ndarray | BasisOperator
    if isinstance(phi, BasisOperator):
        op, dense, basis = phi, None, phi
        n = phi.n
    else:
        if np.iscomplexobj(phi):
            # The real-valued solver stack would silently drop imaginary
            # parts; require the caller to lift a complex basis (e.g. DFT)
            # to its stacked real/imaginary form explicitly.
            raise ValueError(
                "complex basis not supported by reconstruct(); use a real "
                "basis (dct/dct2/haar) or stack real and imaginary parts"
            )
        dense = np.asarray(phi, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("phi must be the square synthesis basis")
        op, basis = None, dense
        n = dense.shape[0]
    m = locations.size
    if measurements.size != m:
        raise ValueError(f"{measurements.size} measurements for {m} locations")
    if m == 0:
        raise ValueError("need at least one measurement")
    if sparsity is None:
        sparsity = max(1, m // 2)
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if contracts.enabled():
        # Sanitizer boundary: a NaN/Inf measurement (a faulty sensor, a
        # broken upstream transform) must fail loudly here, not emerge
        # as a silently poisoned field estimate.
        contracts.check_finite(
            "measurements", measurements, context="reconstruct"
        )
        if covariance is not None:
            contracts.check_finite(
                "covariance", covariance, context="reconstruct"
            )
            # One variance per row (what the middleware passes), or a
            # full (m, m) matrix.
            contracts.check_shape(
                "covariance",
                covariance,
                (m,) if np.ndim(covariance) == 1 else (m, m),
                context="reconstruct",
            )

    # Baseline + sparse variation: subtract the sample mean here, solve
    # once, and add the baseline back onto x_hat at the end — one code
    # path instead of a re-dispatching recursive solve.
    baseline = float(measurements.mean()) if center else 0.0
    values = measurements - baseline if center else measurements

    def sample_rows() -> np.ndarray:
        # The (M, N) block, formed once by whichever solver consumes it
        # (chs samples its own from the full basis).
        if op is not None:
            return op.rows(locations)
        assert dense is not None
        return subsample_rows(dense, locations)

    def synthesize(coefficients: np.ndarray) -> np.ndarray:
        if op is not None:
            return op.synthesize(coefficients)
        assert dense is not None
        return dense @ coefficients

    if solver == "chs":
        result = chs(
            basis,
            values,
            locations,
            max_sparsity=sparsity,
            batch_size=batch_size,
            covariance=covariance,
        )
        x_hat = result.reconstruction
        coefficients = result.coefficients
        support = result.support
    elif solver == "omp":
        result = omp(
            sample_rows(),
            values,
            sparsity=min(sparsity, m, n),
            covariance=covariance,
        )
        coefficients = result.coefficients
        support = result.support
        x_hat = synthesize(coefficients)
    elif solver in ("cosamp", "iht"):
        from .greedy import cosamp as cosamp_solve
        from .greedy import iht as iht_solve

        k = min(sparsity, max(m - 1, 1), n)
        if solver == "cosamp":
            greedy = cosamp_solve(sample_rows(), values, sparsity=k)
        else:
            greedy = iht_solve(sample_rows(), values, sparsity=k)
        coefficients = greedy.coefficients
        support = greedy.support
        x_hat = synthesize(coefficients)
    elif solver in ("l1", "l1-noisy"):
        if solver == "l1":
            result = l1_solve(sample_rows(), values)
        else:
            budget = noise_budget if noise_budget is not None else 1e-3
            result = l1_solve_noisy(sample_rows(), values, budget)
        coefficients = result.coefficients
        support = result.support
        x_hat = synthesize(coefficients)
    else:
        # ols / gls: fixed leading-K coefficient columns (low-frequency
        # model), the paper's closed-form overdetermined case (eqs. 11-12).
        k = min(sparsity, m, n)
        columns = np.arange(k)
        phi_k = sample_rows()[:, columns]
        if solver == "ols":
            alpha_k = ols_solve(phi_k, values)
        else:
            if covariance is None:
                raise ValueError("gls solver requires a covariance")
            alpha_k = gls_solve(phi_k, values, covariance)
        coefficients = np.zeros(n)
        coefficients[columns] = alpha_k
        support = _dense_support(coefficients)
        x_hat = synthesize(coefficients)

    if center:
        x_hat = x_hat + baseline
    if contracts.enabled():
        # Exit contract: the estimate must be a finite length-N field.
        contracts.check_vector("x_hat", x_hat, n, context=f"{solver} solve")
        contracts.check_vector(
            "coefficients", coefficients, n, context=f"{solver} solve"
        )
        contracts.check_finite("x_hat", x_hat, context=f"{solver} solve")
    return Reconstruction(
        x_hat=x_hat,
        coefficients=coefficients,
        support=support,
        solver=solver,
        m=m,
        n=n,
    )
