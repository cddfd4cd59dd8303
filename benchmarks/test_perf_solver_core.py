"""PERF — the solver core vs the seed reference implementations.

Two kernel comparisons, each ``chs``/``omp`` against its oracle
(``chs_reference``/``omp_reference``) on identical inputs, plus one
end-to-end timing:

- **PERF-CHS**: the Fig. 6 CHS solver at N in {256, 1024, 4096} with the
  default zero-fill interpolator, once with the OLS refit and once with
  the GLS refit over a per-sensor variance vector (the form the
  middleware passes).  ``chs`` replaces the O(N^2) dense analysis with
  the O(M*N) sampled-row adjoint, the quadratic membership scan with a
  boolean mask, and the from-scratch per-step refit with the shared
  projection-update loop; the matrix-free DCT operator removes the
  N x N basis build entirely.
- **PERF-OMP**: OMP at the same sizes and fits.  ``omp`` runs the same
  loop: an orthonormal factor of the selected columns, the residual
  updated by projection, the coefficients solved once; the reference
  refits from scratch (and re-whitens) every iteration.
- **PERF-ZONE**: one city zone fit's pieces at the ``city_solve``
  shape (a 32x32 zone, N = 1024, ``stop_at_noise=True``, 128 reports
  from a seeded ``MegaSimulation`` round): the GLS fit over every
  report with its variance vector, trim's equal-weight fits (at the
  zone's mean claimed variance) over every report and over the 64
  reports nearest the value median (a C-step's half sample), and
  one ``IncrementalQR.solve`` at the k = 1 a city fit mostly holds.
  These are fixed-cost-bound calls, timed per call in microseconds.
- **PERF-ROUND**: one full ``sense_field`` round over a 2048-node
  deployment (4 zones of 64x64 cells, 512 phones each) — the
  end-to-end number a deployment feels.  (Its reference-engine arm
  went with the engine knob; the last figure taken with it, 5.1x, is
  in EXPERIMENTS.md.)

Results go to ``benchmarks/results/PERF-*.txt`` and are merged into
``BENCH_PERF.json`` at the repo root.  Smoke mode
(``REPRO_PERF_SMOKE=1``) shrinks every size and drops the timing
assertions so CI can execute the code paths on shared runners where
wall-clock guarantees are meaningless.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path

import numpy as np

from repro.core.basis import dct_basis
from repro.core.chs import chs
from repro.core.incremental import IncrementalQR
from repro.core.omp import omp
from repro.core.operators import DCTOperator
from repro.core.reference import chs_reference, omp_reference
from repro.fields.generators import urban_temperature_field
from repro.middleware.api import SenseDroid
from repro.middleware.config import GLS_STD_FLOOR, HierarchyConfig
from repro.sensors.base import Environment
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import PopulationConfig

from _util import merge_bench_json, record_series

SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") not in ("", "0")
# Smoke runs land next to the other bench artefacts so they never
# clobber the committed full-mode numbers at the repo root.
BENCH_JSON = (
    Path(__file__).resolve().parent / "results" / "BENCH_PERF.smoke.json"
    if SMOKE
    else Path(__file__).resolve().parent.parent / "BENCH_PERF.json"
)

CHS_SIZES = (64, 128, 256) if SMOKE else (256, 1024, 4096)
ROUND_ZONES = 2  # zones_x = zones_y
ROUND_NODES_PER_NC = 16 if SMOKE else 512  # 4 zones -> 64 / 2048 nodes
ROUND_FIELD = 32 if SMOKE else 128  # square global field edge


_merge_bench_json = functools.partial(
    merge_bench_json, BENCH_JSON, "bench-perf/1", SMOKE
)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _solver_problem(n: int, seed: int):
    """A compressible instance at size N: M = N/8 samples, K = N/64."""
    rng = np.random.default_rng(seed)
    m = max(n // 8, 8)
    k = max(n // 64, 4)
    phi = dct_basis(n)
    alpha = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    alpha[support] = rng.standard_normal(k) * 3.0
    x = phi @ alpha
    locations = np.sort(rng.choice(n, size=m, replace=False))
    x_s = x[locations] + 0.01 * rng.standard_normal(m)
    return phi, x_s, locations, k


def _variances(n: int, m: int) -> np.ndarray:
    """Per-sensor variance vector for the GLS arms."""
    return np.random.default_rng(n + 2).uniform(0.01, 0.3, m) ** 2


def test_perf_chs_solver(benchmark):
    rows = []
    runs = []
    for n in CHS_SIZES:
        phi, x_s, locations, k = _solver_problem(n, seed=n)
        operator = DCTOperator(n)
        sparsity = k + 2
        repeats = 3 if n <= 1024 else 2
        for fit, covariance in (
            ("ols", None), ("gls", _variances(n, locations.size))
        ):
            ref = _best_of(
                lambda: chs_reference(
                    phi, x_s, locations, max_sparsity=sparsity,
                    covariance=covariance,
                ),
                repeats,
            )
            fast = _best_of(
                lambda: chs(
                    operator, x_s, locations, max_sparsity=sparsity,
                    covariance=covariance,
                ),
                repeats,
            )
            # The two must agree before their timings mean anything.
            a = chs_reference(
                phi, x_s, locations, max_sparsity=sparsity,
                covariance=covariance,
            )
            b = chs(
                operator, x_s, locations, max_sparsity=sparsity,
                covariance=covariance,
            )
            assert np.allclose(a.reconstruction, b.reconstruction, atol=1e-8)

            speedup = ref / fast
            rows.append([n, locations.size, sparsity, fit, ref * 1e3,
                         fast * 1e3, round(speedup, 2)])
            runs.append(
                {
                    "n": n, "m": int(locations.size),
                    "sparsity": int(sparsity), "fit": fit,
                    "reference_s": ref, "fast_s": fast, "speedup": speedup,
                }
            )

    if not SMOKE:
        # Acceptance: >= 5x at N = 4096 with the default interpolator.
        assert runs[-2]["n"] == 4096 and runs[-2]["fit"] == "ols"
        assert runs[-2]["speedup"] >= 5.0

    record_series(
        "PERF-CHS",
        "CHS solve: chs_reference vs chs (ms, best-of runs)",
        ["n", "m", "k", "fit", "reference_ms", "fast_ms", "speedup"],
        rows,
        notes="fast = sampled-row adjoint + shared projection-update loop "
        "+ DCT operator; gls = per-sensor variance vector"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json("chs", {"runs": runs})
    n = CHS_SIZES[-1]
    phi, x_s, locations, k = _solver_problem(n, seed=n)
    operator = DCTOperator(n)
    benchmark.pedantic(
        lambda: chs(operator, x_s, locations, max_sparsity=k + 2),
        rounds=3, iterations=1,
    )


def test_perf_omp_solver(benchmark):
    rows = []
    runs = []
    for n in CHS_SIZES:
        phi, x_s, locations, k = _solver_problem(n, seed=n + 1)
        phi_rows = phi[locations, :]
        repeats = 3
        for fit, covariance in (
            ("ols", None), ("gls", _variances(n, locations.size))
        ):
            ref = _best_of(
                lambda: omp_reference(
                    phi_rows, x_s, k, covariance=covariance
                ),
                repeats,
            )
            fast = _best_of(
                lambda: omp(phi_rows, x_s, sparsity=k, covariance=covariance),
                repeats,
            )
            a = omp_reference(phi_rows, x_s, k, covariance=covariance)
            b = omp(phi_rows, x_s, sparsity=k, covariance=covariance)
            assert np.allclose(a.coefficients, b.coefficients, atol=1e-8)

            speedup = ref / fast
            rows.append([n, locations.size, k, fit, ref * 1e3, fast * 1e3,
                         round(speedup, 2)])
            runs.append(
                {
                    "n": n, "m": int(locations.size), "sparsity": int(k),
                    "fit": fit,
                    "reference_s": ref, "fast_s": fast, "speedup": speedup,
                }
            )

    record_series(
        "PERF-OMP",
        "OMP solve: omp_reference vs omp (ms, best-of runs)",
        ["n", "m", "k", "fit", "reference_ms", "fast_ms", "speedup"],
        rows,
        notes="fast = support mask + projection-update residual, one "
        "triangular solve; gls = per-sensor variance vector"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json("omp", {"runs": runs})
    n = CHS_SIZES[-1]
    phi, x_s, locations, k = _solver_problem(n, seed=n + 1)
    phi_rows = phi[locations, :]
    benchmark.pedantic(
        lambda: omp(phi_rows, x_s, sparsity=k), rounds=3, iterations=1
    )


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean microseconds per call over ``calls``."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def _city_zones():
    """The nine delivered zones of one ``city_solve``-shape round at
    seed 7: each zone's basis rows, readings and GLS-floored variances."""
    sim = MegaSimulation(
        MegaConfig(
            population=PopulationConfig(
                n_nodes=10_000, width=96, height=96, zones_x=3, zones_y=3,
                mobility="random_waypoint", seed=7,
            ),
            reports_per_zone=128,
            sparsity=16,
        )
    )
    zones = []
    for frame in sim.population.sense_round(
        sim.truth, round_index=0, reports_per_zone=128
    ):
        cells = sim.population.cells_in_zone(frame.node_ids)
        stds = np.maximum(np.asarray(frame.noise_stds), GLS_STD_FLOOR)
        zones.append((sim.basis[cells], np.asarray(frame.values), stds**2))
    return zones


def _zone_fits(rows_all, values, variances):
    """The fit shapes a zone's robust solve is made of: GLS over every
    report, and trim's equal-weight fits at the zone's mean claimed
    variance (as ``repro.sim.mega``'s run) over every report and over
    a C-step's half sample, the reports nearest the value median."""
    m = values.size
    half = np.sort(
        np.argsort(np.abs(values - np.median(values)), kind="stable")[: m // 2]
    )
    equal_weight = float(np.mean(variances))
    return {
        "gls": (rows_all, values, variances),
        "equal_full": (rows_all, values, equal_weight),
        "equal": (rows_all[half], values[half], equal_weight),
    }


def test_perf_city_zone_fit(benchmark):
    zones = _city_zones()
    m, n = zones[0][0].shape
    assert (len(zones), m, n) == (9, 128, 1024)
    calls = 5 if SMOKE else 100
    table, runs = [], []
    for name in ("gls", "equal_full", "equal"):
        atoms, us = [], []
        for zone in zones:
            phi_rows, x_s, cov = _zone_fits(*zone)[name]

            def fit():
                return omp(
                    phi_rows, x_s, 16, covariance=cov, stop_at_noise=True
                )

            atoms.append(fit().support.size)
            us.append(_per_call_us(fit, calls))
        rows_m = phi_rows.shape[0]
        table.append([f"omp {name}", rows_m, n, np.mean(atoms), np.mean(us)])
        runs.append({"call": f"omp_{name}", "m": int(rows_m), "n": n,
                     "atoms_mean": float(np.mean(atoms)),
                     "us_mean": float(np.mean(us))})
    rows_all, values, variances = zones[0]
    factor = IncrementalQR(m, capacity=16)
    factor.add_column(rows_all[:, 0] / np.sqrt(variances))
    us = _per_call_us(lambda: factor.solve(values), 10 * calls)
    table.append(["IncrementalQR.solve", m, n, 1, us])
    runs.append({"call": "qr_solve", "m": m, "n": n, "atoms_mean": 1.0,
                 "us_mean": us})

    record_series(
        "PERF-ZONE",
        "city zone fit pieces, N=1024, stop_at_noise "
        "(mean over 9 zones, us per call)",
        ["call", "m", "n", "atoms", "us"],
        table,
        notes="city_solve shape, seed 7, round 0; gls = variance vector "
        "over every report, equal = scalar mean variance over every "
        "report (full) or the 64 nearest the value median; solve at k = 1"
        + ("; SMOKE call counts" if SMOKE else ""),
    )
    _merge_bench_json("zone", {"runs": runs})
    phi_rows, x_s, cov = _zone_fits(*zones[0])["gls"]
    benchmark.pedantic(
        lambda: omp(phi_rows, x_s, 16, covariance=cov, stop_at_noise=True),
        rounds=3, iterations=1,
    )


def _deploy() -> SenseDroid:
    truth = urban_temperature_field(ROUND_FIELD, ROUND_FIELD, rng=7)
    env = Environment(fields={"temperature": truth})
    return SenseDroid(
        env,
        hierarchy_config=HierarchyConfig(
            zones_x=ROUND_ZONES,
            zones_y=ROUND_ZONES,
            nodes_per_nanocloud=ROUND_NODES_PER_NC,
        ),
        rng=123,
    )


def test_perf_full_round(benchmark):
    n_nodes = ROUND_ZONES * ROUND_ZONES * ROUND_NODES_PER_NC
    # One cold sense_field round: shared operator bases, sampled-row
    # solves, the radio simulation included.
    system = _deploy()
    start = time.perf_counter()
    estimate = system.sense_field()
    fast_s = time.perf_counter() - start
    error = system.estimate_error(estimate)

    if not SMOKE:
        assert n_nodes == 2048

    record_series(
        "PERF-ROUND",
        f"full sense_field round, {n_nodes} nodes "
        f"({ROUND_FIELD}x{ROUND_FIELD} field, "
        f"{ROUND_ZONES * ROUND_ZONES} zones)",
        ["round_s", "rel_err", "measurements"],
        [[fast_s, error, estimate.total_measurements]],
        notes="SMOKE sizes" if SMOKE else "",
    )
    _merge_bench_json(
        "round",
        {
            "nodes": n_nodes,
            "field": [ROUND_FIELD, ROUND_FIELD],
            "zones": ROUND_ZONES * ROUND_ZONES,
            "fast_s": fast_s,
            "relative_error": error,
        },
    )
    benchmark.pedantic(system.sense_field, rounds=1, iterations=1)
