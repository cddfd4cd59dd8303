"""MEGA — city-scale rounds over the struct-of-arrays population.

Three measurements of the PR-7 core:

- **MEGA-TICK**: one mobility tick, vectorized array engine vs the
  preserved object-per-node path, at a 2048-node deployment.  The two
  engines are bit-identical (Hypothesis-pinned in
  ``tests/sim/test_population.py``), so the timing gap is pure
  per-node Python overhead.
- **MEGA-SCALE**: full collect/solve/finalize rounds at constant node
  density (~1.5 nodes/cell, 32x32-cell zones, 128 reports/zone) from
  10k up to 100k nodes, serial solves.
- **MEGA-WORKERS**: the 100k-node round with zone solves fanned out
  to 1/2/4 forked worker processes, against the
  serial arm.  All arms are bit-identical; the wall-clock column is an
  honest picture of what process fan-out buys on *this* host (on a
  single-core runner the IPC overhead dominates and sharding loses —
  the point of committing the curve).

Results go to ``benchmarks/results/MEGA-*.txt`` and are merged into
``BENCH_MEGA.json`` at the repo root.  Smoke mode
(``REPRO_MEGA_SMOKE=1``) shrinks every size and drops the timing
assertions so CI can execute the code paths on shared runners.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path

import numpy as np

from repro.sim import mega
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import NodePopulation, PopulationConfig

from _util import (
    CLEAN_FITS_BUDGET,
    FITS_CAP,
    merge_bench_json,
    record_series,
    recorded_robust_fits,
)

SMOKE = os.environ.get("REPRO_MEGA_SMOKE", "") not in ("", "0")
BENCH_JSON = (
    Path(__file__).resolve().parent / "results" / "BENCH_MEGA.smoke.json"
    if SMOKE
    else Path(__file__).resolve().parent.parent / "BENCH_MEGA.json"
)

TICK_NODES = 256 if SMOKE else 2048
# (nodes, field edge, zones per edge): 32x32-cell zones, density held
# near 1.5 nodes/cell so per-zone solve cost stays comparable.
SCALE_STEPS = (
    ((1_000, 64, 2), (2_000, 64, 2))
    if SMOKE
    else (
        (10_000, 96, 3),
        (25_000, 128, 4),
        (50_000, 192, 6),
        (100_000, 256, 8),
    )
)
WORKER_COUNTS = (1, 2) if SMOKE else (1, 2, 4)
REPORTS_PER_ZONE = 128
SPARSITY = 16


_merge_bench_json = functools.partial(
    merge_bench_json, BENCH_JSON, "bench-mega/1", SMOKE
)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _population(engine: str) -> NodePopulation:
    return NodePopulation(
        PopulationConfig(
            n_nodes=TICK_NODES,
            width=64,
            height=64,
            zones_x=2,
            zones_y=2,
            mobility="gauss_markov",
            seed=99,
            engine=engine,
        )
    )


def _mega_config(nodes: int, edge: int, zones: int, **overrides) -> MegaConfig:
    return MegaConfig(
        population=PopulationConfig(
            n_nodes=nodes,
            width=edge,
            height=edge,
            zones_x=zones,
            zones_y=zones,
            mobility="gauss_markov",
            seed=7,
        ),
        reports_per_zone=REPORTS_PER_ZONE,
        sparsity=SPARSITY,
        **overrides,
    )


def test_mega_tick_vector_vs_object(benchmark):
    vector = _population("vector")
    objects = _population("object")
    repeats = 5

    vector_s = _best_of(vector.tick, repeats)
    object_s = _best_of(objects.tick, repeats)
    speedup = object_s / vector_s

    if not SMOKE:
        # Acceptance: the array core is >= 10x the object path at 2048
        # nodes — the whole reason the SoA layout exists.
        assert TICK_NODES == 2048
        assert speedup >= 10.0

    record_series(
        "MEGA-TICK",
        f"one mobility tick, {TICK_NODES} nodes (gauss_markov)",
        ["engine", "tick_ms", "nodes_per_s"],
        [
            ["object", object_s * 1e3, TICK_NODES / object_s],
            ["vector", vector_s * 1e3, TICK_NODES / vector_s],
        ],
        notes=f"speedup {speedup:.1f}x"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json(
        "tick",
        {
            "nodes": TICK_NODES,
            "object_s": object_s,
            "vector_s": vector_s,
            "speedup": speedup,
        },
    )
    benchmark.pedantic(vector.tick, rounds=3, iterations=1)


def test_mega_scale_serial_rounds(benchmark):
    rows = []
    runs = []
    for nodes, edge, zones in SCALE_STEPS:
        sim = MegaSimulation(_mega_config(nodes, edge, zones))
        with recorded_robust_fits(mega) as solves:
            start = time.perf_counter()
            record = sim.run_round()
            round_s = time.perf_counter() - start
        assert record.zones_solved == zones * zones == len(solves)
        if not SMOKE:
            assert record.rmse < 1.0  # the round actually recovers truth
        # Clean zones of this shape (128 reports, K=16) cost ~9 fits
        # each since the C-steps stop when the objective does; waiting
        # for the survivor set to repeat cost 18.
        fits = [solve.fits for solve in solves]
        assert max(fits) <= FITS_CAP
        assert float(np.mean(fits)) <= CLEAN_FITS_BUDGET
        rows.append(
            [
                nodes,
                f"{edge}x{edge}",
                zones * zones,
                record.reports_delivered,
                round_s,
                record.rmse,
                float(np.mean(fits)),
            ]
        )
        runs.append(
            {
                "nodes": nodes,
                "field": [edge, edge],
                "zones": zones * zones,
                "reports": record.reports_delivered,
                "round_s": round_s,
                "rmse": record.rmse,
                "fits_per_zone": float(np.mean(fits)),
            }
        )

    record_series(
        "MEGA-SCALE",
        "one serial round at constant density (32x32-cell zones, "
        f"{REPORTS_PER_ZONE} reports/zone)",
        ["nodes", "field", "zones", "reports", "round_s", "rmse", "fits/zone"],
        rows,
        notes="collect+solve+finalize, robust trim solves"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json("scale", {"runs": runs})

    nodes, edge, zones = SCALE_STEPS[0]
    sim = MegaSimulation(_mega_config(nodes, edge, zones))
    benchmark.pedantic(sim.run_round, rounds=1, iterations=1)


def test_mega_sharded_worker_sweep(benchmark):
    nodes, edge, zones = SCALE_STEPS[-1]

    serial = MegaSimulation(_mega_config(nodes, edge, zones))
    start = time.perf_counter()
    serial_record = serial.run_round()
    serial_s = time.perf_counter() - start

    rows = [["serial", 0, serial_s, serial_record.rmse]]
    runs = [{"arm": "serial", "workers": 0, "round_s": serial_s,
             "rmse": serial_record.rmse}]
    for workers in WORKER_COUNTS:
        with MegaSimulation(
            _mega_config(nodes, edge, zones, sharded=True, workers=workers)
        ) as sim:
            start = time.perf_counter()
            record = sim.run_round()
            round_s = time.perf_counter() - start
            # The fan-out must not change a single bit of the answer.
            assert np.array_equal(sim.estimate, serial.estimate)
            assert record.rmse == serial_record.rmse
        rows.append([f"sharded-{workers}", workers, round_s, record.rmse])
        runs.append(
            {
                "arm": f"sharded-{workers}",
                "workers": workers,
                "round_s": round_s,
                "rmse": record.rmse,
            }
        )

    record_series(
        "MEGA-WORKERS",
        f"one {nodes}-node round, serial vs fork fan-out",
        ["arm", "workers", "round_s", "rmse"],
        rows,
        notes=f"host cpu count {os.cpu_count()}; all arms bit-identical"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json(
        "workers",
        {"nodes": nodes, "cpu_count": os.cpu_count(), "runs": runs},
    )

    nodes, edge, zones = SCALE_STEPS[0]
    with MegaSimulation(
        _mega_config(nodes, edge, zones, sharded=True, workers=2)
    ) as sim:
        benchmark.pedantic(sim.run_round, rounds=1, iterations=1)
