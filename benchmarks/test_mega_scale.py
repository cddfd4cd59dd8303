"""MEGA — city-scale rounds over the struct-of-arrays population.

Three measurements of the PR-7 core:

- **MEGA-TICK**: one mobility tick, vectorized array core vs the
  object-per-node path (``tests/sim/object_population.py``), at a
  2048-node deployment.  The two are bit-identical (Hypothesis-pinned
  in ``tests/sim/test_population.py``), so the timing gap is pure
  per-node Python overhead.
- **MEGA-SCALE**: full collect/solve/finalize rounds at constant node
  density (~1.5 nodes/cell, 32x32-cell zones, 128 reports/zone) from
  10k up to 100k nodes: the median of several warm rounds per size.
- **MEGA-BYZ**: the 10k-node city with 0-20 % of its sensors
  adversarial (a fixed offset, claiming std 0.01): a gross liar (+20)
  and a plausible one (+2), median round RMSE against the zero field's.

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

from repro.sensors.faults import (
    Adversarial,
    SensorFaultInjector,
    afflict_fraction,
)
from repro.sim import mega
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import NodePopulation, PopulationConfig
from tests.sim.object_population import ObjectPopulation

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
# A cold first round pays lazy set-up (basis gathers, allocator
# growth) and swung MEGA-SCALE's round_s by +-50 % between runs of one
# tree; the median of warm rounds is what a running city pays.
SCALE_WARMUP_ROUNDS = 2
SCALE_TIMED_ROUNDS = 3 if SMOKE else 6
BYZ_SEEDS = (7,) if SMOKE else (7, 11)
BYZ_FRACTIONS = (0.0, 0.1) if SMOKE else (0.0, 0.05, 0.1, 0.2)
BYZ_ROUNDS = 2 if SMOKE else 6
BYZ_LIARS = (("gross", 20.0), ("plausible", 2.0))  # (name, offset)
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


def _population(cls: type[NodePopulation]) -> NodePopulation:
    return cls(
        PopulationConfig(
            n_nodes=TICK_NODES,
            width=64,
            height=64,
            zones_x=2,
            zones_y=2,
            mobility="gauss_markov",
            seed=99,
        )
    )


def _mega_config(
    nodes: int, edge: int, zones: int, seed: int = 7, **overrides
) -> MegaConfig:
    return MegaConfig(
        population=PopulationConfig(
            n_nodes=nodes,
            width=edge,
            height=edge,
            zones_x=zones,
            zones_y=zones,
            mobility="gauss_markov",
            seed=seed,
        ),
        reports_per_zone=REPORTS_PER_ZONE,
        sparsity=SPARSITY,
        **overrides,
    )


def test_mega_tick_vector_vs_object(benchmark):
    vector = _population(NodePopulation)
    objects = _population(ObjectPopulation)
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


def _timed_rounds(sim: MegaSimulation) -> tuple[list, list[float]]:
    """Run the warm-ups, then time each of the measured rounds."""
    for _ in range(SCALE_WARMUP_ROUNDS):
        sim.run_round()
    records, seconds = [], []
    for _ in range(SCALE_TIMED_ROUNDS):
        start = time.perf_counter()
        records.append(sim.run_round())
        seconds.append(time.perf_counter() - start)
    return records, seconds


def test_mega_scale_serial_rounds(benchmark):
    rows = []
    runs = []
    for nodes, edge, zones in SCALE_STEPS:
        sim = MegaSimulation(_mega_config(nodes, edge, zones))
        with recorded_robust_fits(mega) as solves:
            records, seconds = _timed_rounds(sim)
        round_s = float(np.median(seconds))
        rmse = float(np.median([r.rmse for r in records]))
        record = records[-1]
        assert all(r.zones_solved == zones * zones for r in records)
        rounds = SCALE_WARMUP_ROUNDS + SCALE_TIMED_ROUNDS
        assert len(solves) == rounds * zones * zones
        if not SMOKE:
            assert rmse < 1.0  # the rounds actually recover truth
        # Clean zones of this shape (128 reports, K=16 cap) cost ~5.5
        # fits each: the C-steps stop when the objective does (waiting
        # for the survivor set to repeat cost 18), and with every fit
        # stopping at the noise floor fewer starts need a second step.
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
                rmse,
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
                "rmse": rmse,
                "fits_per_zone": float(np.mean(fits)),
            }
        )

    record_series(
        "MEGA-SCALE",
        f"median of {SCALE_TIMED_ROUNDS} warm rounds after "
        f"{SCALE_WARMUP_ROUNDS} warm-ups, constant density (32x32-cell "
        f"zones, {REPORTS_PER_ZONE} reports/zone)",
        ["nodes", "field", "zones", "reports", "round_s", "rmse", "fits/zone"],
        rows,
        notes="collect+solve+finalize, robust trim solves; rmse is the "
        "median over the timed rounds, fits/zone the mean over every round"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json(
        "scale",
        {
            "warmup_rounds": SCALE_WARMUP_ROUNDS,
            "timed_rounds": SCALE_TIMED_ROUNDS,
            "runs": runs,
        },
    )

    nodes, edge, zones = SCALE_STEPS[0]
    sim = MegaSimulation(_mega_config(nodes, edge, zones))
    benchmark.pedantic(sim.run_round, rounds=1, iterations=1)


def _byzantine_city(seed: int, fraction: float, offset: float) -> dict:
    nodes, edge, zones = SCALE_STEPS[0]
    config = _mega_config(nodes, edge, zones, seed=seed)
    injector = SensorFaultInjector()
    liars = afflict_fraction(
        injector,
        [f"meganode-{i}" for i in range(nodes)],
        fraction,
        lambda nid: Adversarial(offset=offset, claimed_std=0.01),
        seed=seed,
    )
    sim = MegaSimulation(config, sensor_fault_injector=injector)
    records = [sim.run_round() for _ in range(BYZ_ROUNDS)]
    return {
        "liars": len(liars),
        "rmse": float(np.median([r.rmse for r in records])),
        "zero_rms": float(np.sqrt(np.mean(sim.truth**2))),
        "rejected": sum(r.reports_rejected for r in records),
        "quarantined": records[-1].quarantined_nodes,
    }


def test_mega_city_byzantine(benchmark):
    rows = []
    runs = []
    for name, offset in BYZ_LIARS:
        for fraction in BYZ_FRACTIONS:
            for seed in BYZ_SEEDS:
                run = _byzantine_city(seed, fraction, offset)
                rows.append(
                    [
                        name,
                        fraction,
                        seed,
                        run["liars"],
                        run["rmse"],
                        run["zero_rms"],
                        run["rejected"],
                        run["quarantined"],
                    ]
                )
                runs.append(
                    {"liar": name, "fraction": fraction, "seed": seed, **run}
                )
    # A gross liar is expelled: up to 20 % of them leave the estimate
    # level with the zero field, at smoke sizes too (the one CI check of
    # the trim against Byzantine rows).  The plausible liar is an open
    # hole (claimed std far below the honest noise buys GLS leverage
    # past the trim) and is recorded, not gated.
    for run in runs:
        if run["liar"] == "gross":
            assert run["rmse"] <= 1.25 * run["zero_rms"]

    nodes = SCALE_STEPS[0][0]
    record_series(
        "MEGA-BYZ",
        f"{nodes}-node city, adversarial fraction (claimed std 0.01), "
        f"median of {BYZ_ROUNDS} rounds",
        [
            "liar",
            "fraction",
            "seed",
            "liars",
            "rmse",
            "zero_rms",
            "rejected",
            "quarantined",
        ],
        rows,
        notes="gross = +20, plausible = +2; robust trim solves"
        + ("; SMOKE sizes" if SMOKE else ""),
    )
    _merge_bench_json("byzantine", {"nodes": nodes, "runs": runs})

    benchmark.pedantic(
        _byzantine_city, args=(7, 0.1, 20.0), rounds=1, iterations=1
    )
