"""The three simulator workloads: ``city_solve``, ``city_mobility``, ``zone_async``.

Each runs the program under test in this process, on one thread, for
``seconds`` of measured wall time, from inputs made only from ``seed``,
and checks its outputs in the same pass.  With ``trace`` every other
round (or engine repeat) runs with the layers' public callables rebound
to the tracer and its neighbour runs untouched: the host's speed drifts
by more than tracing costs, so ``harness.trace_overhead_ratio`` compares
neighbours, not one half of the run with the other.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from repro.core.registry import clear_registry
from repro.sim.engine import SimulationEngine
from repro.sim.mega import MegaConfig, MegaSimulation
from repro.sim.population import PopulationConfig
from repro.sim.scenario import smart_building_scenario

import perf_layers
from perf_stats import timing
from perf_trace import Tracer

__all__ = ["Outcome", "trace_path", "run_city", "run_zone_async", "peak_rss_mb"]

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_path(workload: str) -> Path:
    return RESULTS_DIR / f"trace-{workload}.json"


# -- city_solve / city_mobility -------------------------------------------

# The same entry point used two ways round: city_solve is the MEGA shape
# (big zones, many reports, deep sparsity: the solve is the round);
# city_mobility senses once every 30 mobility ticks over ten times the
# nodes with small zones (population + frames + bus are the round).
CITY_SHAPES = {
    "city_solve": dict(
        nodes=10_000, edge=96, zones=3, reports=128, sparsity=16, ticks=1
    ),
    "city_mobility": dict(
        nodes=100_000, edge=64, zones=4, reports=32, sparsity=4, ticks=30
    ),
}
CITY_SMOKE_SHAPES = {
    "city_solve": dict(
        nodes=1_000, edge=32, zones=2, reports=32, sparsity=4, ticks=1
    ),
    "city_mobility": dict(
        nodes=5_000, edge=32, zones=4, reports=16, sparsity=2, ticks=5
    ),
}
CITY_SETUP_SAMPLES = 3
CITY_WARMUP_ROUNDS = 2
CITY_RMSE_LIMIT = 0.6


def _city_config(shape: dict, seed: int) -> MegaConfig:
    return MegaConfig(
        population=PopulationConfig(
            n_nodes=shape["nodes"],
            width=shape["edge"],
            height=shape["edge"],
            zones_x=shape["zones"],
            zones_y=shape["zones"],
            mobility="random_waypoint",
            seed=seed,
        ),
        reports_per_zone=shape["reports"],
        sparsity=shape["sparsity"],
        ticks_per_round=shape["ticks"],
        sharded=False,
    )


class _Alternating:
    """Traces every other unit of work; the rest run unpatched."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.turn = 0

    def __enter__(self) -> bool:
        traced = self.tracer is not None and self.turn % 2 == 0
        self.turn += 1
        if traced:
            perf_layers.install(self.tracer)
        return traced

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.unpatch()


def _city_rounds(sim: MegaSimulation, seconds: float, tracer: Tracer | None):
    """Run rounds for ``seconds``; returns ([(wall, record, traced)], span)."""
    rounds = []
    unit = _Alternating(tracer)
    began = time.perf_counter()
    while True:
        with unit as traced:
            if traced:
                tracer.round_id = sim.rounds_run
            started = time.perf_counter()
            record = sim.run_round()
            ended = time.perf_counter()
        rounds.append((ended - started, record, traced))
        # A traced run needs at least one round of each kind.
        if ended - began >= seconds and (tracer is None or len(rounds) > 1):
            return rounds, ended - began


def run_city(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Outcome:
    shape = (CITY_SMOKE_SHAPES if smoke else CITY_SHAPES)[workload]
    config = _city_config(shape, seed)
    n_zones = config.population.n_zones
    out = Outcome()

    # Set-up is everything before steady state: a cold basis registry,
    # construction, and the warm-up rounds that fill lazy caches.
    setups = []
    for _ in range(1 if smoke else CITY_SETUP_SAMPLES):
        clear_registry()
        started = time.perf_counter()
        sim = MegaSimulation(config)
        for _ in range(CITY_WARMUP_ROUNDS):
            sim.run_round()
        setups.append(time.perf_counter() - started)

    tracer = Tracer() if trace else None
    every, span = _city_rounds(sim, seconds, tracer)
    records = [record for _, record, _ in every]
    walls = [wall for wall, _, traced in every if traced == trace]
    rounds = len(records)
    unsolved = sum(1 for r in records if r.zones_solved != n_zones)
    out.attempted, out.failed = rounds, unsolved
    rmse = median(r.rmse for r in records)
    out.check(bool(np.isfinite(sim.estimate).all()), "non-finite estimate")
    out.check(unsolved == 0, f"{unsolved} rounds left a zone unsolved")
    if not smoke:
        out.check(
            rmse <= CITY_RMSE_LIMIT,
            f"estimate_rmse {rmse:.3f} > {CITY_RMSE_LIMIT}",
        )
    wall = timing(np.asarray(walls) * 1e3)
    out.notes.append(f"run_round wall ms: {wall}")
    out.end_to_end = {
        "setup_s": median(setups),
        "round_ms_p50": wall.p50,
        "rounds_per_s": rounds / span,
        "reports_per_s": sum(r.reports_delivered for r in records) / span,
        "rounds_on_time_ratio": (rounds - unsolved) / rounds,
        "estimate_rmse": rmse,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is None:
        return out

    summary = tracer.summary()
    fits = summary["core.omp"]["calls"] + summary["core.chs"]["calls"]
    solves = summary["core.robust"]["calls"]
    delivered = sum(r.reports_delivered for r in records)
    plain = [wall for wall, _, traced in every if not traced]
    bus = sim.bus.stats_snapshot()
    self_ns = sum(s["self_ns"] for s in summary.values())
    values = {
        "core.omp.calls_per_zone": fits / solves if solves else 0.0,
        "core.robust.rejected_ratio": (
            sum(r.reports_rejected for r in records) / delivered
        ),
        "sim.mega.round_ms_tail": wall.tail,
        "sim.mega.zones_stale": float(sum(r.zones_stale for r in records)),
        # Bus books cover the whole life of the simulation, warm-up and
        # untraced rounds included, so they are divided by rounds_run.
        "network.bus.messages": bus["messages"] / sim.rounds_run,
        "network.bus.bytes": bus["bytes"] / sim.rounds_run,
        "network.bus.lost": float(bus["messages_lost"]),
        "network.bus.inbox_peak": float(bus["inbox_peak"]),
        "harness.trace_overhead_ratio": wall.p50 / (median(plain) * 1e3),
        "harness.self_time_coverage": self_ns / (sum(walls) * 1e9),
    }
    out.per_layer = perf_layers.layer_metrics(
        summary, tracer.counters, len(walls), values
    )
    tracer.write(trace_path(workload), workload=workload, seed=seed)
    return out


# -- zone_async -------------------------------------------------------------

# The object-per-node middleware path: every zone on its own
# ZoneRoundDriver, every command and report a deferred bus delivery on
# the SimClock.  Context ticks are pushed beyond the run on purpose: at
# the default 60 s period sense_contexts is ~3/4 of the wall time and
# would mask every middleware layer.
ZONE_SHAPE = dict(edge=32, zones=4, nodes_per_nc=48, sim_s=250.0)
ZONE_SMOKE_SHAPE = dict(edge=16, zones=2, nodes_per_nc=12, sim_s=40.0)
ZONE_PERIOD_S = 10.0
ZONE_DEADLINE_S = 4.0
ZONE_LINK_LATENCY_S = 0.05
ZONE_REL_ERROR_LIMIT = 0.05
#: Bus messages of one repeat of the full shape at the default seed.
ZONE_PINNED = {"seed": 7, "messages": 23_426}


def _zone_repeat(shape: dict, seed: int) -> dict:
    """Build one deployment from cold and run it; returns its books."""
    zones = shape["zones"] ** 2
    offsets = {zone: float(zone % 10) for zone in range(zones)}
    clear_registry()
    # The previous repeat's deployment is cyclic garbage; collect it now
    # so its collection is not billed to this repeat's build.
    gc.collect()
    started = time.perf_counter()
    scenario = smart_building_scenario(
        width=shape["edge"],
        height=shape["edge"],
        zones_x=shape["zones"],
        zones_y=shape["zones"],
        nodes_per_nc=shape["nodes_per_nc"],
        zone_periods=dict.fromkeys(range(zones), ZONE_PERIOD_S),
        zone_offsets=offsets,
        latency_mode="link",
        link_latency_s=ZONE_LINK_LATENCY_S,
        rng=seed,
    )
    engine = SimulationEngine(
        scenario.system,
        round_mode="async",
        zone_schedules=scenario.schedules,
        latency_mode=scenario.latency_mode,
        report_deadline_s=ZONE_DEADLINE_S,
        context_period_s=10.0 * shape["sim_s"],
        rng=seed,
    )
    built = time.perf_counter()
    result = engine.run(shape["sim_s"])
    ended = time.perf_counter()

    system = scenario.system
    truth = scenario.truth.grid
    block_rms = {
        zone.zone_id: float(
            np.sqrt(
                np.mean(
                    truth[
                        zone.y0 : zone.y0 + zone.height,
                        zone.x0 : zone.x0 + zone.width,
                    ]
                    ** 2
                )
            )
        )
        for zone in system.hierarchy.zone_grid
    }
    # relative_error = |e| / |block| and rmse = |e| / sqrt(n), so each
    # record's RMSE follows from the block's RMS without a second pass.
    rmse = [r.relative_error * block_rms[r.zone_id] for r in result.rounds]
    drivers = engine.drivers.values()
    return {
        "setup_s": built - started,
        "wall_s": ended - built,
        "rounds": len(result.rounds),
        "scheduled": sum(
            math.ceil((shape["sim_s"] - offset) / ZONE_PERIOD_S)
            for offset in offsets.values()
        ),
        "bus": system.hierarchy.bus.stats_snapshot(),
        "rel_error": result.mean_error(),
        "rmse": median(rmse) if rmse else float("nan"),
        "finite": all(math.isfinite(r.relative_error) for r in result.rounds),
        "unfinished": sum(d.rounds_failed + d.rounds_skipped for d in drivers),
        "late_reports": sum(d.late_reports for d in drivers),
        "clock_events": engine.clock.events_run,
    }


def _zone_repeats(
    shape: dict, seed: int, seconds: float, tracer: Tracer | None
) -> list[dict]:
    repeats, spent = [], 0.0
    unit = _Alternating(tracer)
    # A traced run needs at least one repeat of each kind.
    while spent < seconds or (tracer is not None and len(repeats) < 2):
        with unit as traced:
            if traced:
                tracer.round_id = len(repeats)
            repeats.append(_zone_repeat(shape, seed))
        repeats[-1]["traced"] = traced
        spent += repeats[-1]["wall_s"]
    return repeats


def run_zone_async(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Outcome:
    shape = ZONE_SMOKE_SHAPE if smoke else ZONE_SHAPE
    out = Outcome()
    tracer = Tracer() if trace else None
    every = _zone_repeats(shape, seed, seconds, tracer)
    repeats = [r for r in every if r["traced"] == trace]
    rounds = sum(r["rounds"] for r in repeats)
    out.attempted = sum(r["scheduled"] for r in every)
    out.failed = out.attempted - sum(r["rounds"] for r in every)
    messages = {r["bus"]["messages"] for r in every}
    rel_error = median(r["rel_error"] for r in every)
    out.check(out.failed == 0, f"{out.failed} scheduled zone rounds missing")
    out.check(
        all(r["unfinished"] == 0 for r in every), "driver failed/skipped rounds"
    )
    out.check(all(r["finite"] for r in every), "non-finite round error")
    out.check(len(messages) == 1, f"bus messages differ by repeat: {messages}")
    out.check(
        rel_error <= ZONE_REL_ERROR_LIMIT,
        f"estimate_rel_error {rel_error:.4f} > {ZONE_REL_ERROR_LIMIT}",
    )
    if not smoke and seed == ZONE_PINNED["seed"]:
        out.check(
            messages == {ZONE_PINNED["messages"]},
            f"bus messages {messages} != pinned {ZONE_PINNED['messages']}",
        )
    walls = timing([r["wall_s"] * 1e3 for r in repeats])
    out.notes.append(
        f"engine.run({shape['sim_s']:g} sim-s) wall ms per repeat: {walls}"
    )
    out.notes.append(f"estimate_rel_error {rel_error:.5f} (all repeats equal)")
    out.end_to_end = {
        "setup_s": median(r["setup_s"] for r in every),
        "round_ms_p50": median(r["wall_s"] / r["rounds"] for r in repeats) * 1e3,
        "rounds_per_s": median(r["rounds"] / r["wall_s"] for r in repeats),
        "reports_per_s": median(
            r["bus"]["by_kind"].get("sense_report", 0) / r["wall_s"]
            for r in repeats
        ),
        "rounds_on_time_ratio": 1.0 - out.failed / out.attempted,
        "estimate_rmse": median(r["rmse"] for r in every),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is None:
        return out

    summary = tracer.summary()
    fits = summary["core.omp"]["calls"] + summary["core.chs"]["calls"]
    solves = summary["middleware.broker.solve"]["calls"]
    last = repeats[-1]
    self_ns = sum(s["self_ns"] for s in summary.values())
    values = {
        "core.omp.calls_per_zone": fits / solves if solves else 0.0,
        "network.bus.messages": last["bus"]["messages"] / last["rounds"],
        "network.bus.bytes": last["bus"]["bytes"] / last["rounds"],
        "network.bus.lost": float(sum(r["bus"]["messages_lost"] for r in every)),
        "network.bus.inbox_peak": float(last["bus"]["inbox_peak"]),
        "middleware.rounds.late_reports": float(
            sum(r["late_reports"] for r in every)
        ),
        "middleware.rounds.skipped": float(sum(r["unfinished"] for r in every)),
        "sim.engine.clock_events": last["clock_events"] / last["rounds"],
        "sim.engine.rel_error": rel_error,
        "harness.trace_overhead_ratio": walls.p50
        / (median(r["wall_s"] for r in every if not r["traced"]) * 1e3),
        "harness.self_time_coverage": self_ns
        / (sum(r["wall_s"] for r in repeats) * 1e9),
    }
    out.per_layer = perf_layers.layer_metrics(
        summary, tracer.counters, rounds, values
    )
    tracer.write(trace_path(workload), workload=workload, seed=seed)
    return out
