"""What the traced run wraps, and how spans become per-layer metrics.

Two tables.  ``SPANS`` names the public callables of each layer that the
tracer rebinds (layers are this repo's modules; nothing private is
wrapped, so time spent in private helpers lands in the nearest wrapped
caller's self time).  ``LAYER_METRICS`` defines every per-layer metric
of ``BENCHMARK.json``: how it is derived and — written down before any
measurement — which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import importlib
from typing import Mapping

from perf_trace import Tracer

__all__ = ["SPANS", "LAYER_METRICS", "install", "layer_metrics"]

# (module, class or None, attribute, span name, is coroutine)
SPANS: tuple[tuple[str, str | None, str, str, bool], ...] = (
    ("repro.core.robust", None, "robust_reconstruct", "core.robust", False),
    ("repro.core.omp", None, "omp", "core.omp", False),
    ("repro.core.reconstruction", None, "reconstruct", "core.reconstruct", False),
    ("repro.core.chs", None, "chs", "core.chs", False),
    ("repro.core.registry", None, "shared_basis", "core.registry", False),
    ("repro.core.registry", None, "shared_dct2_basis", "core.registry", False),
    ("repro.core.registry", None, "shared_operator", "core.registry", False),
    ("repro.core.registry", None, "shared_dct2_operator", "core.registry", False),
    ("repro.sim.mega", "MegaSimulation", "run_round", "sim.mega.round", False),
    ("repro.sim.population", "NodePopulation", "tick", "sim.population.tick", False),
    ("repro.sim.population", "NodePopulation", "sense_round", "sim.population.sense", False),
    ("repro.sim.population", "NodePopulation", "update_trust", "sim.population.trust", False),
    ("repro.sim.population", "NodePopulation", "cells_in_zone", "sim.population.cells", False),
    ("repro.network.frames", None, "encode_zone_report", "network.frames.zone_encode", False),
    ("repro.network.frames", None, "decode_zone_report", "network.frames.zone_decode", False),
    ("repro.network.bus", "MessageBus", "send", "network.bus.send", False),
    ("repro.network.bus", "TrafficStats", "record", "network.bus.record", False),
    ("repro.sim.engine", "SimulationEngine", "run", "sim.engine.run", False),
    ("repro.middleware.hierarchy", "Hierarchy", "total_node_energy_mj", "sim.engine.record", False),
    ("repro.middleware.api", "SenseDroid", "zone_error", "sim.engine.record", False),
    ("repro.middleware.broker", "Broker", "plan_round", "middleware.broker.plan", False),
    ("repro.middleware.broker", "Broker", "collect_round", "middleware.broker.collect", False),
    ("repro.middleware.broker", "Broker", "solve_round", "middleware.broker.solve", False),
    ("repro.middleware.broker", "Broker", "finalize_round", "middleware.broker.finalize", False),
    ("repro.middleware.nanocloud", "NanoCloud", "refresh_membership", "middleware.nanocloud.refresh", False),
    ("repro.middleware.node", "MobileNode", "handle_command", "middleware.node.command", False),
    ("repro.gateway.protocol", None, "ws_read_message", "gateway.protocol.ws_read", True),
    ("repro.gateway.protocol", None, "ws_encode", "gateway.protocol.ws_encode", False),
    ("repro.gateway.streams", None, "parse_device_frame", "gateway.streams.parse", False),
    ("repro.gateway.streams", "GatewayNode", "handle_device_frame", "gateway.streams.frame", False),
    ("repro.gateway.streams", "GatewayNode", "handle_command", "gateway.streams.command", False),
    ("repro.gateway.server", "IngestionGateway", "latest_estimate", "gateway.server.latest", False),
)


def install(tracer: Tracer) -> None:
    """Rebind every callable in ``SPANS`` to a span-recording wrapper."""
    for module, _cls, _attr, _name, _co in SPANS:
        importlib.import_module(module)
    for module, cls, attr, name, coroutine in SPANS:
        if cls is None:
            tracer.patch_function(module, attr, name, coroutine=coroutine)
        else:
            owner = getattr(importlib.import_module(module), cls)
            tracer.patch_method(owner, attr, name)


# How a metric is derived:
#   self_ms  self time of the span, ms per round
#   self_us  self time of the span, us per call
#   calls    calls of the span per round
#   value    supplied by the workload under the metric's own name
# (name, unit, better, how, span, moves "end-to-end metric@workload")
LAYER_METRICS: tuple[tuple[str, str, str, str, str | None, str], ...] = (
    ("core.robust.ms", "ms", "lower", "self_ms", "core.robust", "round_ms_p50@city_solve"),
    ("core.omp.ms", "ms", "lower", "self_ms", "core.omp", "round_ms_p50@city_solve"),
    ("core.reconstruct.ms", "ms", "lower", "self_ms", "core.reconstruct", "rounds_per_s@zone_async"),
    ("core.chs.ms", "ms", "lower", "self_ms", "core.chs", "rounds_per_s@zone_async"),
    ("core.omp.calls_per_zone", "count", "lower", "value", None, "round_ms_p50@city_solve"),
    ("core.robust.rejected_ratio", "ratio", "lower", "value", None, "estimate_rmse@city_solve"),
    ("core.registry.basis_ms", "ms", "lower", "self_ms", "core.registry", "setup_s@city_solve"),
    ("sim.population.tick_ms", "ms", "lower", "self_ms", "sim.population.tick", "round_ms_p50@city_mobility"),
    ("sim.population.tick_calls", "count", "lower", "calls", "sim.population.tick", "round_ms_p50@city_mobility"),
    ("sim.population.sense_ms", "ms", "lower", "self_ms", "sim.population.sense", "round_ms_p50@city_mobility"),
    ("sim.population.trust_ms", "ms", "lower", "self_ms", "sim.population.trust", "round_ms_p50@city_mobility"),
    ("sim.population.cells_ms", "ms", "lower", "self_ms", "sim.population.cells", "round_ms_p50@city_mobility"),
    ("sim.mega.self_ms", "ms", "lower", "self_ms", "sim.mega.round", "round_ms_p50@city_mobility"),
    ("sim.mega.round_ms_tail", "ms", "lower", "value", None, "round_ms_p50@city_solve"),
    ("sim.mega.zones_stale", "count", "lower", "value", None, "rounds_on_time_ratio@city_solve"),
    ("network.frames.zone_encode_ms", "ms", "lower", "self_ms", "network.frames.zone_encode", "round_ms_p50@city_mobility"),
    ("network.frames.zone_decode_ms", "ms", "lower", "self_ms", "network.frames.zone_decode", "round_ms_p50@city_mobility"),
    ("network.bus.send_ms", "ms", "lower", "self_ms", "network.bus.send", "rounds_per_s@zone_async"),
    ("network.bus.record_ms", "ms", "lower", "self_ms", "network.bus.record", "rounds_per_s@zone_async"),
    ("network.bus.messages", "count", "lower", "value", None, "rounds_per_s@zone_async"),
    ("network.bus.bytes", "bytes", "lower", "value", None, "rounds_per_s@zone_async"),
    ("network.bus.lost", "count", "lower", "value", None, "rounds_on_time_ratio@zone_async"),
    ("network.bus.inbox_peak", "count", "lower", "value", None, "peak_rss_mb@zone_async"),
    ("middleware.rounds.self_ms", "ms", "lower", "self_ms", "sim.engine.run", "rounds_per_s@zone_async"),
    ("middleware.rounds.late_reports", "count", "lower", "value", None, "rounds_on_time_ratio@zone_async"),
    ("middleware.rounds.skipped", "count", "lower", "value", None, "rounds_on_time_ratio@gateway_stream"),
    ("middleware.broker.plan_ms", "ms", "lower", "self_ms", "middleware.broker.plan", "rounds_per_s@zone_async"),
    ("middleware.broker.collect_ms", "ms", "lower", "self_ms", "middleware.broker.collect", "rounds_per_s@zone_async"),
    ("middleware.broker.solve_ms", "ms", "lower", "self_ms", "middleware.broker.solve", "round_ms_p50@gateway_stream"),
    ("middleware.broker.finalize_ms", "ms", "lower", "self_ms", "middleware.broker.finalize", "round_ms_p50@gateway_stream"),
    ("middleware.nanocloud.refresh_ms", "ms", "lower", "self_ms", "middleware.nanocloud.refresh", "rounds_per_s@zone_async"),
    ("middleware.node.command_ms", "ms", "lower", "self_ms", "middleware.node.command", "rounds_per_s@zone_async"),
    ("middleware.node.commands", "count", "lower", "calls", "middleware.node.command", "rounds_per_s@zone_async"),
    ("sim.engine.record_ms", "ms", "lower", "self_ms", "sim.engine.record", "rounds_per_s@zone_async"),
    ("sim.engine.clock_events", "count", "lower", "value", None, "rounds_per_s@zone_async"),
    ("sim.engine.rel_error", "ratio", "lower", "value", None, "estimate_rmse@zone_async"),
    ("gateway.protocol.ws_read_us", "us", "lower", "self_us", "gateway.protocol.ws_read", "reports_per_s@gateway_stream"),
    ("gateway.protocol.ws_encode_us", "us", "lower", "self_us", "gateway.protocol.ws_encode", "round_ms_p50@gateway_stream"),
    ("gateway.streams.parse_us", "us", "lower", "self_us", "gateway.streams.parse", "reports_per_s@gateway_stream"),
    ("gateway.streams.frame_us", "us", "lower", "self_us", "gateway.streams.frame", "reports_per_s@gateway_stream"),
    ("gateway.streams.command_us", "us", "lower", "self_us", "gateway.streams.command", "round_ms_p50@gateway_stream"),
    ("gateway.server.latest_us", "us", "lower", "self_us", "gateway.server.latest", "round_ms_p50@gateway_stream"),
    ("gateway.server.frames_in", "count", "higher", "value", None, "reports_per_s@gateway_stream"),
    ("gateway.server.frames_out", "count", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.overload_level", "count", "lower", "value", None, "rounds_on_time_ratio@gateway_stream"),
    ("gateway.server.cpu_util_paced", "ratio", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.cpu_util_flood", "ratio", "lower", "value", None, "reports_per_s@gateway_stream"),
    ("gateway.server.loop_lag_ms_p50", "ms", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.loop_lag_ms_tail", "ms", "lower", "value", None, "rounds_on_time_ratio@gateway_stream"),
    ("gateway.server.flood_loop_lag_ms_p50", "ms", "lower", "value", None, "reports_per_s@gateway_stream"),
    ("gateway.server.round_ms_tail", "ms", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.flood_round_ms_p50", "ms", "lower", "value", None, "rounds_per_s@gateway_stream"),
    ("gateway.server.reported_latency_ms_p50", "ms", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.query_ms_p50", "ms", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.query_ms_tail", "ms", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("gateway.server.flood_query_ms_p50", "ms", "lower", "value", None, "reports_per_s@gateway_stream"),
    ("harness.gen_late_ms_p99", "ms", "lower", "value", None, "round_ms_p50@gateway_stream"),
    ("harness.trace_overhead_ratio", "ratio", "lower", "value", None, "round_ms_p50@city_solve"),
    ("harness.self_time_coverage", "ratio", "higher", "value", None, "round_ms_p50@city_solve"),
)


def layer_metrics(
    summary: Mapping[str, Mapping[str, float]],
    counters: Mapping[str, int],
    rounds: int,
    values: Mapping[str, float],
) -> dict[str, float]:
    """Every per-layer metric, 0.0 where the workload bypasses the layer.

    ``summary``/``counters`` come from :meth:`Tracer.summary` and
    ``Tracer.counters``; ``rounds`` is how many rounds the traced part
    of the run completed; ``values`` holds the counts and tails the
    workload measured itself.
    """
    out: dict[str, float] = {}
    per_round = 1.0 / rounds if rounds else 0.0
    for name, _unit, _better, how, span, _moves in LAYER_METRICS:
        if how == "value":
            out[name] = float(values.get(name, 0.0))
            continue
        seen = summary.get(span, {"calls": 0, "self_ns": 0.0})
        if how == "self_ms":
            out[name] = seen["self_ns"] / 1e6 * per_round
        elif how == "calls":
            out[name] = seen["calls"] * per_round
        else:  # self_us: coroutine spans are stretches, so use the tally
            calls = counters.get(span + ".calls", seen["calls"])
            out[name] = seen["self_ns"] / 1e3 / calls if calls else 0.0
    return out
