"""Unit tests for the benchmark's own machinery, plus one smoke pass.

Run with ``python -m pytest benchmarks/perf -q`` (outside tier-1's
``testpaths``).  Nothing here asserts a timing.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import types

import numpy as np
import pytest

import run  # noqa: F401  (first: puts src/ and this directory on sys.path)

run._workloads()

import perf_layers  # noqa: E402
from perf_stats import tail_percentile, timing  # noqa: E402
from perf_trace import Tracer, self_times_ns  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# -- percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (24, None), (25, 60.0), (40, 75.0), (50, 80.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_reports_median_tail_and_count():
    summary = timing(np.arange(1, 101))
    assert (summary.n, summary.tail_pct) == (100, 90.0)
    assert summary.p50 == pytest.approx(50.5)
    assert summary.tail == pytest.approx(90.1)
    assert "n=100" in str(summary)


def test_timing_of_small_and_empty_samples_has_no_tail():
    small = timing([3.0, 1.0, 2.0])
    assert (small.p50, small.tail, small.tail_pct) == (2.0, 2.0, None)
    assert timing([]).n == 0


# -- self time -------------------------------------------------------------


def _reference_self_times(start, end, parent):
    """Per-span union of clipped children, the slow obvious way (ticks)."""
    out = []
    for i in range(len(start)):
        covered = set()
        for j in range(len(start)):
            if parent[j] == i:
                covered.update(range(max(start[j], start[i]), min(end[j], end[i])))
        out.append(end[i] - start[i] - len(covered))
    return out


def test_nested_children_are_charged_once():
    # parent 0-100 > child 10-40 > grandchild 20-30
    own = self_times_ns([0, 10, 20], [100, 40, 30], [-1, 0, 1])
    assert own.tolist() == [70, 20, 10]


def test_overlapping_siblings_are_not_subtracted_twice():
    # children 10-50 and 30-70 cover 60 of the parent's 100
    own = self_times_ns([0, 10, 30], [100, 50, 70], [-1, 0, 0])
    assert own.tolist() == [40, 40, 40]


def test_child_outliving_its_parent_is_clipped():
    own = self_times_ns([0, 90], [100, 120], [-1, 0])
    assert own.tolist() == [90, 30]


def test_self_times_match_reference_on_random_forests():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        start = rng.integers(0, 200, size=n)
        end = start + rng.integers(0, 60, size=n)
        parent = np.array(
            [-1] + [int(rng.integers(-1, i)) for i in range(1, n)]
        )
        fast = self_times_ns(start, end, parent).tolist()
        assert fast == _reference_self_times(
            start.tolist(), end.tolist(), parent.tolist()
        )


def test_self_times_of_sequential_code_add_up_to_the_roots():
    tracer = Tracer()

    def leaf():
        return sum(range(200))

    leaf_t = tracer.wrap(leaf, "leaf")

    def middle():
        return leaf_t() + leaf_t()

    middle_t = tracer.wrap(middle, "middle")
    root_t = tracer.wrap(lambda: middle_t() + leaf_t(), "root")
    root_t()
    root_t()
    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {
        "leaf": 6, "middle": 2, "root": 2,
    }
    assert list(tracer.parent) == [-1, 0, 1, 1, 0, -1, 5, 6, 6, 5]
    assert sum(v["self_ns"] for v in summary.values()) == pytest.approx(
        summary["root"]["total_ns"]
    )


# -- tracer plumbing -------------------------------------------------------


def test_wrapped_function_closes_its_span_when_it_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert tracer._stack == [] and tracer.end[0] >= tracer.start[0]


def test_coroutine_spans_cover_only_the_resumed_stretches():
    tracer = Tracer()

    async def reader():
        await asyncio.sleep(0.05)
        await asyncio.sleep(0.05)
        return "done"

    traced = tracer.wrap_coroutine(reader, "reader")
    assert asyncio.run(traced()) == "done"
    seen = tracer.summary()["reader"]
    assert tracer.counters["reader.calls"] == 1
    assert seen["calls"] == 3  # three stretches around two suspensions
    assert seen["total_ns"] < 0.05e9  # the 0.1 s asleep is not its time


def test_coroutine_wrapper_hands_cancellation_to_the_wrapped_coroutine():
    tracer = Tracer()
    cleaned = []

    async def reader():
        try:
            await asyncio.sleep(10)
        finally:
            cleaned.append(True)

    async def scenario():
        task = asyncio.ensure_future(tracer.wrap_coroutine(reader, "r")())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())
    assert cleaned == [True] and tracer._stack == []


def test_patch_function_rebinds_every_alias_and_unpatch_restores():
    home = types.ModuleType("repro_fake_home")
    user = types.ModuleType("repro_fake_user")

    def work():
        return 42

    home.work = work
    user.alias = work
    sys.modules.update({home.__name__: home, user.__name__: user})
    try:
        tracer = Tracer()
        tracer.patch_function(home.__name__, "work", "fake.work")
        assert home.work is not work and user.alias is home.work
        assert user.alias() == 42 and tracer.summary()["fake.work"]["calls"] == 1
        tracer.unpatch()
        assert home.work is work and user.alias is work
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_install_wraps_every_layer_and_unpatch_leaves_no_trace():
    from repro.sim import mega

    # repro.core re-exports the function under the submodule's name.
    omp_module = sys.modules["repro.core.omp"]
    original = omp_module.omp
    tracer = Tracer()
    perf_layers.install(tracer)
    try:
        assert mega.omp is not original  # the by-name import was rebound
        assert set(tracer.names) == {span[3] for span in perf_layers.SPANS}
    finally:
        tracer.unpatch()
    assert mega.omp is original and omp_module.omp is original


# -- BENCHMARK.json --------------------------------------------------------


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_spec_has_exactly_the_contract_keys(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert all(PATH.match(p) and ".." not in p for p in spec["paths"])
    assert 1 <= len(spec["command"]) <= 32
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert len(run.SPEC_PATH.read_bytes()) <= 64 * 1024


def test_spec_run_budget_fits_the_driver(spec):
    runs = 4 + 22 * len(spec["workloads"])
    # seconds measured + set-up repeats, warm-up and start-up per run
    # (measured: 3-4 s for the simulators, 7-8 s for the gateway)
    assert runs * (spec["run_seconds"] + 10) <= 3420


def test_spec_workloads(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {w["name"] for w in spec["workloads"]} == set(run._workloads())


def test_spec_metrics(spec):
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in every] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in every:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_names_what_it_should_move(spec):
    table = {row[0]: row for row in perf_layers.LAYER_METRICS}
    assert [m["name"] for m in spec["per_layer"]] == list(table)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    spans = {span[3] for span in perf_layers.SPANS}
    for metric in spec["per_layer"]:
        name, unit, better, how, span, moves = table[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        target, _, workload = moves.partition("@")
        assert target in end_to_end and workload in workloads
        assert (span in spans) if how != "value" else span is None


def test_layer_metrics_fill_every_name_and_zero_what_is_bypassed():
    summary = {
        "core.omp": {"calls": 20, "self_ns": 4e6, "total_ns": 5e6},
        "gateway.protocol.ws_read": {"calls": 9, "self_ns": 3e3, "total_ns": 3e3},
    }
    got = perf_layers.layer_metrics(
        summary, {"gateway.protocol.ws_read.calls": 3}, 2,
        {"network.bus.lost": 7},
    )
    assert list(got) == [row[0] for row in perf_layers.LAYER_METRICS]
    assert got["core.omp.ms"] == pytest.approx(2.0)  # 4 ms over 2 rounds
    assert got["gateway.protocol.ws_read_us"] == pytest.approx(1.0)
    assert got["network.bus.lost"] == 7.0
    assert got["core.chs.ms"] == 0.0 and got["sim.population.tick_calls"] == 0.0


# -- smoke -----------------------------------------------------------------


def test_smoke_runs_every_workload_traced_and_untraced(capsys):
    assert run.main(["--smoke"]) == 0
    printed = capsys.readouterr().out
    for workload in run._workloads():
        assert f"== {workload} " in printed
    assert "CHECK FAILED" not in printed


def test_contract_line_has_exactly_the_contract_keys(capsys, spec):
    line = run.run_one("zone_async", 3, 0.2, False, smoke=True)
    capsys.readouterr()
    assert line["correct"] and set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert line["attempted"] >= 1 and json.dumps(line)
