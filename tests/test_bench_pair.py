"""``benchmarks/pair.py``'s per-metric verdict on synthetic run lists,
and the arguments ``make bench-pair`` hands it."""

import importlib.util
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pair", ROOT / "benchmarks" / "pair.py"
)
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

LOWER = {"name": "round_ms_p50", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rounds_per_s", "better": "higher", "bound": 0.25}

BASE = [5.0, 5.1, 4.9, 5.2, 5.0, 4.8, 5.1, 5.0, 4.9, 5.1]


def _scaled(runs, factor):
    return [v * factor for v in runs]


class TestVerdict:
    def test_gain_lower_is_better(self):
        assert pair.verdict(LOWER, BASE, _scaled(BASE, 0.55)) == "gain"

    def test_gain_higher_is_better(self):
        assert pair.verdict(HIGHER, BASE, _scaled(BASE, 1.3)) == "gain"

    def test_eight_wins_in_ten_is_no_gain(self):
        head = _scaled(BASE, 0.55)
        head[0], head[1] = BASE[0] * 1.01, BASE[1] * 1.01
        assert pair.verdict(LOWER, BASE, head) == "flat"

    def test_ties_are_not_wins(self):
        head = _scaled(BASE, 0.55)
        head[0], head[1] = BASE[0], BASE[1]
        assert pair.verdict(LOWER, BASE, head) == "flat"

    def test_win_inside_the_base_spread_is_no_gain(self):
        # Every pair won, but by less than the base's quartile distance.
        head = [v - 0.01 for v in BASE]
        assert pair.verdict(LOWER, BASE, head) == "flat"

    def test_regressed_beyond_the_bound(self):
        assert pair.verdict(LOWER, BASE, _scaled(BASE, 1.3)) == "regressed"
        assert pair.verdict(HIGHER, BASE, _scaled(BASE, 0.7)) == "regressed"

    def test_worse_within_the_bound_is_flat(self):
        assert pair.verdict(LOWER, BASE, _scaled(BASE, 1.2)) == "flat"

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
        assert pair.verdict(LOWER, noisy, list(noisy)) == "unresolved"

    def test_wide_spread_but_head_dominates_is_not_unresolved(self):
        noisy = [2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0]
        head = [1.9] * 10
        assert pair.verdict(LOWER, noisy, head) == "flat"

    @pytest.mark.parametrize("metric", [LOWER, HIGHER])
    def test_identical_runs_are_flat(self, metric):
        assert pair.verdict(metric, BASE, list(BASE)) == "flat"


def _make_bench_pair_argv(*assignments: str) -> list[str]:
    """The pair.py command line ``make -n bench-pair`` would run."""
    env = {k: v for k, v in os.environ.items() if k not in ("SEED", "SECONDS")}
    done = subprocess.run(
        ["make", "-n", "bench-pair", *assignments],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.replace("\\\n", " ").split()


@pytest.mark.skipif(shutil.which("make") is None, reason="needs make")
class TestMakeTarget:
    def test_forwards_seed_and_seconds(self):
        argv = _make_bench_pair_argv(
            "BASE=abc", "WORKLOAD=city_solve", "PAIRS=10", "SEED=23",
            "SECONDS=10",
        )
        assert argv[argv.index("benchmarks/pair.py") + 1 :] == [
            "--base", "abc", "--workload", "city_solve", "--pairs", "10",
            "--seed", "23", "--seconds", "10",
        ]

    def test_unset_leaves_the_script_defaults(self):
        argv = _make_bench_pair_argv()
        assert "--seed" not in argv and "--seconds" not in argv
