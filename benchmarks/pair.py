"""Alternating base/head pairs of one layered-benchmark workload.

    python3 benchmarks/pair.py --base <git ref> --workload city_mobility --pairs 5

checks ``--base`` out into a temporary ``git worktree``, then runs
``benchmarks/perf/run.py --workload W --seed N --trace 0`` on that
checkout and on the working tree in turn — the side that goes first
alternates pair by pair, so drift of the host lands on both — and prints,
per end-to-end metric, each side's median and quartiles, the per-pair
change, how many pairs the working tree won, and one verdict per metric
(:func:`verdict`: ``gain``, ``regressed``, ``unresolved`` or ``flat``,
by the rule for claiming a gain — win at least nine pairs in ten,
medians apart by more than the base's interquartile distance — and the
``bound`` each metric has in ``BENCHMARK.json``).  It measures, it does
not gate.  Each side runs its *own* copy of ``benchmarks/perf``, so the
comparison is only like for like when that directory is unchanged
between the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``workload`` in ``tree``; metric name -> value."""
    argv = [
        sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=tree)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"pair.py: run failed in {tree}:\n{done.stdout}")
    line = json.loads(lines[-1])
    if line["failed"]:
        print(f"  ! {line['failed']} of {line['attempted']} operations failed")
    return {name: cell["value"] for name, cell in line["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric: dict, base: list[float], head: list[float]) -> str:
    """One metric's verdict over paired runs (``base[i]`` beside ``head[i]``).

    - ``gain``: the head wins at least nine pairs in ten (a tie is no
      win) and the medians are apart by more than the base's
      interquartile distance;
    - ``regressed``: the head median is worse than the base median by
      more than the metric's ``bound`` (a fraction of the base median);
    - ``unresolved``: the base's interquartile distance is wider than
      the bound, unless every head run beats every base run;
    - ``flat``: none of these.
    """
    sign = -1 if metric["better"] == "lower" else 1
    bq1, bq2, bq3 = quartiles(base)
    bound = metric["bound"] * abs(bq2)
    better_by = sign * (quartiles(head)[1] - bq2)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    if wins >= 0.9 * len(base) and better_by > bq3 - bq1:
        return "gain"
    if better_by < -bound:
        return "regressed"
    dominates = all(sign * (h - b) > 0 for h in head for b in base)
    if bq3 - bq1 > bound and not dominates:
        return "unresolved"
    return "flat"


def report(spec: dict, base: list[dict], head: list[dict]) -> None:
    pairs = len(base)
    print(f"\n{'metric':<22}{'base p50 [q1, q3]':>32}{'head p50 [q1, q3]':>32}"
          f"{'change':>9}{'wins':>7}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = -1 if metric["better"] == "lower" else 1
        b = [run[name] for run in base]
        h = [run[name] for run in head]
        wins = sum(sign * (hv - bv) > 0 for bv, hv in zip(b, h))
        (bq1, bq2, bq3), (hq1, hq2, hq3) = quartiles(b), quartiles(h)
        change = (hq2 - bq2) / abs(bq2) if bq2 else float("nan")
        print(f"{name:<22}{f'{bq2:.5g} [{bq1:.5g}, {bq3:.5g}]':>32}"
              f"{f'{hq2:.5g} [{hq1:.5g}, {hq3:.5g}]':>32}"
              f"{change:>+9.1%}{f'{wins}/{pairs}':>7}  {verdict(metric, b, h)}")
        deltas = " ".join(
            f"{(hv - bv) / abs(bv):+.1%}" if bv else "n/a"
            for bv, hv in zip(b, h)
        )
        print(f"  per pair: {deltas}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        base_tree = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_tree), args.base],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        try:
            base, head = [], []
            for pair in range(args.pairs):
                order = [("base", base, base_tree), ("head", head, ROOT)]
                if pair % 2:
                    order.reverse()
                for side, runs, tree in order:
                    runs.append(
                        run_once(tree, args.workload, args.seed, args.seconds)
                    )
                    print(f"pair {pair + 1}/{args.pairs} {side}: " + "  ".join(
                        f"{k}={v:.5g}" for k, v in runs[-1].items()
                    ), flush=True)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_tree)],
                cwd=ROOT, check=False,
            )
    print(f"\n{args.workload}: {args.pairs} pair(s), base={args.base}, "
          f"seed={args.seed}, seconds={args.seconds:g}")
    report(spec, base, head)
    return 0


if __name__ == "__main__":
    sys.exit(main())
