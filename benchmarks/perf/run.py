"""One layered benchmark for the whole pipeline (see README.md here).

Contract mode — what ``BENCHMARK.json``'s ``command`` runs::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once, prints every metric by name with its unit and
sample counts, checks the outputs, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status is non-zero when a check failed.

Without ``--workload`` it runs the full set — every workload untraced,
then traced, each as its own process so peak RSS is per workload — and
writes ``results/latest.json`` (numbers, bounds, host block).
``--check-repeat`` runs the untraced set twice and compares the pairs
against the bounds.  ``--smoke`` runs all four workloads at tiny sizes
in this process with no timing assertions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 7
BLAS_THREADS = "1"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _workloads() -> dict:
    """Workload name -> runner; imports the program under test."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure ({ROOT}/src/repro missing)")
    for entry in (str(ROOT / "src"), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    # One process, one thread: BLAS worker threads would put the solve on
    # both cores of the 2-core host and spin against the load generator.
    # Takes effect when numpy is first imported, below; the gateway child
    # inherits it.
    for knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[knob] = BLAS_THREADS
    from perf_gateway import run_gateway_stream
    from perf_workloads import run_city, run_zone_async

    return {
        "city_solve": run_city,
        "city_mobility": run_city,
        "zone_async": run_zone_async,
        "gateway_stream": run_gateway_stream,
    }


def run_one(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run one workload; print its report; return the result line."""
    spec = load_spec()
    outcome = _workloads()[workload](workload, seed, seconds, trace, smoke)
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    mode = "traced, per-layer" if trace else "untraced, end-to-end"
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  ({mode})")
    for name, cell in metrics.items():
        print(f"  {name:<42} {cell['value']:>14.6g} {cell['unit']}")
    if trace:
        for name, value in outcome.end_to_end.items():
            print(f"  (traced run, not for comparison) {name} = {value:.6g}")
    for note in outcome.notes:
        print(f"  . {note}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  failed {outcome.failed} of {outcome.attempted} ({ratio:.3g})")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


# -- the full set, as child processes --------------------------------------


def _run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    line["exit"] = done.returncode
    return line


def host_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "network": "loopback TCP",
    }


def run_full(seed: int, seconds: float) -> int:
    spec = load_spec()
    document = {
        "seed": seed,
        "seconds": seconds,
        "claim": None,
        "host": host_block(),
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "end_to_end": {},
        "per_layer": {},
    }
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = _run_child(name, seed, seconds, trace)
            status |= line["exit"]
            document[key][name] = {
                metric: cell["value"] for metric, cell in line["metrics"].items()
            }
    out = HERE / "results" / "latest.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return status


def check_repeat(seed: int, seconds: float) -> int:
    """Two sets of untraced runs of the same checkout, pair by pair."""
    spec = load_spec()
    sets = [
        {
            entry["name"]: _run_child(entry["name"], seed, seconds, False)
            for entry in spec["workloads"]
        }
        for _ in range(2)
    ]
    status = 0
    print(f"{'metric':<22}{'workload':<16}{'first':>12}{'second':>12}"
          f"{'worse by':>10}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        for workload in sets[0]:
            first, second = (
                s[workload]["metrics"].get(name, {}).get("value") for s in sets
            )
            if first is None or second is None or not first:
                print(f"{name:<22}{workload:<16} missing")
                status = 1
                continue
            worse = sign * (second - first) / abs(first)
            flag = "" if abs(worse) <= metric["bound"] else "  DISAGREE"
            status |= bool(flag)
            print(f"{name:<22}{workload:<16}{first:>12.5g}{second:>12.5g}"
                  f"{worse:>+10.3f}{metric['bound']:>8.2f}{flag}")
    for run in sets:
        status |= any(line["exit"] for line in run.values())
    return status


def smoke() -> int:
    """Every workload, traced and untraced, at tiny sizes: code paths only."""
    status = 0
    for workload in _workloads():
        for trace in (False, True):
            line = run_one(workload, DEFAULT_SEED, 1.0, trace, smoke=True)
            status |= not line["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.check_repeat:
        return check_repeat(args.seed, args.seconds)
    if args.workload is None:
        return run_full(args.seed, args.seconds)
    line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
