"""Shared helpers for the benchmark harness.

Every bench regenerates one figure/table of the paper (or one claim made
in its text) and reports the series three ways:

- printed to stdout (visible with ``pytest -s`` or on failure),
- attached to the pytest-benchmark record via ``extra_info``,
- written to ``benchmarks/results/<experiment_id>.txt`` so the numbers
  survive the run and EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

# The robust solve's fit budget (tests/core/test_robust.py pins both):
# a clean zone's ``RobustFit.fits`` — naive fit, equal-weight full fit
# and two short objective-monotone C-step starts — and the hard cap
# ``2 + 2 * max_rounds + max_rounds`` at the default ``max_rounds=8``.
CLEAN_FITS_BUDGET = 12
FITS_CAP = 26


@contextmanager
def recorded_robust_fits(module):
    """Collect every ``RobustFit`` that ``module.robust_reconstruct``
    returns inside the block, so a bench can gate on ``.fits``."""
    solves: list = []
    real = module.robust_reconstruct

    def recording(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    module.robust_reconstruct = recording
    try:
        yield solves
    finally:
        module.robust_reconstruct = real


def record_series(
    experiment_id: str,
    title: str,
    header: list[str],
    rows: list[list],
    notes: str = "",
) -> str:
    """Format, print and persist one experiment's series.

    Returns the formatted table (useful for assertions on shape).
    """
    widths = [
        max(len(str(header[i])), *(len(_fmt(row[i])) for row in rows))
        for i in range(len(header))
    ]
    lines = [f"== {experiment_id}: {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append(
            "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
        )
    if notes:
        lines.append(f"-- {notes}")
    table = "\n".join(lines)
    print("\n" + table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(table + "\n")
    return table


def merge_bench_json(
    path: Path, schema: str, smoke: bool, section: str, payload: dict
) -> None:
    """Read-modify-write one section of a ``BENCH_*.json`` document."""
    document = {"schema": schema, "smoke": smoke, "sections": {}}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError:
            pass
    document["smoke"] = smoke
    document.setdefault("sections", {})[section] = payload
    path.write_text(json.dumps(document, indent=2) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
