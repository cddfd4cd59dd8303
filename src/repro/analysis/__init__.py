"""Invariant enforcement for the simulation substrate.

Two complementary layers:

- :mod:`repro.analysis.reprolint` — a project-specific AST linter
  (``python -m repro.analysis``) machine-checking the determinism,
  async and inbox invariants every result in this repo stands on.
  One pass parses each file once; the cross-file rule (duplicate
  seeds) folds the facts every file records.  See
  ``docs/invariants.md`` for the catalogue.
- :mod:`repro.analysis.contracts` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``) adding NaN/Inf and shape contracts at solver
  boundaries, a mutation guard on the shared basis registry, and
  thread-ownership asserts on the event-driven round drivers.  Near-zero
  overhead when off.
"""

from . import contracts
from .cli import main
from .reprolint import (
    RULES,
    Finding,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "contracts",
    "main",
    "RULES",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
]
