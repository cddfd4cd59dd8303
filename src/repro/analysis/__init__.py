"""Invariant enforcement for the simulation substrate.

Three complementary layers:

- :mod:`repro.analysis.reprolint` — a project-specific per-file AST
  linter (``python -m repro.analysis``) machine-checking the
  determinism and purity invariants every result in this repo stands
  on.  See ``docs/invariants.md`` for the catalogue.
- :mod:`repro.analysis.project` + :mod:`repro.analysis.wholeprogram` —
  a whole-program layer (parse-once project model, import resolution,
  call graph) powering the cross-file rules RPR010, RPR012 and RPR013:
  async blocking discipline, seed lineage, and publish/subscribe flow
  matching.
- :mod:`repro.analysis.contracts` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``) adding NaN/Inf and shape contracts at solver
  boundaries, a mutation guard on the shared basis registry, and
  thread-ownership asserts on the event-driven round drivers.  Near-zero
  overhead when off.
"""

from . import contracts
from .cli import main
from .project import ProjectModel
from .reprolint import (
    RULES,
    Finding,
    lint_file,
    lint_paths,
    lint_source,
)
from .wholeprogram import WHOLE_PROGRAM_RULES, analyze_paths, analyze_project

__all__ = [
    "contracts",
    "main",
    "ProjectModel",
    "RULES",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "WHOLE_PROGRAM_RULES",
    "analyze_paths",
    "analyze_project",
]
