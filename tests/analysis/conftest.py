"""Shared fixtures for the reprolint tests.

Linting the shipped package is the one expensive step in this
directory, so it happens once per test session: every shipped-tree gate
(the per-rule "shipped tree zero" checks, the all-rules gate, the time
budget and the CLI report formats) reads the same result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.analysis.reprolint import Finding, lint_paths

PKG_ROOT = Path(repro.__file__).parent


@dataclass(frozen=True)
class ShippedLint:
    """Every rule over ``src/repro``: findings, files scanned, seconds."""

    findings: list[Finding]
    scanned: int
    seconds: float

    def active(self, rule: str | None = None) -> list[Finding]:
        return [
            f
            for f in self.findings
            if not f.suppressed and (rule is None or f.rule == rule)
        ]


@pytest.fixture(scope="session")
def shipped_lint() -> ShippedLint:
    start = time.perf_counter()
    findings, scanned = lint_paths([PKG_ROOT])
    return ShippedLint(findings, scanned, time.perf_counter() - start)
