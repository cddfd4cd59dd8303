"""Command-line front end for reprolint (``python -m repro.analysis``).

Text output is one finding per line (``path:line:col: RPRnnn[name]
message``); ``--format json`` emits a machine-readable report for CI,
and ``--format github`` emits workflow-command annotations so findings
attach to the PR diff.  One pass parses each file once and runs every
rule, the cross-file ones (RPR012 duplicate seeds, RPR013 pub/sub flow)
included.  The exit status is 0 when no unsuppressed findings remain, 1
otherwise, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .reprolint import RETIRED_RULES, RULES, Finding, lint_paths

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: invariant-enforcing static analysis for the "
            "SenseDroid reproduction (determinism, sim-time purity, "
            "shared-cache immutability, async discipline, seed lineage, "
            "pub/sub flow)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids or names to run (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print pragma-suppressed findings (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _github_annotation(finding: Finding) -> str:
    """One GitHub workflow-command annotation line per finding.

    Newlines and the characters GitHub treats as command delimiters
    must be percent-escaped (the documented workflow-command escaping).
    """

    def esc_data(text: str) -> str:
        return (
            text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )

    def esc_prop(text: str) -> str:
        return esc_data(text).replace(":", "%3A").replace(",", "%2C")

    level = "warning" if finding.suppressed else "error"
    title = f"{finding.rule}[{finding.name}]"
    return (
        f"::{level} file={esc_prop(finding.path)},"
        f"line={finding.line},col={finding.col + 1},"
        f"title={esc_prop(title)}::{esc_data(finding.message)}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        lines = [
            f"{rule} {name}: {summary}" for rule, (name, summary) in RULES.items()
        ] + [f"{rule} {name}: retired" for rule, name in RETIRED_RULES.items()]
        print("\n".join(sorted(lines)))
        return 0

    select = args.select.split(",") if args.select else None
    try:
        findings, scanned = lint_paths(args.paths, select=select)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_scanned": scanned,
                    "findings": [f.as_dict() for f in findings],
                    "unsuppressed": len(active),
                    "suppressed": len(suppressed),
                },
                indent=2,
            )
        )
    else:
        render = _github_annotation if args.format == "github" else Finding.render
        for finding in findings if args.show_suppressed else active:
            print(render(finding))
        print(
            f"reprolint: {scanned} file(s) scanned, "
            f"{len(active)} finding(s), {len(suppressed)} suppressed"
        )
    return 1 if active else 0
