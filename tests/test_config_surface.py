"""Every config field is set by shipped code, or says why it stays.

A field that only a test ever sets is a constant with a validation
check and a docstring entry around it.  For each config dataclass that
``make loc`` counts, an AST scan of ``src/`` and ``benchmarks/``
collects the keyword names passed to its constructor (and positional
arguments, by field order) or to ``dataclasses.replace``.  A field
outside that set must appear in :data:`ALLOWLIST` with its reason.

``replace`` cannot be typed statically, so a keyword passed to any
``replace`` call counts for every config that has a field of that
name: the scan can miss a test-only field, never invent one.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "benchmarks")


def _loc_configs() -> tuple[type, ...]:
    """The config dataclasses ``make loc`` counts, imported the way its
    recipe imports them."""
    recipe = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    module_of = {}
    for module, names in re.findall(
        r"from (repro[\w.]*) import ([\w, \t]+);", recipe
    ):
        for name in names.split(","):
            module_of[name.strip()] = module
    match = re.search(r"configs = \(([^)]*)\)", recipe)
    assert match is not None, "make loc no longer lists its configs"
    names = [n.strip() for n in match.group(1).split(",") if n.strip()]
    return tuple(
        getattr(importlib.import_module(module_of[name]), name)
        for name in names
    )


CONFIGS = _loc_configs()

#: (class, field) -> why the field stays though no shipped caller sets it.
ALLOWLIST = {
    ("BrokerConfig", "rehab_interval"): (
        "input of the broker trust golden (tests/middleware/"
        "test_trust_golden.py), which pins the rehab cadence"
    ),
    ("BrokerConfig", "rehab_probes"): (
        "input of the broker trust golden, with rehab_interval"
    ),
    ("PopulationConfig", "dt"): (
        "an axis of the population oracle's Hypothesis test "
        "(tests/sim/test_population.py)"
    ),
    ("PopulationConfig", "speed_range"): (
        "an axis of the population oracle's Hypothesis test"
    ),
    ("PopulationConfig", "pause_range"): (
        "an axis of the population oracle's Hypothesis test"
    ),
    ("ResilienceConfig", "shed_at_level"): (
        "the gateway's overload-shedding defence switch, which the "
        "planned all-defences-on `field` profile turns on"
    ),
    ("HierarchyConfig", "nanoclouds_per_localcloud"): (
        "input of the lockstep collect golden (tests/middleware/"
        "test_collect_golden.py)"
    ),
}


def _replace_names(tree: ast.Module) -> set[str]:
    """Local names bound to ``dataclasses.replace`` in one module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "replace"
            )
    return names


def set_fields(roots=SHIPPED, base=ROOT) -> dict[str, set[str]]:
    """Config class name -> field names some call under ``roots`` sets."""
    order = {c.__name__: [f.name for f in dataclasses.fields(c)] for c in CONFIGS}
    found: dict[str, set[str]] = {name: set() for name in order}
    replaced: set[str] = set()
    for root in roots:
        for path in sorted((base / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            replace_names = _replace_names(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                keywords = {kw.arg for kw in node.keywords if kw.arg}
                if name in order:
                    positional = [
                        arg for arg in node.args
                        if not isinstance(arg, ast.Starred)
                    ]
                    found[name] |= keywords
                    found[name].update(order[name][: len(positional)])
                elif (
                    isinstance(func, ast.Name) and func.id in replace_names
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "replace"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "dataclasses"
                ):
                    replaced |= keywords
    return {name: fields | replaced for name, fields in found.items()}


def unset_fields(roots=SHIPPED, base=ROOT) -> set[tuple[str, str]]:
    """(class, field) pairs no call under ``roots`` sets."""
    seen = set_fields(roots, base)
    return {
        (c.__name__, f.name)
        for c in CONFIGS
        for f in dataclasses.fields(c)
        if f.name not in seen[c.__name__]
    }


def test_scan_covers_the_configs_make_loc_counts():
    assert len(CONFIGS) >= 8
    assert all(dataclasses.is_dataclass(c) for c in CONFIGS)
    assert {"BrokerConfig", "OverloadConfig", "CompressionPolicy"} <= {
        c.__name__ for c in CONFIGS
    }


def test_every_test_only_field_is_allowlisted():
    unexplained = sorted(unset_fields() - set(ALLOWLIST))
    assert unexplained == [], (
        "config fields that no code under src/ or benchmarks/ sets; make "
        f"each a module constant or allowlist it with a reason: {unexplained}"
    )


def test_allowlist_has_no_stale_entries():
    fields = {
        (c.__name__, f.name) for c in CONFIGS for f in dataclasses.fields(c)
    }
    assert set(ALLOWLIST) <= fields, "allowlisted field no longer exists"
    stale = sorted(set(ALLOWLIST) - unset_fields())
    assert stale == [], f"allowlisted but now set by shipped code: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_scan_sees_keywords_positionals_and_replace(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "from dataclasses import replace as dc_replace\n"
        "import dataclasses\n"
        "a = CompressionPolicy('dense')\n"
        "b = OverloadConfig(queue_high=4.0)\n"
        "c = dc_replace(b, coarse_sparsity_cap=2)\n"
        "d = dataclasses.replace(a, ratio=0.5)\n"
    )
    seen = set_fields(roots=("pkg",), base=tmp_path)
    assert seen["CompressionPolicy"] >= {"mode", "ratio"}
    assert seen["OverloadConfig"] >= {"queue_high", "coarse_sparsity_cap"}
    assert "admission_control" not in seen["OverloadConfig"]
