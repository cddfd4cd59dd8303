"""Every ``repro.*`` dotted name the prose cites still exists.

README, DESIGN, EXPERIMENTS, ``docs/*.md`` and the docstrings and
comments under ``src/repro`` name modules, classes and functions by
their dotted path.  A deletion or rename that misses one of them leaves
a reader hunting for code that is gone.  Each cited name must resolve:
import its longest importable module prefix, then ``getattr`` the rest.
A name wrapped across two lines (``repro.sim.clock`` on one line,
``.SimClock`` opening the next) is joined before the scan.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))

_NAME = re.compile(
    r"(?<![\w./-])repro(?:(?:[ \t]*\n[ \t]*)?\.[A-Za-z_]\w*)+"
)


def cited_names(text: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every dotted ``repro.*`` name in ``text``;
    ``line`` is where the name starts."""
    return [
        (
            text.count("\n", 0, match.start()) + 1,
            re.sub(r"\s+", "", match.group()),
        )
        for match in _NAME.finditer(text)
    ]


def resolve(name: str) -> object:
    """The object ``name`` denotes; raises when it names nothing."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # Only a missing *candidate* means "try a shorter prefix";
            # a module that fails its own imports is a real break.
            if exc.name is None or not module_name.startswith(exc.name):
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def unresolved(paths) -> tuple[int, list[str]]:
    """How many names ``paths`` cite, and ``path:line name`` for each
    that does not resolve."""
    total, broken = 0, []
    for path in paths:
        for line, name in cited_names(path.read_text()):
            total += 1
            try:
                resolve(name)
            except (ImportError, AttributeError):
                broken.append(f"{path.relative_to(ROOT)}:{line} {name}")
    return total, broken


@pytest.mark.parametrize(
    "paths", [DOCS, SOURCES], ids=["docs", "sources"]
)
def test_cited_names_resolve(paths):
    total, broken = unresolved(paths)
    assert total > 0, "the scan found no repro.* names at all"
    assert not broken, f"{len(broken)} of {total} names are stale:\n" + (
        "\n".join(broken)
    )


class TestScanner:
    def test_finds_plain_and_wrapped_names(self):
        text = (
            "see `repro.network.bus.MessageBus` and\n"
            ":class:`repro.sim.clock\n    .SimClock` here.\n"
        )
        assert [name for _, name in cited_names(text)] == [
            "repro.network.bus.MessageBus",
            "repro.sim.clock.SimClock",
        ]

    def test_skips_paths_and_trailing_dots(self):
        text = "src/repro/sim/clock.py and a sentence ending repro.sim.\n"
        assert [name for _, name in cited_names(text)] == ["repro.sim"]

    def test_resolves_modules_and_nested_attributes(self):
        from repro.network.bus import MessageBus

        assert resolve("repro.network.bus.MessageBus") is MessageBus
        assert resolve("repro.network.bus.MessageBus.send") is (
            MessageBus.send
        )

    @pytest.mark.parametrize(
        "name",
        ["repro.network.no_such_module", "repro.network.bus.NoSuchClass"],
    )
    def test_stale_names_do_not_resolve(self, name):
        with pytest.raises((ImportError, AttributeError)):
            resolve(name)
