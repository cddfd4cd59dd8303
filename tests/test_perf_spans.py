"""Every span the layered benchmark traces still resolves in ``repro``.

``benchmarks/perf/perf_layers.SPANS`` names the callables the tracer
rebinds: a method through ``owner.__dict__[attr]`` (so it must be
defined on that class itself, not inherited), a function as a module
global.  A refactor that renames, moves or re-types one of them breaks
the traced benchmark; this test catches it in the tier-1 run by reading
the table, without importing or editing the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERF_LAYERS = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "perf" / "perf_layers.py"
)


def _spans() -> list[tuple]:
    tree = ast.parse(PERF_LAYERS.read_text())
    for node in tree.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "SPANS"
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SPANS table in {PERF_LAYERS}")


SPANS = _spans()


def test_table_is_not_empty():
    assert len(SPANS) > 10


@pytest.mark.parametrize(
    "module, owner, attr, coroutine",
    [(m, c, a, co) for m, c, a, _name, co in SPANS],
    ids=[f"{m}:{c or ''}.{a}" for m, c, a, _name, _co in SPANS],
)
def test_span_target_resolves(module, owner, attr, coroutine):
    mod = importlib.import_module(module)
    if owner is None:
        assert attr in vars(mod), f"{module} has no global {attr}"
        target = vars(mod)[attr]
        assert callable(target), f"{module}.{attr} is not callable"
    else:
        cls = getattr(mod, owner, None)
        assert inspect.isclass(cls), f"{module}.{owner} is not a class"
        assert attr in cls.__dict__, (
            f"{owner}.{attr} is not defined on {owner} itself"
        )
        target = cls.__dict__[attr]
        assert callable(target), f"{owner}.{attr} is not callable"
    assert inspect.iscoroutinefunction(target) == coroutine
