"""Tests for the whole-program project model (repro.analysis.project).

The model is the substrate the whole-program rules stand on, so the
things that matter are tested directly: module naming from package
layout, import resolution (absolute / aliased / relative / ``__init__``
re-export chains), call-graph soundness on a small fixture package,
and the mtime/size parse cache invalidating when a file changes
between loads.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.project import ProjectModel, _module_name_for


def _pkg(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise a fixture package tree under tmp_path/proj."""
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def _load(tmp_path: Path, files: dict[str, str]) -> ProjectModel:
    return ProjectModel([_pkg(tmp_path, files)]).load()


class TestModuleNaming:
    def test_package_layout_drives_dotted_names(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/alpha.py": "def f():\n    pass\n",
                "pkg/sub/__init__.py": "",
                "pkg/sub/beta.py": "def g():\n    pass\n",
            },
        )
        assert "pkg" in model.modules
        assert "pkg.alpha" in model.modules
        assert "pkg.sub" in model.modules
        assert "pkg.sub.beta" in model.modules
        assert "pkg.alpha.f" in model.functions
        assert "pkg.sub.beta.g" in model.functions

    def test_file_outside_any_package_is_its_own_stem(self, tmp_path):
        lone = tmp_path / "solo.py"
        lone.write_text("def h():\n    pass\n", encoding="utf-8")
        assert _module_name_for(lone) == "solo"
        model = ProjectModel([lone]).load()
        assert "solo.h" in model.functions


class TestImportResolution:
    def test_absolute_and_aliased_imports(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/helpers.py": "def work():\n    pass\n",
                "pkg/user.py": """
                    import pkg.helpers as hp
                    from pkg.helpers import work as w

                    def run():
                        hp.work()
                        w()
                """,
            },
        )
        fn = model.functions["pkg.user.run"]
        resolved = [
            targets
            for _site, targets, _dotted in model.callees("pkg.user.run")
        ]
        assert resolved == [
            ("pkg.helpers.work",),
            ("pkg.helpers.work",),
        ], fn.calls

    def test_relative_imports_single_and_double_dot(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/base.py": "def root_fn():\n    pass\n",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": """
                    from .sibling import near
                    from ..base import root_fn

                    def go():
                        near()
                        root_fn()
                """,
                "pkg/sub/sibling.py": "def near():\n    pass\n",
            },
        )
        resolved = [
            targets for _s, targets, _d in model.callees("pkg.sub.mod.go")
        ]
        assert resolved == [
            ("pkg.sub.sibling.near",),
            ("pkg.base.root_fn",),
        ]

    def test_init_reexport_chain_resolves_to_definition(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "from .inner import thing\n",
                "pkg/inner/__init__.py": "from .impl import thing\n",
                "pkg/inner/impl.py": "def thing():\n    pass\n",
                "pkg/user.py": """
                    from pkg import thing

                    def use():
                        thing()
                """,
            },
        )
        assert model.resolve_export("pkg.thing") == "pkg.inner.impl.thing"
        resolved = [
            targets for _s, targets, _d in model.callees("pkg.user.use")
        ]
        assert resolved == [("pkg.inner.impl.thing",)]

    def test_from_dot_import_in_package_init(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "from . import const\n",
                "pkg/const.py": "LABEL = 'x'\n",
            },
        )
        info = model.modules["pkg"]
        assert info.imports["const"] == "pkg.const"


class TestCallGraph:
    def test_self_method_call_resolves_precisely(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/cls.py": """
                    class Engine:
                        def start(self):
                            self._spin()

                        def _spin(self):
                            pass
                """,
            },
        )
        resolved = [
            targets
            for _s, targets, _d in model.callees("pkg.cls.Engine.start")
        ]
        assert resolved == [("pkg.cls.Engine._spin",)]

    def test_self_call_through_project_base_class(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/base.py": """
                    class Base:
                        def tick(self):
                            pass
                """,
                "pkg/derived.py": """
                    from pkg.base import Base

                    class Derived(Base):
                        def run(self):
                            self.tick()
                """,
            },
        )
        resolved = [
            targets
            for _s, targets, _d in model.callees("pkg.derived.Derived.run")
        ]
        assert resolved == [("pkg.base.Base.tick",)]

    def test_class_instantiation_resolves_to_init(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/cls.py": """
                    class Widget:
                        def __init__(self):
                            self.n = 0

                    def make():
                        return Widget()
                """,
            },
        )
        resolved = [
            targets for _s, targets, _d in model.callees("pkg.cls.make")
        ]
        assert resolved == [("pkg.cls.Widget.__init__",)]

    def test_nested_def_registered_and_resolvable(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/nest.py": """
                    def outer():
                        def inner():
                            pass
                        inner()
                """,
            },
        )
        assert "pkg.nest.outer.inner" in model.functions
        resolved = [
            targets for _s, targets, _d in model.callees("pkg.nest.outer")
        ]
        assert resolved == [("pkg.nest.outer.inner",)]
        members = model.lexical_members("pkg.nest.outer")
        assert [m.qualname for m in members] == [
            "pkg.nest.outer",
            "pkg.nest.outer.inner",
        ]

    def test_common_method_name_fallback_stays_unresolved(self, tmp_path):
        """Precision-over-soundness: obj.update() on an unknown receiver
        must not wire the graph to every project method named update."""
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """
                    class Store:
                        def update(self):
                            pass

                        def recompute_estimate(self):
                            pass
                """,
                "pkg/b.py": """
                    def use(obj):
                        obj.update()
                        obj.recompute_estimate()
                """,
            },
        )
        resolved = [
            targets for _s, targets, _d in model.callees("pkg.b.use")
        ]
        assert resolved[0] == ()  # common name: no fallback
        assert resolved[1] == ("pkg.a.Store.recompute_estimate",)

    def test_external_call_keeps_dotted_path(self, tmp_path):
        model = _load(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/ext.py": """
                    import time
                    import numpy as np

                    def f():
                        time.sleep(1)
                        np.zeros(3)
                """,
            },
        )
        dotteds = [
            dotted for _s, _t, dotted in model.callees("pkg.ext.f")
        ]
        assert dotteds == ["time.sleep", "numpy.zeros"]


class TestCacheInvalidation:
    def test_unchanged_files_come_from_cache(self, tmp_path):
        root = _pkg(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def f():\n    pass\n",
                "pkg/b.py": "def g():\n    pass\n",
            },
        )
        model = ProjectModel([root]).load()
        assert model.files_parsed == 3
        assert model.files_cached == 0
        model.load()
        assert model.files_parsed == 0
        assert model.files_cached == 3

    def test_edited_file_reparsed_mid_run(self, tmp_path):
        root = _pkg(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def f():\n    pass\n",
                "pkg/b.py": "def g():\n    pass\n",
            },
        )
        model = ProjectModel([root]).load()
        assert "pkg.a.f" in model.functions
        # Edit one module between loads; content length differs so the
        # (mtime_ns, size) key changes even on coarse filesystems.
        (root / "pkg/a.py").write_text(
            "def f():\n    pass\n\ndef f2():\n    pass\n",
            encoding="utf-8",
        )
        model.load()
        assert model.files_parsed == 1  # only the edited file
        assert model.files_cached == 2
        assert "pkg.a.f2" in model.functions

    def test_deleted_function_disappears_after_reload(self, tmp_path):
        root = _pkg(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def gone():\n    pass\n",
            },
        )
        model = ProjectModel([root]).load()
        assert "pkg.a.gone" in model.functions
        (root / "pkg/a.py").write_text("X = 1\n", encoding="utf-8")
        model.load()
        assert "pkg.a.gone" not in model.functions

    def test_syntax_error_reported_not_raised(self, tmp_path):
        root = _pkg(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/ok.py": "def f():\n    pass\n",
                "pkg/broken.py": "def broken(:\n",
            },
        )
        model = ProjectModel([root]).load()
        assert "pkg.ok.f" in model.functions
        assert len(model.parse_errors) == 1
        assert "broken.py" in model.parse_errors[0][0]


class TestGraphDump:
    def test_graph_json_is_stable_and_parseable(self, tmp_path):
        root = _pkg(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """
                    import time

                    def f():
                        time.sleep(1)
                        g()

                    def g():
                        pass
                """,
            },
        )
        model = ProjectModel([root]).load()
        first = model.graph_json()
        second = model.graph_json()
        assert first == second  # byte-stable for diffing
        payload = json.loads(first)
        entry = payload["functions"]["pkg.a.f"]
        externals = [
            c.get("external") for c in entry["calls"] if "external" in c
        ]
        targets = [
            t for c in entry["calls"] for t in c.get("targets", [])
        ]
        assert "time.sleep" in externals
        assert "pkg.a.g" in targets
