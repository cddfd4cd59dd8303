"""Whole-program project model for reprolint's cross-file rules.

The per-file AST rules (:mod:`repro.analysis.reprolint`) see one module
at a time, which is exactly as far as a single-file invariant reaches.
The invariants PRs 2/7/8 added span *files and execution domains*: a
blocking call two frames below a gateway coroutine stalls every session
on the event loop, and a publisher whose topic no subscriber ever
registers for is a contract violated at a distance.

This module builds the shared substrate those rules query:

- :class:`ProjectModel` parses every module under the given roots
  *once* (mtime/size-validated cache, so a file edited mid-run is
  re-parsed on the next :meth:`ProjectModel.load`), derives dotted
  module names from the package layout, and records per-module import
  tables and pragma lines.
- A **def-site index**: every function/method/nested def becomes a
  :class:`FunctionInfo` keyed by qualified name
  (``repro.middleware.broker.Broker.solve_round``).
- A **call graph**: every call site is resolved through the module's
  import aliases, local/nested scopes, class method tables (with
  project-internal base-class lookup) and ``__init__`` re-export
  chains.  Method calls on receivers of unknown type fall back to
  name-based candidate sets, *except* for ubiquitous stdlib-ish method
  names (``get``, ``update``, ``append``, ...) where the fallback
  would wire the graph to everything — soundness there is deliberately
  traded for precision, and the trade is documented here.

Nothing in this module imports the analysed code; it is pure
``ast``-level analysis, safe to run on a broken tree.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .reprolint import _pragma_lines, iter_python_files

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectModel",
]


#: Method names so common across builtin/stdlib types that name-based
#: fallback resolution would connect the call graph to everything.  A
#: call ``obj.get(...)`` on an unknown receiver stays *unresolved*
#: rather than fanning out to every project method named ``get``.
_COMMON_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "close",
        "copy",
        "count",
        "discard",
        "drain",
        "extend",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "open",
        "pop",
        "popleft",
        "put",
        "read",
        "remove",
        "reset",
        "run",
        "send",
        "sort",
        "split",
        "start",
        "stop",
        "strip",
        "update",
        "values",
        "write",
    }
)

#: Name-based fallback gives up beyond this many same-named candidates;
#: a name that popular behaves like a common method name.
_FALLBACK_CANDIDATE_CAP = 6


@dataclass(frozen=True)
class CallSite:
    """One call expression, with every resolution the model could make.

    ``targets`` are qualified names of *project* functions the call may
    dispatch to (possibly several, for name-based fallback).  ``dotted``
    is the import-resolved external path (``time.sleep``) when the call
    leaves the project; bare builtin calls resolve to their plain name
    (``open``).  Both may be empty for genuinely dynamic calls.
    """

    line: int
    col: int
    targets: tuple[str, ...]
    dotted: str | None
    attr_name: str | None


@dataclass
class FunctionInfo:
    """Def-site record: one function/method/nested def."""

    qualname: str
    module: str
    name: str
    path: str
    line: int
    is_async: bool
    class_name: str | None
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Project class: its methods and (project-resolvable) bases."""

    qualname: str
    module: str
    name: str
    bases: tuple[str, ...]
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module plus everything the rules ask of it."""

    name: str
    path: str
    source: str
    tree: ast.Module
    mtime_ns: int
    size: int
    #: local alias -> dotted path (import table, absolute + relative).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> ClassInfo.
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level constant str assignments (topic constants etc.).
    str_constants: dict[str, str] = field(default_factory=dict)
    #: physical line -> pragma entries (reprolint allow[] syntax).
    pragma_lines: dict[int, set[str]] = field(default_factory=dict)

    def statement_end_lines(self, line: int) -> set[int]:
        """End lines of simple statements spanning ``line`` (multi-line
        statements accept their pragma on the closing line)."""
        ends: set[int] = set()
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt) or hasattr(node, "body"):
                continue
            end = getattr(node, "end_lineno", None)
            if end is not None and node.lineno <= line <= end:
                ends.add(end)
        return ends

    def pragmas_for_line(self, line: int) -> set[str]:
        """Pragma entries effective at ``line`` (incl. closing lines)."""
        entries: set[str] = set()
        for lineno in {line} | self.statement_end_lines(line):
            entries |= self.pragma_lines.get(lineno, set())
        return entries


def _module_name_for(path: Path) -> str:
    """Dotted module name from the package layout on disk.

    Walks up while the parent directory is a package (has
    ``__init__.py``); a file outside any package is its own stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


class _ModuleIndexer(ast.NodeVisitor):
    """One pass over a module: imports, defs, classes, call sites."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        #: stack of (qualname, local-def name -> qualname) scopes.
        self._scopes: list[tuple[str, dict[str, str]]] = []
        self._class_stack: list[ClassInfo] = []
        self.functions: dict[str, FunctionInfo] = {}

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.info.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.info.imports[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_import_base(node)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.info.imports[bound] = (
                f"{base}.{alias.name}" if base else alias.name
            )

    def _resolve_import_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # Relative import: strip ``level`` trailing components from this
        # module's package path.  ``from . import x`` in pkg/__init__.py
        # resolves against pkg itself.
        parts = self.info.name.split(".")
        if Path(self.info.path).name != "__init__.py":
            parts = parts[:-1]
        cut = node.level - 1
        if cut:
            if cut >= len(parts):
                return None
            parts = parts[:-cut]
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    # -- module-level bindings -----------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._scopes and not self._class_stack:
            for target in node.targets:
                self._record_module_binding(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._scopes and not self._class_stack:
            self._record_module_binding(node.target, node.value)
        self.generic_visit(node)

    def _record_module_binding(
        self, target: ast.expr, value: ast.expr | None
    ) -> None:
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            self.info.str_constants[target.id] = value.value

    # -- function / class defs -----------------------------------------

    def _qualname(self, name: str) -> str:
        if self._scopes:
            return f"{self._scopes[-1][0]}.{name}"
        if self._class_stack:
            return f"{self._class_stack[-1].qualname}.{name}"
        return f"{self.info.name}.{name}"

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        qualname = self._qualname(node.name)
        in_class = (
            self._class_stack[-1]
            if self._class_stack and not self._scopes
            else None
        )
        info = FunctionInfo(
            qualname=qualname,
            module=self.info.name,
            name=node.name,
            path=self.info.path,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=in_class.name if in_class else None,
        )
        self.functions[qualname] = info
        if in_class is not None:
            in_class.methods[node.name] = qualname
        elif not self._scopes:
            self.info.functions[node.name] = qualname
        else:
            # Nested def: register in the enclosing scope's local table.
            self._scopes[-1][1][node.name] = qualname
        self._scopes.append((qualname, {}))
        for child in node.body:
            self.visit(child)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._scopes:
            # Classes defined inside functions are out of model scope.
            for child in node.body:
                self.visit(child)
            return
        bases = tuple(
            b for b in (self._base_name(base) for base in node.bases) if b
        )
        cls = ClassInfo(
            qualname=f"{self.info.name}.{node.name}",
            module=self.info.name,
            name=node.name,
            bases=bases,
        )
        self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    @staticmethod
    def _base_name(node: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def _current_function(self) -> FunctionInfo | None:
        if not self._scopes:
            return None
        return self.functions[self._scopes[-1][0]]

    # -- call sites ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._current_function()
        if fn is not None:
            fn.calls.append(self._describe_call(node))
        self.generic_visit(node)

    def _describe_call(self, node: ast.Call) -> CallSite:
        """Record what is statically knowable about one call site; the
        ProjectModel resolves it against the full project later."""
        func = node.func
        line, col = node.lineno, node.col_offset
        if isinstance(func, ast.Name):
            local = self._lookup_local(func.id)
            if local is not None:
                return CallSite(line, col, (local,), None, None)
            return CallSite(line, col, (), func.id, None)
        if isinstance(func, ast.Attribute):
            parts: list[str] = []
            base: ast.expr = func
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                if base.id == "self" and len(parts) == 1:
                    # self.method(): resolved via the class MRO later.
                    cls = self._enclosing_class()
                    marker = (
                        f"{cls.qualname}::{func.attr}" if cls else func.attr
                    )
                    return CallSite(
                        line, col, (), f"self::{marker}", func.attr
                    )
                parts.append(base.id)
                dotted = ".".join(reversed(parts))
                return CallSite(line, col, (), dotted, func.attr)
            return CallSite(line, col, (), None, func.attr)
        return CallSite(line, col, (), None, None)

    def _enclosing_class(self) -> ClassInfo | None:
        # The innermost scope stack tells us whether this def chain is
        # rooted in a class body.
        if not self._scopes:
            return None
        root_qual = self._scopes[0][0]
        for cls in self.info.classes.values():
            if root_qual.startswith(cls.qualname + "."):
                return cls
        return None

    def _lookup_local(self, name: str) -> str | None:
        for _, locals_ in reversed(self._scopes):
            if name in locals_:
                return locals_[name]
        return None


class ProjectModel:
    """Parse-once project index with a queryable call graph.

    >>> model = ProjectModel(["src/repro"])
    >>> model.load()
    >>> fn = model.functions["repro.middleware.broker.Broker.solve_round"]

    ``load()`` is incremental: modules whose (mtime_ns, size) are
    unchanged since the previous load are reused from cache, so calling
    it again after editing one file re-parses only that file (the
    cross-module indices are always rebuilt — they are cheap).
    """

    def __init__(self, paths: Iterable[str | Path]) -> None:
        self.paths = [Path(p) for p in paths]
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._cache: dict[str, tuple[int, int, ModuleInfo, dict[str, FunctionInfo]]] = {}
        self.files_parsed = 0
        self.files_cached = 0
        self.parse_errors: list[tuple[str, str]] = []

    # -- loading -------------------------------------------------------

    def load(self) -> "ProjectModel":
        """(Re)build the model, reusing cached parses where valid."""
        self.modules = {}
        self.functions = {}
        self.parse_errors = []
        self.files_parsed = 0
        self.files_cached = 0
        for path in iter_python_files(self.paths):
            self._load_file(path)
        return self

    def _load_file(self, path: Path) -> None:
        key = str(path)
        try:
            stat = path.stat()
            mtime_ns, size = stat.st_mtime_ns, stat.st_size
            cached = self._cache.get(key)
            if cached is not None and cached[0] == mtime_ns and cached[1] == size:
                info, functions = cached[2], cached[3]
                self.files_cached += 1
            else:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=key)
                info = ModuleInfo(
                    name=_module_name_for(path),
                    path=key,
                    source=source,
                    tree=tree,
                    mtime_ns=mtime_ns,
                    size=size,
                    pragma_lines=_pragma_lines(source),
                )
                indexer = _ModuleIndexer(info)
                indexer.visit(tree)
                functions = indexer.functions
                self._cache[key] = (mtime_ns, size, info, functions)
                self.files_parsed += 1
        except (OSError, SyntaxError) as exc:
            self.parse_errors.append((key, str(exc)))
            self._cache.pop(key, None)
            return
        self.modules[info.name] = info
        self.functions.update(functions)

    # -- symbol resolution ---------------------------------------------

    def resolve_export(self, dotted: str, _depth: int = 0) -> str:
        """Follow ``__init__`` re-export chains to the defining module.

        ``repro.network.TOPIC_ALERTS`` -> ``repro.network.topics
        .TOPIC_ALERTS`` (the ``from .topics import TOPIC_ALERTS`` in the
        package ``__init__``).  Unresolvable names come back unchanged.
        """
        if _depth > 16:
            return dotted
        module, _, attr = dotted.rpartition(".")
        if not module or not attr:
            return dotted
        info = self.modules.get(module)
        if info is None:
            return dotted
        target = info.imports.get(attr)
        if target is None:
            return dotted
        return self.resolve_export(target, _depth + 1)

    def _project_function(self, dotted: str) -> str | None:
        """Qualname when ``dotted`` names a project function/method or a
        project class (-> its ``__init__``)."""
        dotted = self.resolve_export(dotted)
        if dotted in self.functions:
            return dotted
        module, _, name = dotted.rpartition(".")
        info = self.modules.get(module)
        if info is not None:
            if name in info.functions:
                return info.functions[name]
            if name in info.classes:
                init = self._lookup_method(info.classes[name], "__init__")
                if init is not None:
                    return init
        # Class attribute path: module.Class.method
        mod2, _, cls_name = module.rpartition(".")
        info2 = self.modules.get(mod2)
        if info2 is not None and cls_name in info2.classes:
            return self._lookup_method(info2.classes[cls_name], name)
        return None

    def _lookup_method(self, cls: ClassInfo, name: str) -> str | None:
        """Method lookup through project-resolvable base classes."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                resolved = self._resolve_class(base, current.module)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _resolve_class(self, name: str, module: str) -> ClassInfo | None:
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.classes:
            return info.classes[name]
        dotted = self._expand_alias(name, info)
        if dotted is None:
            return None
        dotted = self.resolve_export(dotted)
        mod, _, cls_name = dotted.rpartition(".")
        target = self.modules.get(mod)
        if target is not None and cls_name in target.classes:
            return target.classes[cls_name]
        return None

    @staticmethod
    def _expand_alias(name: str, info: ModuleInfo) -> str | None:
        head, _, rest = name.partition(".")
        target = info.imports.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    # -- call graph -----------------------------------------------------

    def resolve_call(
        self, site: CallSite, module: ModuleInfo
    ) -> tuple[tuple[str, ...], str | None]:
        """Resolve one call site to (project targets, external dotted).

        Returns the qualified names of candidate project callees plus
        the fully import-resolved external path when the call leaves
        the project (``time.sleep``; bare builtins stay bare).
        """
        if site.targets:
            return site.targets, None
        dotted = site.dotted
        if dotted is not None and dotted.startswith("self::"):
            marker = dotted[len("self::") :]
            cls_qual, _, method = marker.partition("::")
            if method:
                mod, _, cls_name = cls_qual.rpartition(".")
                info = self.modules.get(mod)
                if info is not None and cls_name in info.classes:
                    resolved = self._lookup_method(
                        info.classes[cls_name], method
                    )
                    if resolved is not None:
                        return (resolved,), None
                return self._fallback(method), None
            return self._fallback(cls_qual), None
        if dotted is not None:
            expanded = self._expand_alias(dotted, module)
            if expanded is not None:
                project = self._project_function(expanded)
                if project is not None:
                    return (project,), expanded
                return (), expanded
            # Unaliased bare name: a module-level def in this module,
            # a class in this module, or a builtin.
            if "." not in dotted:
                if dotted in module.functions:
                    return (module.functions[dotted],), None
                if dotted in module.classes:
                    init = self._lookup_method(
                        module.classes[dotted], "__init__"
                    )
                    return (init,) if init else (), None
                return (), dotted
            # Attribute chain on a non-import root (local object).
            if site.attr_name:
                return self._fallback(site.attr_name), None
            return (), None
        if site.attr_name:
            return self._fallback(site.attr_name), None
        return (), None

    def _fallback(self, method_name: str) -> tuple[str, ...]:
        """Name-based candidate set for a method call on an unknown
        receiver; empty for common/dunder names (precision over
        soundness — see the module docstring)."""
        if method_name in _COMMON_METHOD_NAMES:
            return ()
        if method_name.startswith("__") and method_name.endswith("__"):
            return ()
        candidates = tuple(
            sorted(
                fn.qualname
                for fn in self.functions.values()
                if fn.name == method_name and fn.class_name is not None
            )
        )
        if not candidates or len(candidates) > _FALLBACK_CANDIDATE_CAP:
            return ()
        return candidates

    def callees(self, qualname: str) -> Iterator[tuple[CallSite, tuple[str, ...], str | None]]:
        """Resolved call sites of one function (its own body only)."""
        fn = self.functions.get(qualname)
        if fn is None:
            return
        module = self.modules.get(fn.module)
        if module is None:
            return
        for site in fn.calls:
            targets, dotted = self.resolve_call(site, module)
            yield site, targets, dotted

    def lexical_members(self, qualname: str) -> list[FunctionInfo]:
        """The function plus every def nested lexically inside it."""
        prefix = qualname + "."
        members = [
            fn
            for name, fn in self.functions.items()
            if name == qualname or name.startswith(prefix)
        ]
        members.sort(key=lambda fn: fn.line)
        return members

    # -- debugging dump -------------------------------------------------

    def graph_json(self) -> str:
        """The call graph as stable, pretty-printed JSON (``--graph``)."""
        functions: dict[str, object] = {}
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            calls = []
            for site, targets, dotted in self.callees(qualname):
                entry: dict[str, object] = {"line": site.line}
                if targets:
                    entry["targets"] = list(targets)
                if dotted is not None:
                    entry["external"] = dotted
                calls.append(entry)
            functions[qualname] = {
                "path": fn.path,
                "line": fn.line,
                "async": fn.is_async,
                "calls": calls,
            }
        payload = {
            "modules": sorted(self.modules),
            "functions": functions,
            "files_parsed": self.files_parsed,
            "files_cached": self.files_cached,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
