"""Whole-program reprolint rules: RPR010, RPR012, RPR013.

These rules query the :class:`repro.analysis.project.ProjectModel`
call graph and def-site index, so one finding can rest on facts from
several files:

RPR010 async-blocking
    A blocking operation (``time.sleep``, synchronous ``socket``/
    ``subprocess`` ops, builtin ``open``, or one of the project's heavy
    solver entry points) reachable *transitively* from an ``async def``
    in the realtime modules (``repro/gateway/``,
    ``asyncio_transport.py``, ``wallclock.py``).  One blocked frame
    there stalls every session sharing the event loop.  The finding
    anchors at the call site inside the coroutine, naming the chain to
    the sink; a pragma on the sink line sanctions it for every caller
    (the offload-site idiom).
RPR011 (retired)
    Walked the call graph from the solve-phase roots to any ``self.*``
    or module-state write.  The broker solve is now a function of a
    frozen record with no pool to race on, and the mega kernel's
    serial==sharded claim is observed by its own tests (Hypothesis pin,
    process isolation, the segment checksum), so nothing is left for a
    lint to protect.  The id stays reserved.
RPR012 seed-lineage
    (a) the same integer-literal seed feeding two distinct RNG stream
    constructions anywhere in the project — aliased streams silently
    correlate experiments; (b) an RNG/Generator object handed across an
    executor boundary (``submit``/``map``/``run_in_executor``/pool
    construction), directly or via a closure that captures it — a
    Generator shipped to a worker forks its stream and breaks replay
    (complements RPR009's pickle-level check).
RPR013 pubsub-flow
    Cross-file matching of :mod:`repro.network.topics` constants: every
    topic that is published must have a subscribe site somewhere in the
    project and vice versa — the end-to-end contract RPR004's local
    constant discipline exists to enable.  Topics used on neither side
    are not flagged (reserving a constant is fine); a one-sided topic
    is a typo'd constant or dead traffic.

All three honour the standard ``# reprolint: allow[rule]`` pragma at
the finding's line; RPR010 additionally honours a pragma at the *fact
site* (the blocking call), which sanctions that fact for every path
reaching it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from .project import ModuleInfo, ProjectModel
from .reprolint import (
    RULES,
    Finding,
    _is_realtime_module,
    _normalise_select,
    iter_python_files,
    lint_file,
)

__all__ = [
    "WHOLE_PROGRAM_RULES",
    "analyze_project",
    "analyze_paths",
]

#: The rule ids implemented here (per-file rules live in reprolint).
WHOLE_PROGRAM_RULES = frozenset({"RPR010", "RPR012", "RPR013"})

# -- RPR010 facts -------------------------------------------------------

#: Import-resolved external calls that block the calling thread.
_BLOCKING_EXTERNAL = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
        "select.select",
        # Bare builtins (no import alias to resolve through).
        "open",
        "input",
    }
)

#: Project solver entry points: heavy numeric work that must never run
#: on the event loop (offload via run_in_executor / to_thread).
_BLOCKING_PROJECT = frozenset(
    {
        "repro.core.reconstruction.reconstruct",
        "repro.core.robust.robust_reconstruct",
        "repro.core.spatiotemporal.reconstruct_spacetime",
        "repro.middleware.broker.Broker.solve_round",
        "repro.middleware.broker.Broker.run_round",
        "repro.sim.mega.MegaSimulation.run_round",
        "repro.sim.mega._solve_zone",
    }
)

#: How many chain hops to render in a finding message before eliding.
_CHAIN_RENDER_CAP = 5

# -- RPR012 facts -------------------------------------------------------

#: Call targets that construct a seeded RNG stream.
_STREAM_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "random.Random",
    }
)

#: Keyword names a seed travels under when not positional.
_SEED_KEYWORDS = ("seed", "entropy", "x")

#: Attribute-call names that hand work (and its arguments) across an
#: executor/worker boundary, plus constructors whose args do the same.
_EXECUTOR_SUBMIT_NAMES = frozenset(
    {
        "submit",
        "map",
        "starmap",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "run_in_executor",
    }
)
_EXECUTOR_CONSTRUCTORS = frozenset(
    {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "Process"}
)

# -- RPR013 facts -------------------------------------------------------

_TOPICS_MODULE = "repro.network.topics"
#: bus method -> positional index of the topic argument
#: (``publish(topic, msg)`` / ``subscribe(address, topic)``).
_TOPIC_ARG_INDEX = {"publish": 0, "subscribe": 1}


def _suppressed_at(module: ModuleInfo, line: int, rule: str) -> bool:
    """Whether an ``allow[...]`` pragma covers ``rule`` at ``line``."""
    entries = module.pragmas_for_line(line)
    return "*" in entries or rule in entries or RULES[rule][0] in entries


def _emit(
    findings: list[Finding],
    select: frozenset[str] | None,
    rule: str,
    module: ModuleInfo,
    line: int,
    col: int,
    message: str,
) -> None:
    if select is not None and rule not in select:
        return
    findings.append(
        Finding(
            rule=rule,
            name=RULES[rule][0],
            path=module.path,
            line=line,
            col=col,
            message=message,
            suppressed=_suppressed_at(module, line, rule),
        )
    )


def _render_chain(chain: list[str], sink: str) -> str:
    hops = chain[:_CHAIN_RENDER_CAP]
    elided = len(chain) > _CHAIN_RENDER_CAP
    short = [hop.rpartition(".")[2] or hop for hop in hops]
    if elided:
        return " -> ".join(short) + " -> ... -> " + sink
    return " -> ".join(short + [sink])


# ======================================================================
# Transitive reachability (RPR010)
# ======================================================================


class _ReachabilityFacts:
    """Fixpoint ``fact(f)`` = f directly triggers, or any resolved
    project callee does; each fact carries a witness chain."""

    def __init__(self, model: ProjectModel, direct: dict[str, str]) -> None:
        #: qualname -> (sink description, chain of qualnames to sink).
        self.facts: dict[str, tuple[str, list[str]]] = {
            qual: (sink, []) for qual, sink in direct.items()
        }
        self._propagate(model)

    def _propagate(self, model: ProjectModel) -> None:
        callers: dict[str, set[str]] = {}
        for qualname in model.functions:
            for _site, resolved, _dotted in model.callees(qualname):
                for target in resolved:
                    callers.setdefault(target, set()).add(qualname)
        work = list(self.facts)
        while work:
            current = work.pop()
            sink, chain = self.facts[current]
            for caller in callers.get(current, ()):
                if caller in self.facts:
                    continue
                self.facts[caller] = (sink, [current] + chain)
                work.append(caller)

    def witness(self, qualname: str) -> tuple[str, list[str]] | None:
        return self.facts.get(qualname)


# ======================================================================
# RPR010 — async-blocking
# ======================================================================


def _blocking_sink_at(
    targets: tuple[str, ...], dotted: str | None
) -> str | None:
    """The sink description when this resolved call blocks directly."""
    if dotted in _BLOCKING_EXTERNAL:
        return dotted
    for target in targets:
        if target in _BLOCKING_PROJECT:
            return target.rpartition(".")[2] + "()"
    return None


def _blocking_direct_facts(model: ProjectModel, rule: str) -> dict[str, str]:
    """Functions containing an (unpragma'd) directly blocking call."""
    direct: dict[str, str] = {}
    for qualname, fn in model.functions.items():
        module = model.modules.get(fn.module)
        if module is None:
            continue
        if _suppressed_at(module, fn.line, rule):
            # Def-line pragma: the whole function is a sanctioned
            # blocking boundary (e.g. a worker-thread entry point).
            continue
        for site, targets, dotted in model.callees(qualname):
            sink = _blocking_sink_at(targets, dotted)
            if sink is None:
                continue
            if _suppressed_at(module, site.line, rule):
                continue  # sanctioned offload site: cut propagation
            direct.setdefault(qualname, sink)
    return direct


def _check_async_blocking(
    model: ProjectModel,
    findings: list[Finding],
    select: frozenset[str] | None,
) -> None:
    rule = "RPR010"
    facts = _ReachabilityFacts(model, _blocking_direct_facts(model, rule))
    for qualname, fn in model.functions.items():
        if not fn.is_async or not _is_realtime_module(fn.path):
            continue
        module = model.modules.get(fn.module)
        if module is None:
            continue
        # Anchor at call sites lexically inside the coroutine (nested
        # sync helpers included): the line a developer can pragma/fix.
        reported: set[int] = set()
        for member in model.lexical_members(qualname):
            if member.qualname != qualname and member.is_async:
                # A nested async def is its own coroutine root.
                continue
            for site, targets, dotted in model.callees(member.qualname):
                sink = _blocking_sink_at(targets, dotted)
                chain: list[str] = []
                if sink is None:
                    for target in targets:
                        witness = facts.witness(target)
                        if witness is not None:
                            sink = witness[0]
                            chain = [target] + witness[1]
                            break
                if sink is None or site.line in reported:
                    continue
                reported.add(site.line)
                via = f" via {_render_chain(chain, sink)}" if chain else ""
                _emit(
                    findings,
                    select,
                    rule,
                    module,
                    site.line,
                    site.col,
                    f"blocking call ({sink}) reachable from coroutine "
                    f"{fn.name}(){via}; it stalls every session on the "
                    "event loop — offload via run_in_executor/to_thread "
                    "and pragma the sanctioned offload site",
                )


# ======================================================================
# RPR012 — seed-lineage
# ======================================================================


def _stream_constructor_name(module: ModuleInfo, call: ast.Call) -> str | None:
    """Dotted constructor name when ``call`` builds an RNG stream."""
    func = call.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(func.id)
    raw = ".".join(reversed(parts))
    expanded = ProjectModel._expand_alias(raw, module) or raw
    return expanded if expanded in _STREAM_CONSTRUCTORS else None


def _literal_seed(node: ast.expr) -> object | None:
    """The hashable value of a seed expression fully determined by the
    source text (ints and int tuples/lists), else None — a ``seed``
    variable can differ per call, a literal cannot."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)  # bool is an int subclass; fine either way
    if isinstance(node, (ast.Tuple, ast.List)):
        elements = []
        for elt in node.elts:
            value = _literal_seed(elt)
            if value is None:
                return None
            elements.append(value)
        return tuple(elements)
    return None


def _seed_expr_of(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in _SEED_KEYWORDS:
            return keyword.value
    return None


def _scan_module_seeds(
    module: ModuleInfo,
    seed_sites: dict[object, list[tuple[ModuleInfo, int, int]]],
) -> None:
    """One walk per module: literal seeds feeding stream constructors
    (module level and inside functions alike)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if _stream_constructor_name(module, node) is None:
            continue
        seed_expr = _seed_expr_of(node)
        if seed_expr is None:
            continue
        value = _literal_seed(seed_expr)
        if value is None:
            continue
        seed_sites.setdefault(value, []).append(
            (module, node.lineno, node.col_offset)
        )


def _is_executor_submit(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in _EXECUTOR_SUBMIT_NAMES
    if isinstance(func, ast.Name):
        return func.id in _EXECUTOR_CONSTRUCTORS
    return False


def _reads_any(tree: ast.AST, names: set[str]) -> str | None:
    for inner in ast.walk(tree):
        if (
            isinstance(inner, ast.Name)
            and isinstance(inner.ctx, ast.Load)
            and inner.id in names
        ):
            return inner.id
    return None


def _tainted_argument(call: ast.Call, tainted: set[str]) -> str | None:
    """An argument that is (or contains / closes over) a tainted name."""

    def check(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name) and expr.id in tainted:
            return expr.id
        if isinstance(expr, ast.Starred):
            return check(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                hit = check(elt)
                if hit is not None:
                    return hit
        if isinstance(expr, ast.Lambda):
            # An inline lambda closing over the stream captures it.
            return _reads_any(expr.body, tainted)
        return None

    for arg in call.args:
        hit = check(arg)
        if hit is not None:
            return hit
    for keyword in call.keywords:
        hit = check(keyword.value)
        if hit is not None:
            return hit
    return None


def _scan_executor_crossings(
    module: ModuleInfo,
    func_node: ast.FunctionDef | ast.AsyncFunctionDef,
    findings: list[Finding],
    select: frozenset[str] | None,
    rule: str,
    emitted: set[tuple[int, int]],
) -> None:
    """RNG objects crossing an executor boundary from this function.

    ``emitted`` dedups sites seen through both an outer function's walk
    and the nested def's own visit.
    """
    rng_names: set[str] = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if isinstance(value, ast.Call) and _stream_constructor_name(
            module, value
        ):
            for target in targets:
                if isinstance(target, ast.Name):
                    rng_names.add(target.id)
    if not rng_names:
        return
    # A nested def that reads an RNG name captures the stream; passing
    # that function to an executor ships the stream with it.
    tainted = set(rng_names)
    for node in ast.walk(func_node):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func_node
            and _reads_any(node, rng_names)
        ):
            tainted.add(node.name)
    for node in ast.walk(func_node):
        if not isinstance(node, ast.Call) or not _is_executor_submit(node):
            continue
        crossing = _tainted_argument(node, tainted)
        if crossing is None:
            continue
        key = (node.lineno, node.col_offset)
        if key in emitted:
            continue
        emitted.add(key)
        _emit(
            findings,
            select,
            rule,
            module,
            node.lineno,
            node.col_offset,
            f"RNG stream {crossing!r} crosses an executor boundary "
            "here; a Generator shipped to a worker forks its stream "
            "and silently breaks replay — spawn per-shard seeds in the "
            "parent (repro.core.registry.spawn_shard_seeds) and build "
            "the Generator on the worker side",
        )


def _check_seed_lineage(
    model: ProjectModel,
    findings: list[Finding],
    select: frozenset[str] | None,
) -> None:
    rule = "RPR012"
    seed_sites: dict[object, list[tuple[ModuleInfo, int, int]]] = {}
    for name in sorted(model.modules):
        module = model.modules[name]
        _scan_module_seeds(module, seed_sites)
        emitted: set[tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _scan_executor_crossings(
                    module, node, findings, select, rule, emitted
                )
    for value in sorted(seed_sites, key=repr):
        sites = sorted(
            seed_sites[value], key=lambda s: (s[0].path, s[1], s[2])
        )
        if len(sites) < 2:
            continue
        first_module, first_line, _ = sites[0]
        first = f"{Path(first_module.path).name}:{first_line}"
        for module, line, col in sites[1:]:
            _emit(
                findings,
                select,
                rule,
                module,
                line,
                col,
                f"literal seed {value!r} already feeds the stream "
                f"constructed at {first}; two streams from one seed are "
                "the same stream — derive independent children via "
                "SeedSequence.spawn (repro.core.registry."
                "spawn_shard_seeds)",
            )


# ======================================================================
# RPR013 — pubsub-flow
# ======================================================================


def _topic_constants(model: ProjectModel) -> dict[str, str]:
    """qualname -> topic string for every constant in the topics module."""
    info = model.modules.get(_TOPICS_MODULE)
    if info is None:
        return {}
    return {
        f"{_TOPICS_MODULE}.{name}": value
        for name, value in info.str_constants.items()
        if name.startswith("TOPIC_")
    }


def _resolve_topic_expr(
    model: ProjectModel, module: ModuleInfo, expr: ast.expr | None
) -> str | None:
    """Resolve a Name/Attribute topic argument to a topics-module
    constant qualname (through import aliases and re-exports)."""
    if expr is None:
        return None
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    raw = ".".join(reversed(parts))
    expanded = ProjectModel._expand_alias(raw, module) or raw
    return model.resolve_export(expanded)


def _check_pubsub_flow(
    model: ProjectModel,
    findings: list[Finding],
    select: frozenset[str] | None,
) -> None:
    rule = "RPR013"
    constants = _topic_constants(model)
    if not constants:
        return
    publishes: dict[str, list[tuple[ModuleInfo, int, int]]] = {}
    subscribes: dict[str, list[tuple[ModuleInfo, int, int]]] = {}
    for name in sorted(model.modules):
        module = model.modules[name]
        if module.name == _TOPICS_MODULE:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            index = _TOPIC_ARG_INDEX.get(func.attr)
            if index is None:
                continue
            topic_expr: ast.expr | None = None
            if len(node.args) > index:
                topic_expr = node.args[index]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "topic":
                        topic_expr = keyword.value
            qual = _resolve_topic_expr(model, module, topic_expr)
            if qual is None or qual not in constants:
                continue
            book = publishes if func.attr == "publish" else subscribes
            book.setdefault(qual, []).append(
                (module, node.lineno, node.col_offset)
            )
    for qual in sorted(constants):
        short = qual.rpartition(".")[2]
        pubs = sorted(
            publishes.get(qual, ()), key=lambda s: (s[0].path, s[1], s[2])
        )
        subs = sorted(
            subscribes.get(qual, ()), key=lambda s: (s[0].path, s[1], s[2])
        )
        if pubs and not subs:
            module, line, col = pubs[0]
            _emit(
                findings,
                select,
                rule,
                module,
                line,
                col,
                f"topic {short} is published here but nothing in the "
                "project ever subscribes to it; a contract with no "
                "second party is a typo'd constant or dead traffic — "
                "add the subscriber, or pragma a documented external "
                "contract",
            )
        elif subs and not pubs:
            module, line, col = subs[0]
            _emit(
                findings,
                select,
                rule,
                module,
                line,
                col,
                f"topic {short} is subscribed to here but nothing in "
                "the project ever publishes it; the handler can never "
                "fire — add the publisher, or pragma a documented "
                "external contract",
            )


# ======================================================================
# Entry points
# ======================================================================


def analyze_project(
    model: ProjectModel,
    *,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the whole-program rules over a loaded project model."""
    selected = _normalise_select(select)
    if selected is not None and not (selected & WHOLE_PROGRAM_RULES):
        return []
    findings: list[Finding] = []
    _check_async_blocking(model, findings, selected)
    _check_seed_lineage(model, findings, selected)
    _check_pubsub_flow(model, findings, selected)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_paths(
    paths: Iterable[str | Path],
    *,
    select: Iterable[str] | None = None,
    model: ProjectModel | None = None,
) -> tuple[list[Finding], int, ProjectModel]:
    """Per-file lint + whole-program analysis over files/directories.

    Returns (findings sorted by position, files scanned, the loaded
    project model — pass it back in to reuse its parse cache; parse
    failures surface as RPR000 through the per-file pass).
    """
    selected = _normalise_select(select)
    per_file_select = (
        None if selected is None else frozenset(selected - WHOLE_PROGRAM_RULES)
    )
    run_per_file = per_file_select is None or bool(per_file_select)
    findings: list[Finding] = []
    scanned = 0
    for path in iter_python_files(paths):
        scanned += 1
        if run_per_file:
            findings.extend(lint_file(path, select=per_file_select))
    if model is None:
        model = ProjectModel(paths)
    model.load()
    findings.extend(analyze_project(model, select=selected))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, scanned, model
