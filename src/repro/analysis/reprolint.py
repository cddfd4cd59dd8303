"""reprolint — invariant-enforcing static analysis for this reproduction.

Every quantitative claim the repo makes (the CHS recovery curves, the
matrix-free speedups, the ROB-BYZ trim results) rests on invariants the
interpreter does not enforce.  This module machine-checks them with a
small, project-specific AST linter.

Rules
-----
:data:`RULES` holds each live rule's name and one-line summary
(``python -m repro.analysis --list-rules``); ``docs/invariants.md`` has
the reasoning and a planted violation per rule.  The scopes that are not
obvious from a summary:

- RPR002 skips, and RPR010 only looks at, the *realtime modules*
  (``repro/sim/wallclock.py``, ``repro/network/asyncio_transport.py``,
  ``repro/gateway/``), where the wall clock *is* the simulation clock.
- RPR005 exempts comparison with a literal zero (``x == 0.0``,
  ``-0.0``): zero is exactly representable, so such a test is a
  divide-by-zero guard, not a tolerance question.
- RPR009 scopes to worker-entry functions: any whose name contains
  ``worker``, with their nested helpers.
- RPR010 flags, inside a realtime ``async def``, an import-resolved
  blocking sink (``time.sleep``, synchronous ``socket``/``subprocess``
  ops, builtin ``open``, ...), a non-awaited call to a solver entry
  point (by final name: ``reconstruct``, ``run_round``, ...), or a call
  to a same-module function or same-class ``self.`` method that reaches
  either.  Reach stops at the module boundary.  A pragma on the sink
  line, or on a helper's ``def`` line, cuts the chain.
- RPR013 matches a topic by constant name after import-alias expansion,
  so package re-exports count; it runs only when
  ``repro/network/topics.py`` itself is linted, and a topic used on
  neither side is merely reserved.

RPR003, RPR007 and RPR011 are retired (:data:`RETIRED_RULES`); their
ids stay reserved and are never reused.

One pass
--------
Every file is parsed once and yields its findings plus *facts*:
literal-seed sites and topic publish/subscribe sites.  One fold over the
facts of every linted file produces the RPR012 duplicate-seed and RPR013
findings (:func:`lint_source` folds over its one file).

Suppression
-----------
A finding is suppressed by a pragma on the same physical line (or the
closing line of a multi-line statement)::

    started = time.perf_counter()  # reprolint: allow[wall-clock]

The bracket takes a comma-separated list of rule ids (``RPR002``) or
names (``wall-clock``), or ``*`` for all rules.  Suppressed findings are
still reported (as suppressed) but never fail the run.

Run as ``python -m repro.analysis [paths] [--format text|json]``; the
process exits non-zero when unsuppressed findings remain.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, TypeAlias

__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

#: rule id -> (short name, one-line summary)
RULES: dict[str, tuple[str, str]] = {
    "RPR001": (
        "global-rng",
        "global-state RNG call (np.random.<fn> / random.<fn>); use a "
        "seeded np.random.default_rng / random.Random instance",
    ),
    "RPR002": (
        "wall-clock",
        "wall-clock read in simulation code; use the SimClock (pragma "
        "the legitimate perf-timing sites)",
    ),
    "RPR004": (
        "raw-topic",
        "raw string-literal topic at a publish/subscribe call site; use "
        "the shared constants from repro.network.topics",
    ),
    "RPR005": (
        "float-eq",
        "exact float ==/!= comparison; use a tolerance, or pragma an "
        "intentional bit-identity pin",
    ),
    "RPR006": (
        "mutable-default",
        "mutable default argument or unseeded np.random.default_rng() "
        "in library code",
    ),
    "RPR008": (
        "raw-inbox",
        "direct Endpoint.inbox mutation outside repro.network.bus; "
        "deliver/re-enqueue through the bounded-queue API "
        "(MessageBus.requeue) so capacity bounds cannot be bypassed",
    ),
    "RPR009": (
        "worker-rng",
        "RNG constructed inside a worker-entry function; derive "
        "per-shard streams via repro.core.registry.spawn_shard_seeds / "
        "shard_rng in the parent and pass them in",
    ),
    "RPR010": (
        "async-blocking",
        "blocking call reachable (within its module) from a realtime-"
        "module coroutine; one blocked frame stalls every session on "
        "the event loop — offload via run_in_executor/to_thread",
    ),
    "RPR012": (
        "seed-lineage",
        "duplicate literal seed feeding two RNG streams, or an RNG "
        "object crossing an executor boundary; derive independent "
        "child streams via SeedSequence.spawn",
    ),
    "RPR013": (
        "pubsub-flow",
        "topic constant published with no subscriber anywhere in the "
        "linted files (or subscribed with no publisher); the pub/sub "
        "contract needs both ends",
    ),
}

#: Retired rule id -> the name it had.  Ids are reserved forever: a
#: retired id is never selectable and never reused for another check.
RETIRED_RULES: dict[str, str] = {
    # RPR003/RPR011 kept the solve phase pure while a thread pool
    # dispatched Broker.solve_round; the pool is gone and the solve is
    # a function of a frozen record, so neither has anything to find.
    "RPR003": "solve-purity",
    # Gated the TrafficStats.latency_s alias, removed in PR 8.
    "RPR007": "deprecated-latency-s",
    "RPR011": "transitive-impurity",
}

#: Parse failures are reported under a pseudo-rule that cannot be
#: pragma-suppressed.
PARSE_ERROR_RULE = "RPR000"

_NAME_TO_RULE = {name: rule for rule, (name, _) in RULES.items()}

_PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([^\]]*)\]")

# Sanctioned constructors on the two RNG modules: these *create* seeded
# generator state rather than consuming the hidden global stream.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)
_PY_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})
#: RNG module -> (sanctioned constructors, short name, whose stream,
#: the seeded replacement), for the RPR001/RPR009 messages.
_RNG_MODULES = {
    "numpy.random": (
        _NP_RANDOM_ALLOWED, "np.random", "NumPy's",
        "np.random.default_rng generator",
    ),
    "random": (
        _PY_RANDOM_ALLOWED, "random", "the stdlib's", "random.Random instance"
    ),
}

# RPR002/RPR010: the sanctioned realtime modules — the socket-facing
# layer, where the wall clock IS the simulation clock by design (a
# WallClock is defined in terms of the event loop's time, and the
# gateway serves live devices).  Everything else must read whichever
# clock it was handed.  Kept deliberately short; additions belong in
# docs/invariants.md too.
_REALTIME_ALLOWED_SUFFIXES = (
    "repro/sim/wallclock.py",
    "repro/network/asyncio_transport.py",
)
_REALTIME_ALLOWED_DIRS = ("repro/gateway/",)


def _is_realtime_module(path: str) -> bool:
    """True when ``path`` is on the realtime-module allowlist."""
    posix = Path(path).as_posix()
    if posix.endswith(_REALTIME_ALLOWED_SUFFIXES):
        return True
    return any(
        directory in posix for directory in _REALTIME_ALLOWED_DIRS
    )


_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

# publish(topic, message) / subscribe(address, topic) /
# unsubscribe(address, topic): positional index of the topic argument.
_TOPIC_ARG_INDEX = {"publish": 0, "subscribe": 1, "unsubscribe": 1}

_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "bytearray"})
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
)

# RPR008: the transport module owns the inbox deques; everywhere else
# must use the bounded-queue API (register/requeue/push).
_INBOX_EXEMPT_FILES = frozenset({"bus.py"})
_INBOX_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "remove",
        "clear",
        "rotate",
    }
)

# RPR010: import-resolved calls that block the calling thread (bare
# builtins have no import alias to resolve through) ...
_BLOCKING_EXTERNAL = frozenset(
    {
        "time.sleep", "os.system", "os.waitpid", "select.select",
        "socket.create_connection", "socket.getaddrinfo",
        "socket.gethostbyname", "subprocess.run", "subprocess.call",
        "subprocess.check_call", "subprocess.check_output",
        "subprocess.Popen", "urllib.request.urlopen", "open", "input",
    }
)
# ... and, matched by final name on a non-awaited call, the solver
# entry points: reconstruction.reconstruct, robust.robust_reconstruct,
# spatiotemporal.reconstruct_spacetime, Broker.solve_round/run_round,
# MegaSimulation.run_round and mega._solve_zone.
_BLOCKING_ENTRY_POINTS = frozenset(
    "reconstruct robust_reconstruct reconstruct_spacetime solve_round "
    "run_round _solve_zone".split()
)
#: How many chain hops an RPR010 message renders before eliding.
_CHAIN_RENDER_CAP = 5

# RPR012: calls that construct a seeded RNG stream, and the keywords a
# seed travels under when not positional.
_STREAM_CONSTRUCTORS = frozenset(
    [f"numpy.random.{name}" for name in _NP_RANDOM_ALLOWED - {"BitGenerator"}]
    + ["random.Random"]
)
_SEED_KEYWORDS = ("seed", "entropy", "x")

# RPR012: attribute calls that hand work (and its arguments) across an
# executor/worker boundary, and constructors whose args do the same.
_EXECUTOR_SUBMIT_NAMES = frozenset(
    "submit map starmap apply apply_async imap imap_unordered "
    "run_in_executor".split()
)
_EXECUTOR_CONSTRUCTORS = frozenset(
    {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "Process"}
)

# RPR013: the module whose TOPIC_* constants are the pub/sub contract.
_TOPICS_MODULE_SUFFIX = "repro/network/topics.py"


@dataclass(frozen=True)
class Finding:
    """One linter hit, pointing at a physical source location."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def as_dict(self) -> dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{self.name}] {self.message}{tag}"
        )


def _pragmas(source: str, tree: ast.Module) -> dict[int, set[str]]:
    """Map line -> the ``allow[...]`` entries in force there: the line's
    own pragma plus that of the closing line of any multi-line *simple*
    statement covering it.  Compound statements (def/if/for/...) are
    excluded so a pragma on a block's last line never blankets the
    whole block."""
    if "reprolint:" not in source:
        return {}
    try:
        comments = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:  # crude per-line fallback
        comments = list(enumerate(source.splitlines(), start=1))
    own: dict[int, set[str]] = {}
    for lineno, text in comments:
        match = _PRAGMA_RE.search(text)
        if match is not None:
            own.setdefault(lineno, set()).update(
                entry.strip() for entry in match.group(1).split(",")
            )
    effective = {line: set(entries) for line, entries in own.items()}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or hasattr(node, "body"):
            continue
        end = node.end_lineno
        if end is not None and end in own:
            for line in range(node.lineno, end):
                effective.setdefault(line, set()).update(own[end])
    return effective


#: What one file tells the cross-file fold: (kind, key, site) — a
#: literal seed feeding a stream ("seed"), a topic constant at a
#: "publish"/"subscribe" site, or a topic the topics module defines
#: ("topic", no site).
_Fact: TypeAlias = "tuple[str, object, Finding | None]"


@dataclass(eq=False)
class _Def:
    """One function of a realtime module, for RPR010's in-module reach:
    its enclosing def, its class's methods (for ``self.`` calls), its
    nested defs, the calls in its own body and, once known to block,
    (sink, chain of function names to it)."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    parent: _Def | None
    methods: dict[str, _Def] | None
    nested: list[_Def] = field(default_factory=list)
    calls: list[ast.Call] = field(default_factory=list)
    reach: tuple[str, list[str]] | None = None

    def members(self) -> Iterator[_Def]:
        """This function and its nested *sync* defs (a nested coroutine
        is a root of its own)."""
        yield self
        for inner in self.nested:
            if not isinstance(inner.node, ast.AsyncFunctionDef):
                yield from inner.members()


_Table: TypeAlias = "dict[str, _Def] | None"


def _index_defs(tree: ast.Module) -> tuple[list[_Def], dict[str, _Def]]:
    """Every function of a module, plus the module-level ones by name."""
    defs: list[_Def] = []
    module_functions: dict[str, _Def] = {}

    def walk(
        node: ast.AST, owner: _Def | None, methods: _Table, table: _Table
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = _Def(child, owner, methods)
                defs.append(fn)
                if table is not None:
                    table[child.name] = fn
                elif owner is not None:
                    owner.nested.append(fn)
                walk(child, fn, methods, None)
            elif isinstance(child, ast.ClassDef):
                cls: dict[str, _Def] = {}
                walk(child, owner, cls, cls)
            else:
                if isinstance(child, ast.Call) and owner is not None:
                    owner.calls.append(child)
                walk(child, owner, methods, table)

    walk(tree, None, None, module_functions)
    return defs, module_functions


def _local_callee(
    fn: _Def, call: ast.Call, module_functions: dict[str, _Def]
) -> _Def | None:
    """The same-module function a call reaches: a nested def in scope or
    a module-level function by bare name, or a same-class method through
    ``self.``."""
    func = call.func
    if isinstance(func, ast.Name):
        scope: _Def | None = fn
        while scope is not None:
            for inner in reversed(scope.nested):
                if inner.node.name == func.id:
                    return inner
            scope = scope.parent
        return module_functions.get(func.id)
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and fn.methods is not None
    ):
        return fn.methods.get(func.attr)
    return None


def _literal_seed(node: ast.expr) -> object | None:
    """The hashable value of a seed expression fully determined by the
    source text (ints and int tuples/lists), else None — a ``seed``
    variable can differ per call, a literal cannot."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)
    if isinstance(node, (ast.Tuple, ast.List)):
        elements = [_literal_seed(elt) for elt in node.elts]
        return None if None in elements else tuple(elements)
    return None


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
            return first(expr.elts)
        if isinstance(expr, ast.Lambda):
            # An inline lambda closing over the stream captures it.
            return _reads_any(expr.body, tainted)
        return None

    def first(exprs: list[ast.expr]) -> str | None:
        return next((h for h in map(check, exprs) if h is not None), None)

    return first([*call.args, *(keyword.value for keyword in call.keywords)])


def _unsigned(node: ast.expr) -> ast.expr:
    """``node`` with any unary ``+``/``-`` stripped."""
    while isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return node


def _is_float_expr(node: ast.expr) -> bool:
    node = _unsigned(node)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def _is_zero(node: ast.expr) -> bool:
    """A literal zero of either sign (``0.0``, ``-0.0``)."""
    node = _unsigned(node)
    return isinstance(node, ast.Constant) and node.value == 0


class _Checker(ast.NodeVisitor):
    """Single-pass AST walk collecting findings for every rule, plus the
    file's cross-file facts."""

    def __init__(
        self,
        path: str,
        select: frozenset[str] | None,
        pragmas: dict[int, set[str]],
    ) -> None:
        self.path = path
        self.inbox_exempt = Path(path).name in _INBOX_EXEMPT_FILES
        self.realtime = _is_realtime_module(path)
        self.select = select
        self.pragmas = pragmas
        self.findings: list[Finding] = []
        self.facts: list[_Fact] = []
        # local name -> dotted module path it is bound to, e.g.
        # {"np": "numpy", "_random": "random", "perf_counter":
        #  "time.perf_counter", "datetime": "datetime.datetime"}.
        # Relative imports keep their leading dots ("..network.topics").
        self.aliases: dict[str, str] = {}
        self._worker_depth = 0
        self._crossings: set[tuple[int, int]] = set()

    # -- helpers -------------------------------------------------------

    def _selected(self, rule: str) -> bool:
        return self.select is None or rule in self.select

    def _allows(self, line: int, rule: str) -> bool:
        entries = self.pragmas.get(line, ())
        return "*" in entries or rule in entries or RULES[rule][0] in entries

    def _site(self, rule: str, node: ast.AST, message: str = "") -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            name=RULES[rule][0],
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            suppressed=self._allows(line, rule),
        )

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if self._selected(rule):
            self.findings.append(self._site(rule, node, message))

    def _fact(self, kind: str, key: object, rule: str, node: ast.AST) -> None:
        if self._selected(rule):
            self.facts.append((kind, key, self._site(rule, node)))

    def _resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path through the
        module's import aliases; None when the root is not an import."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def run(self, tree: ast.Module) -> None:
        """Walk the file, then the rules that need all of it at once."""
        self.visit(tree)
        if self.realtime and self._selected("RPR010"):
            self._check_async_blocking(tree)
        if self._selected("RPR013") and Path(self.path).as_posix().endswith(
            _TOPICS_MODULE_SUFFIX
        ):
            self._record_topic_definitions(tree)

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[bound] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        prefix = "." * node.level + (f"{node.module}." if node.module else "")
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = prefix + alias.name
        self.generic_visit(node)

    # -- function definitions (RPR006 defaults, RPR009 scope, RPR012) --

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults: list[ast.expr] = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_DEFAULT_CALLS
            ):
                self._emit(
                    "RPR006",
                    default,
                    f"mutable default argument in {node.name}(); default "
                    "to None and construct inside the body",
                )

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_defaults(node)
        # RPR009 scope: worker-entry functions (and their nested
        # helpers) are the code multiprocessing dispatches into — the
        # naming convention the middleware uses throughout.
        in_worker = "worker" in node.name.lower()
        if in_worker:
            self._worker_depth += 1
        self.generic_visit(node)
        if in_worker:
            self._worker_depth -= 1
        if self._selected("RPR012"):
            self._check_executor_crossings(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- RPR012: RNG objects crossing an executor boundary --------------

    def _is_stream(self, node: ast.expr | None) -> bool:
        return (
            isinstance(node, ast.Call)
            and self._resolve(node.func) in _STREAM_CONSTRUCTORS
        )

    def _check_executor_crossings(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        rng_names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._is_stream(node.value):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and self._is_stream(
                node.value
            ):
                targets = [node.target]
            else:
                continue
            rng_names.update(t.id for t in targets if isinstance(t, ast.Name))
        if not rng_names:
            return
        # A nested def that reads an RNG name captures the stream; passing
        # that function to an executor ships the stream with it.
        tainted = set(rng_names)
        for node in ast.walk(func):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not func
                and _reads_any(node, rng_names)
            ):
                tainted.add(node.name)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not (
                isinstance(callee, ast.Attribute)
                and callee.attr in _EXECUTOR_SUBMIT_NAMES
                or isinstance(callee, ast.Name)
                and callee.id in _EXECUTOR_CONSTRUCTORS
            ):
                continue
            crossing = _tainted_argument(node, tainted)
            # An enclosing function's walk sees a nested def's sites too.
            key = (node.lineno, node.col_offset)
            if crossing is None or key in self._crossings:
                continue
            self._crossings.add(key)
            self._emit(
                "RPR012",
                node,
                f"RNG stream {crossing!r} crosses an executor boundary "
                "here; a Generator shipped to a worker forks its stream "
                "and silently breaks replay — spawn per-shard seeds in the "
                "parent (repro.core.registry.spawn_shard_seeds) and build "
                "the Generator on the worker side",
            )

    # -- RPR010: blocking calls on the event loop ----------------------

    def _blocking_sink(self, call: ast.Call, awaited: set[int]) -> str | None:
        """What a call blocks on, or None: an import-resolved (or bare
        builtin) sink, or a non-awaited solver entry point."""
        func = call.func
        dotted: str | None = self._resolve(func)
        name: str | None = getattr(func, "attr", None)
        if isinstance(func, ast.Name):
            dotted, name = dotted or func.id, func.id
        if dotted in _BLOCKING_EXTERNAL:
            return dotted
        if name in _BLOCKING_ENTRY_POINTS and id(call) not in awaited:
            return f"{name}()"
        return None

    def _check_async_blocking(self, tree: ast.Module) -> None:
        awaited = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Await)
        }
        defs, module_functions = _index_defs(tree)

        def blocks(
            fn: _Def, call: ast.Call, cut: bool
        ) -> tuple[str, list[str]] | None:
            sink = self._blocking_sink(call, awaited)
            if sink is not None:
                if cut and self._allows(call.lineno, "RPR010"):
                    return None
                return sink, []
            callee = _local_callee(fn, call, module_functions)
            if callee is None or callee.reach is None:
                return None
            return callee.reach[0], [callee.node.name, *callee.reach[1]]

        # Which functions block, to a fixpoint.  A sink-line pragma
        # sanctions that one call and a def-line pragma the whole
        # function: either cuts the chain for every coroutine above it.
        live = [
            fn for fn in defs if not self._allows(fn.node.lineno, "RPR010")
        ]
        changed = True
        while changed:
            changed = False
            for fn in live:
                if fn.reach is None:
                    hits = (blocks(fn, call, True) for call in fn.calls)
                    fn.reach = next((h for h in hits if h is not None), None)
                    changed |= fn.reach is not None
        # Anchor at the calls lexically inside each coroutine (nested
        # sync helpers included): the line a developer can fix or pragma.
        for root in defs:
            if not isinstance(root.node, ast.AsyncFunctionDef):
                continue
            reported: set[int] = set()
            for member in root.members():
                for call in member.calls:
                    hit = blocks(member, call, False)
                    if hit is None or call.lineno in reported:
                        continue
                    reported.add(call.lineno)
                    sink, chain = hit
                    if len(chain) > _CHAIN_RENDER_CAP:
                        chain = chain[:_CHAIN_RENDER_CAP] + ["..."]
                    via = " via " + " -> ".join([*chain, sink]) if chain else ""
                    self._emit(
                        "RPR010",
                        call,
                        f"blocking call ({sink}) reachable from coroutine "
                        f"{root.node.name}(){via}; it stalls every session "
                        "on the event loop — offload via run_in_executor/"
                        "to_thread and pragma the sanctioned offload site",
                    )

    # -- RPR013: the topics the topics module defines -------------------

    def _record_topic_definitions(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Constant
            ):
                self.facts.extend(
                    ("topic", target.id, None)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                    and target.id.startswith("TOPIC_")
                )

    # -- assignment statements (RPR008 inbox writes) --------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_inbox_write(node, list(node.targets))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_inbox_write(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_inbox_write(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_inbox_write(node, list(node.targets))
        self.generic_visit(node)

    # -- RPR008: inbox mutation outside the transport ------------------

    def _is_inbox_attr(self, node: ast.expr) -> bool:
        """True for an ``<anything>.inbox`` attribute chain (but not a
        bare ``inbox`` local, which is just a variable name)."""
        return isinstance(node, ast.Attribute) and node.attr == "inbox"

    def _check_inbox_write(
        self, node: ast.stmt, targets: list[ast.expr]
    ) -> None:
        if self.inbox_exempt:
            return
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_inbox_write(node, list(target.elts))
            elif self._is_inbox_attr(target) or (
                isinstance(target, ast.Subscript)
                and self._is_inbox_attr(target.value)
            ):
                self._emit(
                    "RPR008",
                    node,
                    "Endpoint.inbox mutated outside repro.network.bus; "
                    "route delivery through MessageBus.requeue/push so "
                    "the bounded-queue accounting cannot be bypassed",
                )

    def _check_inbox_call(self, node: ast.Call) -> None:
        if self.inbox_exempt:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INBOX_MUTATORS
            and self._is_inbox_attr(func.value)
        ):
            self._emit(
                "RPR008",
                node,
                f"inbox.{func.attr}() outside repro.network.bus; route "
                "delivery through MessageBus.requeue/push so the "
                "bounded-queue accounting cannot be bypassed",
            )

    # -- RPR001 / RPR002 / RPR004 / RPR006 / RPR009 / RPR012: calls -----

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_rng_call(node, resolved)
            self._check_wall_clock_call(node, resolved)
            if resolved in _STREAM_CONSTRUCTORS:
                self._record_seed(node)
        self._check_topic_call(node)
        self._check_inbox_call(node)
        self.generic_visit(node)

    def _record_seed(self, node: ast.Call) -> None:
        seed: ast.expr | None = node.args[0] if node.args else None
        for keyword in node.keywords:
            if seed is None and keyword.arg in _SEED_KEYWORDS:
                seed = keyword.value
        value = None if seed is None else _literal_seed(seed)
        if value is not None:
            self._fact("seed", value, "RPR012", node)

    def _check_rng_call(self, node: ast.Call, resolved: str) -> None:
        module, _, fn = resolved.rpartition(".")
        if module not in _RNG_MODULES:
            return
        allowed, short, owner, seeded = _RNG_MODULES[module]
        if fn not in allowed:
            self._emit(
                "RPR001",
                node,
                f"{short}.{fn}() consumes {owner} hidden global RNG "
                f"stream; draw from a seeded {seeded} instead",
            )
        elif self._worker_depth:
            self._emit(
                "RPR009",
                node,
                f"{resolved}() constructed inside a worker-entry "
                "function; ad-hoc worker seeding correlates shard "
                "streams — derive the stream in the parent via "
                "repro.core.registry.spawn_shard_seeds/shard_rng and "
                "pass it in",
            )
        if fn == "default_rng" and not node.args and not node.keywords:
            self._emit(
                "RPR006",
                node,
                "np.random.default_rng() without a seed is entropy-seeded "
                "and unreplayable; thread an explicit seed or Generator "
                "through",
            )

    def _check_wall_clock_call(self, node: ast.Call, resolved: str) -> None:
        if self.realtime:
            return
        if resolved in _WALL_CLOCK_CALLS:
            self._emit(
                "RPR002",
                node,
                f"{resolved}() reads the wall clock; simulation logic "
                "must use the SimClock (perf-timing sites carry "
                "`# reprolint: allow[wall-clock]`)",
            )

    def _check_topic_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        index = _TOPIC_ARG_INDEX.get(method)
        if index is None:
            return
        topic: ast.expr | None = None
        if len(node.args) > index:
            topic = node.args[index]
        else:
            for keyword in node.keywords:
                if keyword.arg == "topic":
                    topic = keyword.value
        if isinstance(topic, ast.Constant) and isinstance(topic.value, str):
            self._emit(
                "RPR004",
                topic,
                f"raw topic string {topic.value!r} at a "
                f"{method}() call site; use the shared constants "
                "in repro.network.topics",
            )
        # RPR013 fact: an imported constant, keyed by its own name.
        resolved = None if topic is None else self._resolve(topic)
        if resolved is not None and method != "unsubscribe":
            self._fact(method, resolved.rpartition(".")[2], "RPR013", node)

    # -- RPR005: float equality ----------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(
            isinstance(op, (ast.Eq, ast.NotEq))
            and (_is_float_expr(left) or _is_float_expr(right))
            and not (_is_zero(left) or _is_zero(right))
            for left, op, right in zip(operands, node.ops, operands[1:])
        ):
            self._emit(
                "RPR005",
                node,
                "exact float ==/!= comparison; compare with a "
                "tolerance, or pragma an intentional bit-identity pin",
            )
        self.generic_visit(node)


def _normalise_select(select: Iterable[str] | None) -> frozenset[str] | None:
    if select is None:
        return None
    rules: set[str] = set()
    for entry in select:
        entry = entry.strip()
        if not entry:
            continue
        rule = _NAME_TO_RULE.get(entry, entry.upper())
        if rule not in RULES:
            raise ValueError(
                f"unknown rule {entry!r}; expected one of "
                f"{sorted(RULES) + sorted(_NAME_TO_RULE)}"
            )
        rules.add(rule)
    return frozenset(rules)


def _lint_one(
    source: str, path: str, select: frozenset[str] | None
) -> tuple[list[Finding], list[_Fact]]:
    """One file's findings (suppression applied) and cross-file facts;
    a parse failure is reported under RPR000."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        error = Finding(
            rule=PARSE_ERROR_RULE,
            name="parse-error",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"could not parse: {exc.msg}",
        )
        return [error], []
    checker = _Checker(path, select, _pragmas(source, tree))
    checker.run(tree)
    return checker.findings, checker.facts


def _fold(facts: list[_Fact]) -> list[Finding]:
    """The cross-file findings over every linted file's facts: RPR012
    duplicate literal seeds and RPR013 one-sided topics."""
    sites: dict[tuple[str, object], list[Finding]] = {}
    topics: set[object] = set()
    for kind, key, site in facts:
        if site is None:
            topics.add(key)
        else:
            sites.setdefault((kind, key), []).append(site)
    findings: list[Finding] = []
    for (kind, value), group in sites.items():
        group.sort(key=lambda f: (f.path, f.line, f.col))
        first = f"{Path(group[0].path).name}:{group[0].line}"
        findings.extend(
            replace(
                site,
                message=f"literal seed {value!r} already feeds the stream "
                f"constructed at {first}; two streams from one seed are "
                "the same stream — derive independent children via "
                "SeedSequence.spawn (repro.core.registry."
                "spawn_shard_seeds)",
            )
            for site in (group[1:] if kind == "seed" else ())
        )
    for topic in topics:
        pubs = sites.get(("publish", topic), [])
        subs = sites.get(("subscribe", topic), [])
        if pubs and not subs:
            message = (
                "is published here but nothing in the linted files ever "
                "subscribes to it; a contract with no second party is a "
                "typo'd constant or dead traffic — add the subscriber"
            )
        elif subs and not pubs:
            message = (
                "is subscribed to here but nothing in the linted files "
                "ever publishes it; the handler can never fire — add the "
                "publisher"
            )
        else:
            continue
        findings.append(
            replace(
                (pubs or subs)[0],
                message=f"topic {topic} {message}, or pragma a documented "
                "external contract",
            )
        )
    return findings


def _by_position(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_source(
    source: str,
    path: str = "<memory>",
    *,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one source string on its own (the cross-file rules fold over
    this file alone); returns findings, suppressed ones flagged and
    parse failures reported under RPR000."""
    findings, facts = _lint_one(source, path, _normalise_select(select))
    return _by_position(findings + _fold(facts))


def lint_file(
    path: str | Path, *, select: Iterable[str] | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), select=select)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files,
    skipping ``__pycache__`` and hidden directories."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for candidate in sorted(entry.rglob("*.py")):
                parts = candidate.relative_to(entry).parts
                if not any(p == "__pycache__" or p[0] == "." for p in parts):
                    yield candidate
        else:
            yield entry


def lint_paths(
    paths: Iterable[str | Path], *, select: Iterable[str] | None = None
) -> tuple[list[Finding], int]:
    """Lint files/directories, each parsed once, then fold every file's
    facts into the cross-file findings; returns (findings sorted by
    position, files scanned)."""
    selected = _normalise_select(select)
    findings: list[Finding] = []
    facts: list[_Fact] = []
    scanned = 0
    for path in iter_python_files(paths):
        scanned += 1
        source = path.read_text(encoding="utf-8")
        file_findings, file_facts = _lint_one(source, str(path), selected)
        findings.extend(file_findings)
        facts.extend(file_facts)
    return _by_position(findings + _fold(facts)), scanned
