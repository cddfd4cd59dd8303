"""In-memory span tracer for the layered benchmark.

Spans are recorded from *outside* the program: the benchmark rebinds the
public functions of each layer to timing wrappers (no edit under
``src/``).  A span is ``(name, start_ns, end_ns, parent, round_id)``;
``parent`` is the index of the span that was open when this one
started, ``round_id`` whatever unit of work the harness says is current
(a city round, an engine repeat, a gateway round).  Spans live in flat
arrays until the run ends; :func:`self_times_ns` then charges each span
its duration minus the part its children cover.

Single-threaded by design: the open-span stack is one list.  Every
workload of this benchmark runs the program under test on one thread
(the gateway child on one event loop), so a lock would only add cost to
every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Tracer", "self_times_ns"]

#: Spans written to ``trace-<workload>.json``; totals cover every span.
MAX_SPANS_WRITTEN = 100_000


def self_times_ns(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Self time of every span: duration minus what its children cover.

    Children are clipped to their parent's interval and their *union* is
    subtracted, so nested grandchildren are not double-counted (they are
    charged to the child) and overlapping siblings are not subtracted
    twice.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    of = parent[kids]
    lo = np.maximum(start[kids], start[of])
    hi = np.maximum(np.minimum(end[kids], end[of]), lo)
    order = np.lexsort((lo, of))
    of, lo, hi = of[order], lo[order], hi[order]
    # Running "furthest end so far" per parent, as one global scan: each
    # parent's children are shifted onto their own stretch of the number
    # line, so an earlier parent's ends can never reach a later one's.
    base = int(lo.min())
    stride = int(hi.max()) - base + 1
    group = np.cumsum(np.r_[0, of[1:] != of[:-1]])
    shift = group * stride - base
    lo_s, hi_s = lo + shift, hi + shift
    reach = np.maximum.accumulate(hi_s)
    before = np.r_[lo_s[0], reach[:-1]]
    covered = np.maximum(hi_s - np.maximum(lo_s, before), 0)
    return own - np.bincount(of, weights=covered, minlength=own.size).astype(
        np.int64
    )


class Tracer:
    """Records spans around patched callables and tallies plain counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.round = array("i")
        self.round_id = 0
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.round.append(self.round_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span per call of synchronous ``fn``."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        # lru_cache handles (the basis registry) keep their controls.
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def wrap_coroutine(self, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span per *resumed stretch* of ``fn``.

        A coroutine's wall time includes the time it sat suspended while
        the loop ran other tasks; only the stretches between resumption
        and the next suspension are this function's own work.  Completed
        calls are tallied in ``counters[name + ".calls"]``.
        """
        nid = self._id(name)
        calls = name + ".calls"

        @types.coroutine
        def drive(coro):
            send, value = coro.send, None
            while True:
                idx = self._open(nid)
                try:
                    awaited = send(value)
                except StopIteration as done:
                    self.counters[calls] += 1
                    return done.value
                finally:
                    self._close(idx)
                try:
                    value = yield awaited
                    send = coro.send
                except BaseException as exc:  # cancellation, reset: hand on
                    send, value = coro.throw, exc

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return traced

    # -- patching ------------------------------------------------------

    def _rebind(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(
        self, module: str, attr: str, name: str, *, coroutine: bool = False
    ) -> None:
        """Trace module-level ``module.attr`` wherever ``repro`` bound it.

        ``from .omp import omp`` copies the reference into the importing
        module, so every ``repro.*`` module global that *is* the original
        function is rebound, not only its home module.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapper = (self.wrap_coroutine if coroutine else self.wrap)(
            original, name
        )
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Trace ``cls.attr`` (subclasses that override it are not)."""
        self._rebind(cls, attr, self.wrap(cls.__dict__[attr], name))

    def unpatch(self) -> None:
        """Restore every rebinding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self nanoseconds."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        self_ns = np.bincount(
            ids, weights=self_times_ns(start, end, parent), minlength=size
        )
        total_ns = np.bincount(ids, weights=end - start, minlength=size)
        return {
            name: {
                "calls": int(calls[i]),
                "self_ns": float(self_ns[i]),
                "total_ns": float(total_ns[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path, **header: Any) -> None:
        """Dump the trace: header, name table, spans, per-name totals."""
        keep = min(len(self.start), MAX_SPANS_WRITTEN)
        spans = [
            [
                self.name_id[i], self.start[i], self.end[i],
                self.parent[i], self.round[i],
            ]
            for i in range(keep)
        ]
        document = {
            **header,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "round_id"],
            "names": self.names,
            "spans_total": len(self.start),
            "spans_written": keep,
            "by_name": self.summary(),
            "counters": dict(self.counters),
            "spans": spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document) + "\n")
