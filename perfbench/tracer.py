"""In-memory span tracer that wraps ``repro`` functions from the outside.

The tracer never edits the library.  :meth:`Tracer.install` replaces a
public function with a timing wrapper wherever callers look it up: every
attribute of a loaded ``repro`` module that *is* the original function
(``from x import f`` copies included) and every module-level dict entry
that holds it (the ordering registry).  Modules imported later bind the
wrapper, because they copy it from the patched defining module.  A target
that a refactor moved or removed is reported absent instead of failing.

Each call becomes a :class:`Span` (name, start, end, parent, cell); spans
stay in memory until :meth:`Tracer.write_chrome` writes Chrome trace-event
JSON, which Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``
open directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Target", "Tracer", "calibrate_overhead", "layer_totals", "self_times",
           "write_chrome"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    cell: str | None = None
    counts: dict = field(default_factory=dict)
    thread: int = 1


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module.attr`` (or ``module.attr[key]`` for a
    registry dict), recorded under ``name``.  ``counts`` maps a count name to
    the attribute of the function's return value that holds it.  ``cell``
    labels the spans under this call (the per-cell root span)."""

    name: str
    module: str
    attr: str
    key: str | None = None
    counts: tuple = ()
    cell: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cell: str | None = None
        self._patches: list = []

    # -- recording ------------------------------------------------------- #
    def wrap(self, func, name: str, counts=(), cell=None):
        """Return *func* wrapped so every call records a span named *name*."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(index)
            outer_cell = tracer._cell
            if cell is not None:
                tracer._cell = cell(*args, **kwargs)
            span.cell = tracer._cell
            span.start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                tracer._cell = outer_cell
            for count, attr in counts:
                value = getattr(result, attr, None)
                if isinstance(value, (int, float)):
                    span.counts[count] = value
            return result

        return traced

    # -- patching -------------------------------------------------------- #
    def install(self, targets) -> None:
        """Wrap every target; names that cannot be resolved go to ``absent``."""
        for target in targets:
            original = _resolve(target)
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self.wrap(original, target.name, target.counts, target.cell)
            for holder, key in _references(original):
                if isinstance(holder, dict):
                    self._patches.append((holder.__setitem__, key, original))
                    holder[key] = wrapper
                else:
                    self._patches.append((functools.partial(setattr, holder), key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            restore, key, original = self._patches.pop()
            restore(key, original)


def write_chrome(path, spans, metadata=None) -> None:
    """Write *spans* as Chrome trace-event JSON (one complete event each)."""
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for index, span in enumerate(spans):
        args = {"cell": span.cell, "parent": span.parent, "id": index, **span.counts}
        events.append({
            "name": span.name, "cat": span.name.split(".", 1)[0], "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": 1, "tid": span.thread, "args": args,
        })
    document = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata or {}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _resolve(target: Target):
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    value = getattr(module, target.attr, None)
    if target.key is not None:
        value = value.get(target.key) if isinstance(value, dict) else None
    return value if callable(value) else None


def _references(original):
    """Every ``(holder, key)`` in loaded ``repro`` modules that holds *original*:
    module attributes and the entries of module-level dicts."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
            elif isinstance(value, dict):
                found.extend((value, k) for k, v in list(value.items()) if v is original)
    return found


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(max(0.0, (span.end - span.start) - covered))
    return result


def layer_totals(spans) -> dict:
    """Per span name: ``calls``, ``self_s``, ``total_s`` and summed counts."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span.end - span.start
        for count, value in span.counts.items():
            entry[count] = entry.get(count, 0) + value
    return totals


def calibrate_overhead(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one traced call adds over a plain call (best of *rounds*)."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibrate")
    clock = time.perf_counter
    best = float("inf")
    for _ in range(rounds):
        tracer.spans.clear()
        start = clock()
        for _ in range(calls):
            traced()
        wrapped = clock() - start
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        best = min(best, (wrapped - plain) / calls)
    return max(best, 0.0)
