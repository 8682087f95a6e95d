"""Span recorder for the traced run.

Spans are kept in memory and summarised once at the end.  The recorder
wraps the public functions of each latcert module from outside the package:
every module namespace that holds a wrapped function gets the wrapper, so
calls made inside the package (``lpcert.gegenbauer_expand``,
``lattice32.code_report``, ``Shell.index_of``) are counted too.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int  # operation the span belongs to
    pairs: int = 0  # logical dot products, for the pair passes


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def begin(self, name: str, pairs: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op, pairs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, label=None):
        """``label(bound_arguments)`` may refine the span's name and pairs."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, pairs = name, 0
            if label is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span_name, pairs = label(bound.arguments)
            idx = self.begin(span_name, pairs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append((spans[i].start, spans[i].end))
    return [
        (s.end - s.start) - union_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def coverage(spans: list) -> float:
    """Share of the op spans' time covered by their direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    total = covered = 0.0
    for i, s in enumerate(spans):
        if s.name == "op":
            total += s.end - s.start
            covered += union_length(children[i], s.start, s.end)
    return covered / total if total else 0.0


def summarise(spans: list) -> dict:
    """Per span name: self seconds, call count and logical pairs."""
    table = defaultdict(lambda: {"s": 0.0, "calls": 0, "pairs": 0})
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["s"] += own
        row["calls"] += 1
        row["pairs"] += s.pairs
    return dict(table)


def instrument(recorder: Recorder, modules: list, methods: list, labels: dict,
               unwrapped: tuple = ()):
    """Wrap every public function defined in ``modules`` (except those named
    in ``unwrapped``, whose namespaces are still patched) and each
    ``(cls, name)`` in ``methods``; ``labels`` maps a span name to a label
    function.  Returns a function that restores the originals."""
    wrappers = {}
    for mod in modules:
        if mod.__name__ in unwrapped:
            continue
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                span = f"{short}.{name}"
                wrappers[id(obj)] = (obj, recorder.wrap(obj, span, labels.get(span)))
    undo = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, name, wrappers[id(obj)][1])
                undo.append((mod, name, obj))
    for cls, name in methods:
        fn = cls.__dict__[name]
        short = f"{cls.__module__.rsplit('.', 1)[-1]}.{name}"
        setattr(cls, name, recorder.wrap(fn, short, labels.get(short)))
        undo.append((cls, name, fn))

    def restore():
        for owner, name, obj in undo:
            setattr(owner, name, obj)

    return restore


def wrapper_cost() -> float:
    """Median extra seconds one wrapped call costs over a plain call."""
    calls = 20000
    rec = Recorder()

    def plain():
        return None

    traced = rec.wrap(plain, "calibration")
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            plain()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        rec.spans.clear()
        costs.append(max(0.0, ((t2 - t1) - (t1 - t0)) / calls))
    return statistics.median(costs)
