"""In-memory spans and counters around the toolkit's module-level functions.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started.  Spans are opened by the benchmark
around its own calls into the toolkit (the CLI entry point, each verify
suite) and by wrappers installed over module attributes.

A wrapper replaces every binding of the wrapped function in every loaded
``parakahler`` module, so ``from .geometry import mean_curvature`` in the
CLI is traced as well as ``geometry.mean_curvature``.  The function is found
by its home module and name; if it has moved, by its name in any toolkit
module; if it no longer exists, nothing is wrapped and its counts stay 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "parakahler"


def _toolkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module_name: str, attr: str):
    """The function object a target names, or None if it no longer exists."""
    try:
        found = getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        found = None
    if callable(found):
        return found
    for module in _toolkit_modules():
        cand = vars(module).get(attr)
        if callable(cand) and getattr(cand, "__name__", None) == attr:
            return cand
    return None


class Tracer:
    """Collects spans and counts until closed; ``close`` restores every
    patched attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: dict[int, tuple] = {}  # id(wrapper): (wrapper, original)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, module_name: str, attr: str, label: str, *,
             timed: bool = True, on_result=None) -> int:
        """Trace every toolkit binding of module_name.attr under label.

        Each call adds 1 to ``label.calls``; a timed call also records a
        span.  on_result(tracer, result) runs after each call.  Returns the
        number of bindings replaced (0 when the function does not exist).
        """
        original = _resolve(module_name, attr)
        if original is None:
            return 0
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[label + ".calls"] += 1
            if timed:
                with tracer.span(label):
                    result = original(*args, **kwargs)
            else:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._originals[id(wrapper)] = (wrapper, original)
        return self._rebind({id(original): (original, wrapper)})

    def close(self):
        """Put back every original, also where a module imported while
        tracing bound a wrapper."""
        self._rebind(self._originals)
        self._originals.clear()

    @staticmethod
    def _rebind(mapping) -> int:
        count = 0
        for module in _toolkit_modules():
            for name, value in list(vars(module).items()):
                old, new = mapping.get(id(value), (None, None))
                if old is value:
                    setattr(module, name, new)
                    count += 1
        return count

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Per name, the summed span durations minus the part of each span's
    interval that its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(idx, ()), start, end)
        out[name] = out.get(name, 0.0) + own
    return out
