"""Interposition on module attributes: in-memory span tracing and result capture.

A function is wrapped at the name its caller looks it up by. ``harness`` calls
``batch.lp_run``, so label propagation is wrapped at ``edgesign.batch:lp_run``;
``batch`` calls the ``troll_trust`` it imported from ``features``, so that one
is wrapped at ``edgesign.batch:troll_trust``. Nothing under ``src/`` changes,
and every wrapper is removed again when its context ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent run")


@contextmanager
def interposed(points, wrapper_for):
    """Install ``wrapper_for(name)`` at every ``(target, name)`` point for the block.

    A target is ``"module:attr"`` or ``"module:Class.attr"``; the originals
    are put back, last patched first, when the block ends.
    """
    undo = []
    try:
        for target, name in points:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = inspect.getattr_static(owner, attr)
            make = wrapper_for(name)
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(make(original.__func__))
            else:
                replacement = make(original)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Records one span per call of each wrapped function, kept in memory.

    A span is (name, start, end, parent span index, run id); the index of a
    span is its position in ``spans``. Spans are only recorded inside
    :meth:`recording`, which installs the wrappers and removes them again.
    """

    def __init__(self, points, clock=time.perf_counter):
        self.points = points
        self.spans = []
        self._clock = clock
        self._stack = []
        self._run = None

    def _wrapper_for(self, name):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self.spans.append(None)
                self._stack.append(index)
                start = self._clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = self._clock()
                    self._stack.pop()
                    self.spans[index] = Span(name, start, end, parent, self._run)
            return traced
        return make

    @contextmanager
    def recording(self, run):
        self._run = run
        try:
            with interposed(self.points, self._wrapper_for):
                yield
        finally:
            self._run = None


class Capture:
    """Keeps ``(args, kwargs, result)`` of every call of the wrapped functions, by name."""

    def __init__(self):
        self.calls = defaultdict(list)

    def wrapper_for(self, name):
        def make(fn):
            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[name].append((args, kwargs, result))
                return result
            return recorded
        return make


def self_times(spans):
    """Each span's duration minus the part of its interval its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def layer_totals(spans):
    """Per run id and span name: [calls, inclusive seconds, self seconds]."""
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.run][span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own
    return totals
