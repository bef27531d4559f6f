"""In-memory span tracer for the benchmark's traced runs.

A span is one call of a wrapped function: its name, start, end, parent span
and the work counts read from the call's arguments and return value.  Spans
are kept in memory and handed back when the run ends; nothing is written
while the program runs.  Wrapping happens from the benchmark's side only, by
rebinding module attributes, so the program's own code is unchanged.

This module uses the standard library only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every function it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, fn: Callable, name, counts: Callable | None = None) -> Callable:
        """Return `fn` wrapped in a span.

        `name` is the span name, or a callable taking the bound arguments
        (a dict, defaults applied) and returning it.  `counts(arguments,
        result)` returns the work counts of a successful call.
        """
        signature = inspect.signature(fn)
        needs_args = callable(name) or counts is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            parent = self._stack[-1] if self._stack else None
            span = Span(next(self._ids), parent, name(arguments) if callable(name) else name,
                        0.0, 0.0)
            self._stack.append(span.id)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.counts = counts(arguments, result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children[span.id]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


PACKAGE = "isinglab"


@dataclass
class Target:
    """A function to trace: `isinglab.<module>.<function>` under span `name`."""

    module: str
    function: str
    name: object                     # str, or callable(arguments) -> str
    counts: Callable | None = None   # callable(arguments, result) -> dict


@contextmanager
def installed(tracer: Tracer, targets: list[Target]):
    """Trace every target while the block runs, then restore the originals.

    A function is reachable through every module that bound it, for example
    by `from .quantum import build_diagonal`, so each module attribute of the
    package that is the original function object is rebound to the wrapper.
    """
    homes = [importlib.import_module(f"{PACKAGE}.{t.module}") for t in targets]
    modules = [mod for key, mod in sorted(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    undo = []
    try:
        for target, home in zip(targets, homes):
            original = getattr(home, target.function)
            wrapper = tracer.wrap(original, target.name, target.counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
