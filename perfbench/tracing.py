"""Spans recorded by the benchmark around its calls into gridfa.

A span is ``[name, start, end, parent, op, count]``: ``name`` is
``<module>.<function>`` (the module is the layer), ``parent`` the index of
the enclosing span or -1, ``op`` the id of the benchmark op it belongs
to, and ``count`` the work units it covers (pictures, cells, decisions),
so batched calls give per-unit times.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, COUNT = range(6)

#: Functions whose result is a list of pictures: the span counts them.
COUNT_RESULT = {"parse_picture_stream"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: object = None
        self.counters: dict[str, int] = defaultdict(int)

    def begin(self, name: str, count: int = 1) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, count])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, count: int = 1):
        index = self.begin(name, count)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    @contextmanager
    def adopt(self, parent: int):
        """Record the enclosed spans as children of ``parent``, which has
        already ended (re-run children of an experiment call)."""
        saved, self.stack = self.stack, [parent]
        try:
            yield
        finally:
            self.stack = saved

    def durations(self, normalize) -> list[float]:
        """Each span's duration as ``normalize(start, end)`` gives it."""
        return [normalize(s[START], s[END]) for s in self.spans]

    def per_name(self, durations) -> dict[str, tuple[float, int]]:
        """name -> (total seconds, total count)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for s, duration in zip(self.spans, durations):
            acc = out[s[NAME]]
            acc[0] += duration
            acc[1] += s[COUNT]
        return {k: tuple(v) for k, v in out.items()}

    def self_time_by_layer(self, durations) -> dict[str, float]:
        """Layer -> sum over its spans of duration minus child durations."""
        child_time = [0.0] * len(self.spans)
        for s, duration in zip(self.spans, durations):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += duration
        out: dict[str, float] = defaultdict(float)
        for s, duration, inner in zip(self.spans, durations, child_time):
            out[s[NAME].split(".", 1)[0]] += duration - inner
        return dict(out)


class TracedLib:
    """Stand-in for the ``gridfa`` module that records a span around every
    public function call; classes and constants pass through unchanged."""

    def __init__(self, module: types.ModuleType, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._cache: dict[str, object] = {}

    def __getattr__(self, attr: str):
        if attr in self._cache:
            return self._cache[attr]
        value = getattr(self._module, attr)
        if isinstance(value, types.FunctionType):
            value = self._wrap(value)
        self._cache[attr] = value
        return value

    def _wrap(self, fn):
        tracer = self._tracer
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counted = fn.__name__ in COUNT_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if counted:
                    tracer.spans[index][COUNT] = len(result)
                return result
            finally:
                tracer.end(index)

        return traced
