"""In-memory spans around the benchmark's calls into ksubmax.

A span records a name, start and end times, the index of the span that was
open when it started (its parent) and the job it belongs to.  Spans stay in
memory until the run ends.  The benchmark reaches the library only through
a :class:`Lib`; a traced ``Lib`` wraps every public callable of each module
in a span named ``<module>.<attribute>``, an untraced one hands out the
modules themselves, so untraced runs pay nothing for tracing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("core", "zoo", "checks", "maximize", "instances", "cli")

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.job = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.clock(), None, self._open[-1] if self._open else None, self.job]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append((record[START], record[END]))
    out = []
    for i, record in enumerate(spans):
        lo, hi = record[START], record[END]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


class _TracedModule:
    def __init__(self, layer: str, module, tracer: Tracer) -> None:
        self._layer, self._module, self._tracer = layer, module, tracer

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        exception = isinstance(value, type) and issubclass(value, BaseException)
        if callable(value) and not attr.startswith("_") and not exception:
            value = self._tracer.wrap(f"{self._layer}.{attr}", value)
        setattr(self, attr, value)
        return value


class Lib:
    """The ksubmax modules, as the benchmark calls them."""

    def __init__(self, modules: dict, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        for layer in LAYERS:
            module = modules[layer]
            setattr(self, layer, module if tracer is None else _TracedModule(layer, module, tracer))

    def call(self, name: str, fn, *args):
        """Call a bound method of a library object, in a span when traced."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.wrap(name, fn)(*args)
