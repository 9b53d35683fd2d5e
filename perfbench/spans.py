"""In-memory spans for the traced run, recorded only from the benchmark's files.

A span is (id, name, start, end, parent).  Names are `<module>.<function>`,
so a span's time belongs to the prefixnormal module it names.  Besides the
spans the workloads open around their own calls, `patch_module_boundaries`
wraps every public function one prefixnormal module imports from another,
so that time a module spends calling into a second one is charged to the
second.  Nothing under src/ changes; the wrappers are removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import nullcontext
from time import perf_counter

MODULES = ("words", "ops", "generate", "critstats", "infinite", "cli")


def no_span(name: str):
    """The untraced run's span: does nothing."""
    return nullcontext()


class _Span:
    __slots__ = ("tracer", "id", "name", "start", "end", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer.stack
        self.id = len(self.tracer.spans)
        self.parent = stack[-1].id if stack else None
        self.tracer.spans.append(self)
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        stack = self.tracer.stack
        # A generator's span can close after a span opened later (it closes
        # when the consumer drops the generator), so remove by identity.
        if stack[-1] is self:
            stack.pop()
        else:
            stack.remove(self)
        return False


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds per module: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out = dict.fromkeys(MODULES, 0.0)
        for sp, inner in zip(self.spans, child):
            module = sp.name.partition(".")[0]
            if module in out:
                out[module] += sp.end - sp.start - inner
        return out

    def rows(self) -> list[dict]:
        return [{"id": sp.id, "name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent} for sp in self.spans]


def _wrap(tracer: Tracer, fn):
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            with tracer.span(name):
                yield from fn(*args, **kwargs)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def patch_module_boundaries(tracer: Tracer):
    """Wrap each public function a prefixnormal module imported from another.

    Returns a callable that restores the originals.
    """
    undo = []
    for short in MODULES:
        module = importlib.import_module(f"prefixnormal.{short}")
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith("prefixnormal.")
                    or value.__module__ == module.__name__):
                continue
            undo.append((module, attr, value))
            setattr(module, attr, _wrap(tracer, value))

    def restore():
        for module, attr, value in undo:
            setattr(module, attr, value)
    return restore
