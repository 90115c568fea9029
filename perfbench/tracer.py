"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function defined in the package's
layer modules and rebinds each name that refers to one of them, in every
layer module and in the package namespace.  Names a module imported by
value (``cli.combine_bundle``, ``simstudy.fit_block``, ...) are rebound
too, so no call escapes the trace.  Nothing inside the package is edited;
``uninstall`` restores the original bindings.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter

LAYERS = (
    "dataio",
    "simstudy",
    "partition",
    "engines",
    "gee",
    "composite",
    "combine",
    "inference",
    "cli",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.enabled = True
        self.names = set()  # every wrapped function, as layer.function
        self._stack = []
        self._rebound = []

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    self.names.add(f"{layer}.{attr}")
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in (package, *modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._rebound):
            setattr(module, attr, obj)
        self._rebound.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            counts[name + ".calls"] += 1
            if name == "engines.fit_block":
                # BlockFit.iterations: Newton steps (cl-*) or alternations (gee-*)
                key = "composite.newton_iterations" if result.kind.startswith("cl") else "gee.iterations"
                counts[key] += result.iterations
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans, first: int, last: int) -> dict:
    """Per-function inclusive busy seconds and per-layer self seconds of
    ``spans[first:last]``; a parent index below ``first`` is outside.

    Inclusive time counts a function once while it is on the stack, so a
    nested call to itself adds nothing.  A layer's self time is the time
    its spans cover minus the time their direct children cover; summed over
    a layer's nested spans this is the layer's time outside other layers.
    """
    inclusive = Counter()
    self_s = Counter()
    child = Counter()
    for name, start, end, parent in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    for idx in range(first, last):
        name, start, end, parent = spans[idx]
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - child[idx]
        outer = parent
        while outer >= first and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < first:
            inclusive[name] += dur
    return {"inclusive": inclusive, "self": self_s}
