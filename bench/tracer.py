"""In-memory span tracing installed from outside the package.

`Tracer.install` replaces every binding of a library function in the loaded
`ekemq` modules (the package namespace and each module that imported the
name) with a timing wrapper; `Tracer.install_method` does the same for a
method on its class.  Nothing under `src/` knows about tracing.  Each call
opens a span (id, parent id, name, start, end) kept in a list; spans are
written out by `dump` when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children, which never overlap
because the traced code is single-threaded.  The wrappers also time their
own bookkeeping, the part of each call outside the wrapped function, which
is the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [id, parent, name, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.overhead = 0.0                 # seconds spent in the wrappers themselves
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, after):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, result, bound.arguments)
            self.overhead += (span[3] - entered) + (time.perf_counter() - span[4])
            return result

        return traced

    def install(self, fn, name, after=None) -> None:
        """Wrap every binding of `fn` in the loaded ekemq modules."""
        traced = self._wrap(fn, name, after)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ekemq" and not mod_name.startswith("ekemq."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)
                    found = True
        if not found:
            raise LookupError(f"no ekemq module binds {fn!r}")

    def install_method(self, cls, attr, name, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def add(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], float(value))

    def summary(self):
        """(self time by span name, calls by span name, root-span time)."""
        child_time = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        root_time = 0.0
        for sid, parent, name, start, end in self.spans:
            self_time[name] += (end - start) - child_time[sid]
            calls[name] += 1
            if parent is None:
                root_time += end - start
        return self_time, calls, root_time

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counters": dict(self.counters),
                       "overhead_s": self.overhead,
                       "maxima": dict(self.maxima)}, fh)
            fh.write("\n")
