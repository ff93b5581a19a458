"""In-memory span tracer for openbaker, installed from outside the package.

`Tracer.install()` wraps every public function defined in the traced
modules and rebinds each module-level name that refers to it, including
names that other openbaker modules bound with `from .x import f`, so calls
between modules are traced too. Private helpers are not wrapped: their time
shows in the self time of their public caller.

One span is recorded per wrapped call as [name, start, end, parent index];
spans stay in memory until `summary()` aggregates them. Self time is a span's
duration minus the durations of its direct children (calls are nested and
single-threaded, so the children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

MODULES = ("classical", "quantum", "spectral", "phase_space", "walsh",
           "experiments", "io_utils", "cli")


def _states_count(args, kwargs):
    states = args[0] if args else kwargs.get("states")
    return len(states) if hasattr(states, "__len__") else 0


# Counters taken from the arguments of a call: name -> (counter, function).
ARG_COUNTERS = {
    "spectral.eigendecompose": ("dim_sum", lambda a, k: a[0].shape[0]),
    "phase_space.wigner_grid_average": ("states", _states_count),
}


class Tracer:
    def __init__(self, run_id: str, keep=()):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self.kept = {}
        self._keep = set(keep)
        self._stack = []
        self._caches = {}
        self._hits_before = {}

    def install(self) -> None:
        package = importlib.import_module("openbaker")
        modules = [importlib.import_module(f"openbaker.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for name, obj in vars(mod).items():
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qname = f"{short}.{name}"
                if hasattr(obj, "cache_info"):
                    self._caches[qname] = obj
                    self._hits_before[qname] = obj.cache_info().hits
                if not name.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(qname, obj))
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])

    def _enter(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qname, fn):
        counter = ARG_COUNTERS.get(qname)
        keep = qname in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(qname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if counter is not None:
                key = f"{qname}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](args, kwargs)
            if keep:
                self.kept[(qname, args)] = result
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def cache_hits(self) -> dict:
        return {q: fn.cache_info().hits - self._hits_before[q]
                for q, fn in self._caches.items()}

    def summary(self) -> dict:
        """Per-name calls, self time and total time.

        Total time counts only the outermost span of a name, so recursive or
        re-entrant calls are not counted twice."""
        n = len(self.spans)
        child = [0.0] * n
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["total_s"] += end - start
        return stats

