"""Spans and counters recorded around calls into the ssdp modules.

The benchmark wraps public functions from outside the package: every module
attribute that is the original function object is replaced, because modules
import functions by name (``solve_infinite`` is bound in ``dp``, ``policy``,
``average``, ``cli`` and the package root).  Methods are wrapped on their
class.  Spans stay in memory as tuples and are written once, at the end.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.spans = []  # (id, name, start, end, parent id, job)
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> counter -> value
        self.maxima = defaultdict(dict)  # job -> gauge -> largest value seen
        self.job = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- installation ---------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _wrap(self, fn, name: str, on_exit=None):
        sig = inspect.signature(fn) if on_exit else None

        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # counted once, at the innermost span it leaves
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counts[self.job][f"exc.{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.job))
            if on_exit is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_exit(self, bound.arguments, result)
            return result

        return wrapper

    def span(self, module, attr: str, name: str, on_exit=None) -> None:
        """Time every call of ``module.attr`` at all its binding sites.

        ``on_exit(tracer, bound_args, result)`` runs after a successful call,
        outside the span, to record counters.
        """
        fn = getattr(module, attr)
        self._rebind(fn, self._wrap(fn, name, on_exit))

    def method_span(self, cls, attr: str, name: str) -> None:
        fn = getattr(cls, attr)
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name))

    def method_count(self, cls, attr: str, counter: str) -> None:
        """Count calls only: the method is too hot for a span per call."""
        fn = getattr(cls, attr)

        def counted(*args, **kwargs):
            if self.job is not None:
                self.counts[self.job][counter] += 1
            return fn(*args, **kwargs)

        self._undo.append((cls, attr, fn))
        setattr(cls, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording helpers for on_exit hooks -----------------------------

    def add(self, counter: str, k) -> None:
        self.counts[self.job][counter] += k

    def gauge_max(self, gauge: str, value) -> None:
        seen = self.maxima[self.job]
        seen[gauge] = max(seen.get(gauge, value), value)

    # -- results ---------------------------------------------------------

    def job_summary(self, job) -> dict:
        """Per span name: calls, inclusive seconds and self seconds for one job."""
        spans = [s for s in self.spans if s[5] == job]
        child_time = defaultdict(float)
        for sid, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _, _ in spans:
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += (end - start) - child_time[sid]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )
