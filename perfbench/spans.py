"""Spans around memcat's layer boundaries, recorded from outside the program.

`Tracer.install` replaces public functions at the module bindings their
callers look up, so the program itself is not edited.  Each span is a
tuple (id, parent, call, name, wall start, wall end, cpu start, cpu end,
info); cpu times are per-thread, so a span does not absorb the time
other threads of the CLI's pool ran while it waited for the interpreter
lock.  Spans stay in memory until the call ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter, thread_time

# (module, attribute, span name, info taken from the result)
BINDINGS = (
    ("memcat.cli", "parse_litmus", "litmus.parse", None),
    ("memcat.cli", "project", "litmus.project", None),
    ("memcat.suite", "parse_litmus", "litmus.parse", None),
    ("memcat.suite", "project", "litmus.project", None),
    ("memcat.cli", "evaluate_test", "models.evaluate_test", None),
    ("memcat.models", "parse_cat", "cat.parse", None),
    ("memcat.models", "run_model", "cat.run_model", None),
    ("memcat.cat", "run_model", "cat.run_model", None),
    ("memcat.cli", "enumerate_accepted", "machine.enumerate_accepted", None),
    ("memcat.cli", "model_behaviors", "machine.model_behaviors", None),
    ("memcat.machine", "machine_context", "machine.context", None),
    ("memcat.machine", "machine_accepts", "machine.search", bool),
    ("memcat.cli", "mine", "cycles.mine", len),
    ("memcat.cycles", "find_critical_cycles", "cycles.find", len),
)
# generators: one span per next(), info 1 when it yielded a candidate
GENERATORS = (
    ("memcat.models", "enumerate_candidates", "executions.enumerate"),
    ("memcat.executions", "enumerate_candidates", "executions.enumerate"),
    ("memcat.cli", "enumerate_candidates", "executions.enumerate"),
)


class Tracer:
    def __init__(self, call_id: int):
        self.call_id = call_id
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _enter(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name, info=None):
        def traced(*args, **kwargs):
            stack, sid, parent = self._enter()
            value = None
            c0, t0 = thread_time(), perf_counter()
            try:
                result = fn(*args, **kwargs)
                value = info(result) if info else None
                return result
            finally:
                t1, c1 = perf_counter(), thread_time()
                stack.pop()
                self.spans.append((sid, parent, self.call_id, name, t0, t1, c0, c1, value))

        return traced

    def wrap_generator(self, fn, name):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack, sid, parent = self._enter()
                c0, t0 = thread_time(), perf_counter()
                item = done = None
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    t1, c1 = perf_counter(), thread_time()
                    stack.pop()
                    self.spans.append(
                        (sid, parent, self.call_id, name, t0, t1, c0, c1, 0 if done else 1)
                    )
                if done:
                    return
                yield item

        return traced

    def install(self):
        for mod, attr, name, info in BINDINGS:
            module = importlib.import_module(mod)
            setattr(module, attr, self.wrap(getattr(module, attr), name, info))
        for mod, attr, name in GENERATORS:
            module = importlib.import_module(mod)
            setattr(module, attr, self.wrap_generator(getattr(module, attr), name))


def self_cpu(spans: list) -> dict:
    """span id -> cpu seconds not covered by its child spans."""
    own = {s[0]: s[7] - s[6] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[7] - s[6]
    return own


def covered(intervals: list) -> float:
    """Length of the union of [start, end] intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
