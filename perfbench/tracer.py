"""Spans around the program's public functions, kept in memory.

A span holds an id, a name, start and end (perf_counter seconds) and the id
of the span that was open when it began. Wrappers are installed on the module
attributes where the program's callers look the functions up, and recording
only happens while the tracer is active, so the benchmark's own checks leave
no spans. A function that no longer exists is listed as absent.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _resolve(module_name, attr_path):
    """(owner, attribute name) for 'Class.method' or 'function' in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    getattr(owner, attr)
    return owner, attr


class Patches:
    """Replaced attributes, restored by restore()."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def wrap(self, module_name, attr_path, make_wrapper):
        try:
            owner, attr = _resolve(module_name, attr_path)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr_path}")
            return False
        original = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent)
        self.active = False
        self.counters = defaultdict(float)
        self._stack = []
        self.open_names = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.open_names.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.open_names.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrapper(self, name, after=None):
        """Factory for Patches.wrap: time each call as span `name`; after(args,
        kwargs, result) runs outside the span, for counters."""
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def summary(self):
        """{name: {calls, total_s, self_s}}; self time is the span's duration
        minus the time its direct children cover."""
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def durations(self, name, exclude_under=None):
        """Durations of spans called `name`, leaving out any nested (at any
        depth) inside a span called `exclude_under`."""
        under = self._ancestry(exclude_under)
        return [end - start for sid, n, start, end, parent in self.spans
                if n == name and not under(parent)]

    def count_under(self, name, ancestor):
        """How many `name` spans sit (at any depth) under an `ancestor` span."""
        under = self._ancestry(ancestor)
        return sum(1 for _, n, _, _, parent in self.spans if n == name and under(parent))

    def _ancestry(self, ancestor):
        """Predicate: does span id `sid`, or one of its ancestors, carry the name `ancestor`?"""
        names = {sid: n for sid, n, *_ in self.spans}
        parents = {sid: p for sid, _, _, _, p in self.spans}

        def under(sid):
            while sid is not None:
                if names[sid] == ancestor:
                    return True
                sid = parents[sid]
            return False

        return under

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "summary": self.summary(), "counters": dict(self.counters),
                       "spans": self.spans}, f)
