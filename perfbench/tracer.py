"""Span tracing from outside the program.

`Tracer.patch` replaces a function at the name its callers look up (a module
global, a class attribute or a dict entry) with a wrapper that records one
span per call: name, start, end, parent span and one optional number (tokens,
cells, bytes, a hit or a failure). Spans stay in memory; `layer_metrics`
derives calls, total and self time and the summed numbers per cycle of the
benchmark, and `write` saves the spans when the run ends. Calls are assumed
to come from one thread, which holds while the pipeline runs with jobs = 1.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.cycles: list[int] = []  # index of the first span of each cycle
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._labels: dict[str, str] = {}  # span name -> label of its number

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, measure=None):
        """A wrapper for `fn` that records a span named `name`. `measure` is
        (label, function of args, result and error) for the span's number,
        which is summed per cycle as `name.label`."""
        name_id = self._name_id(name)
        if measure is not None:
            self._labels[name] = measure[0]
            measure = measure[1]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.value.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            result = error = None
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
                if measure is not None:
                    self.value[idx] = measure(args, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set `owner.attr` (or `owner[attr]` for a dict) until `restore`."""
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Trace calls to `owner.attr` until `restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, measure))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def begin_cycle(self) -> None:
        self.cycles.append(len(self.start))

    def _cycle_metrics(self, lo: int, hi: int) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        values: dict[str, float] = defaultdict(float)
        has_child: dict[int, set] = defaultdict(set)
        names = self.names
        for i in range(lo, hi):
            name = names[self.name_of[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += duration
            values[name] += self.value[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += duration
                has_child[p].add(name)
        self_time: dict[str, float] = defaultdict(float)
        parents_of: dict[tuple[str, str], int] = defaultdict(int)
        for i in range(lo, hi):
            name = names[self.name_of[i]]
            self_time[name] += self.end[i] - self.start[i] - child.get(i, 0.0)
            for c in has_child.get(i, ()):
                parents_of[(name, c)] += 1
        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
            if name in self._labels:
                out[f"{name}.{self._labels[name]}"] = values.get(name, 0.0)
        out["history.methods_at.misses"] = parents_of.get(("history.methods_at", "gitrepo.file_at"), 0)
        return out

    def layer_metrics(self) -> list[dict[str, float]]:
        """Metrics of every cycle begun with `begin_cycle`."""
        bounds = self.cycles + [len(self.start)]
        return [self._cycle_metrics(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines: name, start, end, parent, value."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "cycles": self.cycles}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.name_of[i], self.start[i], self.end[i],
                                     self.parent[i], self.value[i]]) + "\n")


def median_metrics(per_cycle: list[dict[str, float]]) -> dict[str, float]:
    keys = per_cycle[0].keys() if per_cycle else ()
    return {k: statistics.median(c[k] for c in per_cycle) for k in keys}
