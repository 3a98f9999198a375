"""Span recorder and per-module wrappers for the traced benchmark run.

The traced run measures the csext layers from outside: it replaces every
public function of each layer module, and every from-import binding of that
function in other csext modules, with a wrapper that records one span per
call.  Spans live in flat arrays while the workload runs and are written out
once it ends.  `Tracer.uninstall` puts every original function back.

A generator function's span covers only the creation of the generator; the
time spent iterating it is charged to the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

PACKAGE = "csext"
LAYERS = ("ffla", "specht", "harness", "oracle", "combinatorics", "cli")

NO_PARENT = -1


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run_id: str


class SpanRecorder:
    """Spans of one run: name, start, end, parent span id and run id.

    A span's id is its index.  The parent is the span that was open when it
    started, or NO_PARENT for a root span.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def rename(self, sid: int, name: str) -> None:
        self.name_id[sid] = self.intern(name)

    def spans(self):
        for i in range(len(self)):
            yield Span(self.names[self.name_id[i]], self.start[i], self.end[i],
                       self.parent[i], self.run_id)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, parent ids, durations) as numpy arrays."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32), dur)

    def write(self, path: Path) -> None:
        """Write the spans to one .npz, with the run id and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            meta=np.array(json.dumps({"run_id": self.run_id, "names": self.names})),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so the covered time is
    the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def by_name(names: list[str], name_id: np.ndarray, parent: np.ndarray,
            dur: np.ndarray) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    selfs = self_times(parent, dur)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=selfs, minlength=k)
    return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(names)}


# An observer sees each finished call: (tracer, span id, args, kwargs,
# result, exception).  It records counters at the layer boundary.
Observer = Callable[["Tracer", int, tuple, dict, object, BaseException | None], None]


class Tracer:
    """Installs span-recording wrappers on the csext layer modules."""

    def __init__(self, recorder: SpanRecorder, observers: dict[str, Observer]):
        self.recorder = recorder
        self.observers = observers
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def _wrap(self, fn, name: str):
        rec = self.recorder
        nid = rec.intern(name)
        name_id, parent, start, end, stack = rec.name_id, rec.parent, rec.start, rec.end, rec.stack
        clock = time.perf_counter
        observe = self.observers.get(name)
        tracer = self

        # Opens and closes the span inline rather than through recorder
        # methods: this runs on each of millions of small combinatorics calls.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else NO_PARENT)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                stack.pop()
                if observe is not None:
                    observe(tracer, sid, args, kwargs, None, exc)
                raise
            end[sid] = clock()
            stack.pop()
            if observe is not None:
                observe(tracer, sid, args, kwargs, result, None)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        # Rebind the function in its own module and every from-import binding.
        for mod in modules:
            for attr, val in vars(mod).copy().items():
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
