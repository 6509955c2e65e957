"""In-memory span tracer that instruments a package from the outside.

A span is (name, start, end, parent) and is recorded around a call to a
module attribute that `patch` rebinds to a timing wrapper; `restore`
puts the original functions back.  Spans stay in memory, one column per
field, until the run writes them out.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, so work fanned out
to a thread pool is charged to the call that fanned it out.  Self time
is a span's duration minus the union of its children's intervals: the
children of one span may overlap when they ran on several threads.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        # One entry per traced iteration: first span index, counters, key sets.
        self.iterations: list[tuple[int, Counter, dict[str, set]]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, stack: list[int]) -> int:
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(sid)
        return sid

    def patch(self, module, attr: str, span: str, hook=None) -> None:
        """Rebind module.attr to a wrapper recording a span named `span`.

        `hook(counts, keys, result, *args, **kwargs)` runs after the call,
        under the tracer's lock, with the current iteration's counters.
        """
        original = getattr(module, attr)
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]

        @wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = self._open(name_id, stack)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                _, counts, keys = self.iterations[-1]
                with self._lock:
                    hook(counts, keys, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_iteration(self) -> None:
        self.iterations.append((len(self.start), Counter(), defaultdict(set)))

    # -- analysis --------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Duration of every span minus the union of its children's intervals."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = end - start
        covered = np.zeros_like(own)
        children = np.flatnonzero(parent >= 0)
        order = children[np.lexsort((start[children], parent[children]))]
        current, reach = -1, 0.0
        for i in order.tolist():
            p = int(parent[i])
            if p != current:
                current, reach = p, start[p]
            lo = max(start[i], reach)
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach = hi
        return own - covered

    def iteration_slices(self) -> list[slice]:
        bounds = [first for first, _, _ in self.iterations] + [len(self.start)]
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())
