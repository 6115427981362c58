"""Outside-in span recorder for the host-cost benchmark.

The recorder wraps entry points of the program's layers from the
outside (module functions and class methods, patched in this process
only) and keeps every span in memory until the run ends. Nothing in
``src/`` is changed or imported differently.

Model
-----
* A *span* is one wrapped call. A plain call is one *interval*
  (start, end). A call that returns an effect generator is one
  interval per resumption: the time the generator runs is the layer's
  busy time, the time it is suspended (the runtime performing a socket
  or scheduler effect) is not, so a generator span never counts the
  runtime's time as its own.
* Each thread keeps a stack of open intervals; an interval's parent is
  the top of that stack when it opens. An interval opens only while
  the recorder is enabled or while a parent is open, so spans outside
  the measured window are never half-recorded.
* Self time is an interval's duration minus the durations of its child
  intervals. Intervals with no layer (the benchmark's op roots and
  connection-loop glue) put their self time into ``other``. Times are
  integer nanoseconds, so on every thread the layer self-times plus
  ``other`` equal the root intervals' total exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["SpanRecorder", "OTHER"]

OTHER = "other"

_now = time.perf_counter_ns


class _ThreadState:
    """Per-thread stack, spans and running aggregates."""

    __slots__ = ("name", "stack", "spans", "self_ns", "root_ns", "calls",
                 "counts")

    def __init__(self, name: str):
        self.name = name
        #: Open intervals: [interval id, start ns, child ns, parent].
        self.stack = []
        #: Closed intervals: (span id, interval id, parent interval id,
        #: layer, name, start ns, end ns, op id).
        self.spans = []
        self.self_ns = Counter()
        self.root_ns = 0
        self.calls = Counter()
        self.counts = Counter()


class SpanRecorder:
    """Wraps layer boundaries and records spans in memory."""

    def __init__(self):
        #: Roots may open only while enabled (the measured window).
        self.enabled = False
        #: Id of the op in flight; stamped on every span.
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._patches = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _open(self, state, nested_only):
        stack = state.stack
        if stack:
            parent = stack[-1]
        elif self.enabled and not nested_only:
            parent = None
        else:
            return None
        frame = [next(self._ids), _now(), 0, parent]
        stack.append(frame)
        return frame

    def _close(self, state, frame, layer, name, span_id):
        end = _now()
        state.stack.pop()
        interval, start, child, parent = frame
        duration = end - start
        state.self_ns[layer or OTHER] += duration - child
        state.calls[name] += 1
        if parent is None:
            state.root_ns += duration
            parent_id = 0
        else:
            parent[2] += duration
            parent_id = parent[0]
        state.spans.append(
            (span_id or interval, interval, parent_id, layer, name, start,
             end, self.op)
        )

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a named counter (only inside the measured window)."""
        if self.enabled:
            self._state().counts[key] += amount

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, layer, name, hook=None, nested_only=False):
        """Return a traced stand-in for ``fn``.

        ``hook(args, kwargs, result)`` runs after each completed call
        while the recorder is enabled (for counters such as bytes or
        cache hits). ``nested_only`` spans never open a root.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                result = yield from self.drive(
                    fn(*args, **kwargs), layer, name, nested_only
                )
                if hook is not None and self.enabled:
                    hook(args, kwargs, result)
                return result

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            frame = self._open(state, nested_only)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(state, frame, layer, name, 0)
            if hook is not None and self.enabled:
                hook(args, kwargs, result)
            return result

        return wrapper

    def drive(self, gen, layer, name, nested_only=False):
        """Run generator ``gen`` as a span: one interval per resumption."""
        span_id = next(self._ids)
        value, failure = None, None
        while True:
            state = self._state()
            frame = self._open(state, nested_only)
            try:
                if failure is not None:
                    step = gen.throw(failure)
                else:
                    step = gen.send(value)
            except StopIteration as stop:
                if frame is not None:
                    self._close(state, frame, layer, name, span_id)
                return stop.value
            except BaseException:
                if frame is not None:
                    self._close(state, frame, layer, name, span_id)
                raise
            if frame is not None:
                self._close(state, frame, layer, name, span_id)
            try:
                value, failure = (yield step), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into ``gen``
                value, failure = None, exc

    def patch(self, owner, attr, layer, name, hook=None,
              nested_only=False, adapt=None):
        """Replace ``owner.attr`` (a class or module) with a traced
        wrapper. A module function is also replaced wherever a loaded
        ``repro`` module imported it by name. ``adapt(recorder, fn)``
        may first decorate the original (e.g. to trace what it
        returns); :meth:`restore` puts back the undecorated original."""
        original = owner.__dict__[attr]
        target = adapt(self, original) if adapt else original
        wrapped = self.wrap(target, layer, name, hook, nested_only)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if module is owner or not getattr(
                    module, "__name__", ""
                ).startswith("repro"):
                    continue
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        return wrapped

    def restore(self) -> None:
        """Undo every patch (self-tests run in one process)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str = "op"):
        """A root span around one benchmark op on the calling thread."""
        state = self._state()
        frame = self._open(state, False)
        try:
            yield
        finally:
            if frame is not None:
                self._close(state, frame, None, name, 0)

    # -- results ----------------------------------------------------------------

    def threads(self):
        with self._lock:
            return list(self._threads)

    def open_intervals(self) -> int:
        return sum(len(state.stack) for state in self.threads())

    def summary(self) -> dict:
        """Merged aggregates plus the per-thread sum check."""
        self_ns, calls, counts = Counter(), Counter(), Counter()
        per_thread = []
        for state in self.threads():
            self_ns.update(state.self_ns)
            calls.update(state.calls)
            counts.update(state.counts)
            per_thread.append(
                {
                    "thread": state.name,
                    "root_ns": state.root_ns,
                    "self_ns": sum(state.self_ns.values()),
                    "spans": len(state.spans),
                }
            )
        return {
            "self_ns": dict(self_ns),
            "calls": dict(calls),
            "counts": dict(counts),
            "threads": per_thread,
            "balanced": all(
                t["root_ns"] == t["self_ns"] for t in per_thread
            ),
        }

    def recheck(self) -> bool:
        """Recompute self times from the raw spans and check that, per
        thread, they add up to the root intervals' total."""
        for state in self.threads():
            child = Counter()
            total = 0
            roots = 0
            for _, interval, parent, _, _, start, end, _ in state.spans:
                child[parent] += end - start
            for _, interval, parent, _, _, start, end, _ in state.spans:
                own = end - start - child[interval]
                if own < 0:
                    return False
                total += own
                if parent == 0:
                    roots += end - start
            if total != roots or total != state.root_ns:
                return False
        return True

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in self.threads():
                for span, interval, parent, layer, name, start, end, op in (
                    state.spans
                ):
                    out.write(
                        json.dumps(
                            {
                                "thread": state.name,
                                "span": span,
                                "interval": interval,
                                "parent": parent,
                                "layer": layer or OTHER,
                                "name": name,
                                "start_ns": start,
                                "end_ns": end,
                                "op": op,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written
