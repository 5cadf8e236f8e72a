"""Span recorder for the traced run: timing wrappers set from outside.

Nothing under ``src/`` knows about this file.  The benchmark wraps the
public entry points of the objects it built (``registry.submit``,
``node.space.rdp``, ``space.store.find``, ...) by setting instance
attributes, and records one span per call: name, start, end and the span
that caused it.  A span's parent is the innermost open span on its own
thread, or — when the thread has none open, as on the aio loop thread
serving a sync-facade call — the driver's currently open span
(``Recorder.root``).  Spans of one handle call therefore share that
call's span as an ancestor; the trace file writes its id as ``op``.

Self time is aggregated as spans close (a child always closes before its
parent): ``self = duration - time covered by direct children``.  Only the
first ``keep`` raw spans are kept for the trace file.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable

#: Span-name prefix -> layer reported as ``trace.<layer>.self_us_per_op``.
LAYERS = {
    "op.": "op",
    "cycle": "driver",
    "runtime.aio.submit": "runtime.aio.submit",
    "serialization.frames.": "serialization.frames",
    "runtime.space.": "runtime.space",
    "tuples.space.": "tuples.space",
    "tuples.store.": "tuples.store",
    "leasing.negotiate": "leasing",
    "sim.kernel.run": "sim.kernel",
}


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYERS.items():
        if span_name.startswith(prefix):
            return layer
    raise KeyError(span_name)


class Recorder:
    """In-memory spans plus running per-name self-time totals."""

    def __init__(self, keep: int = 20000) -> None:
        self.keep = keep
        self.spans: list[tuple] = []      # (id, parent, name, start_ns, end_ns)
        self.total = 0
        self.self_ns: dict[str, int] = {}     # per span name, children excluded
        self.busy_ns: dict[str, int] = {}     # per span name, whole spans
        self.root = 0                     # the driver's open span, for other threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._children: dict[int, int] = {}
        self._lock = threading.Lock()

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, sid: int, parent: int, name: str, t0: int, t1: int) -> None:
        """Close a span: fold it into the totals, keep it if there is room."""
        dur = t1 - t0
        with self._lock:
            own = dur - self._children.pop(sid, 0)
            if parent:
                self._children[parent] = self._children.get(parent, 0) + dur
            self.self_ns[name] = self.self_ns.get(name, 0) + max(own, 0)
            self.busy_ns[name] = self.busy_ns.get(name, 0) + dur
            self.total += 1
            if len(self.spans) < self.keep:
                self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """``fn`` timed as a span.  ``root=True`` marks driver-level spans
        (cycle, handle call) that calls on other threads are parented to."""
        local, ids, add, clock = self._local, self._ids, self.add, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self.root
            sid = next(ids)
            stack.append(sid)
            if root:
                saved, self.root = self.root, sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if root:
                    self.root = saved
                add(sid, parent, name, t0, t1)

        return traced

    # ------------------------------------------------------------------
    def layer_us(self, table: dict[str, int]) -> dict[str, float]:
        """Fold ``self_ns`` or ``busy_ns`` by layer, in microseconds."""
        out: dict[str, float] = {}
        for name, ns in table.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + ns / 1e3
        return out

    def write(self, path, **header: Any) -> None:
        """Dump the kept spans; ``op`` is the handle call a span belongs to."""
        parents = {sid: parent for sid, parent, *_ in self.spans}
        names = {sid: name for sid, _, name, *_ in self.spans}

        def op_of(sid: int) -> int:
            while sid and not names.get(sid, "").startswith("op."):
                sid = parents.get(sid, 0)
            return sid

        base = min((s[3] for s in self.spans), default=0)
        doc = dict(header, spans_total=self.total, spans_written=len(self.spans),
                   spans=[{"id": sid, "parent": parent, "op": op_of(sid),
                           "name": name,
                           "start_us": (t0 - base) / 1e3,
                           "end_us": (t1 - base) / 1e3}
                          for sid, parent, name, t0, t1 in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class Patches:
    """Instance-attribute patches that can be taken off again."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, obj: Any, attr: str, value: Any) -> None:
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def wrap(self, rec: Recorder, obj: Any, attr: str, name: str) -> None:
        self.set(obj, attr, rec.wrap(name, getattr(obj, attr)))

    def undo(self) -> None:
        for obj, attr, had, original in reversed(self._undo):
            if had:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._undo.clear()


class FramesProxy:
    """Stands in for ``registry.frames`` so encode/decode become spans."""

    def __init__(self, rec: Recorder, frames: Any) -> None:
        self.name = frames.name
        self.encode_into = rec.wrap("serialization.frames.encode", frames.encode_into)
        self.decode = rec.wrap("serialization.frames.decode", frames.decode)
