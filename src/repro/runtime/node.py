"""Threaded Tiamat nodes: opportunistic logical spaces over real threads.

A :class:`ThreadedNodeRegistry` plays the role of the network: it records
which nodes exist and which pairs are mutually visible.  Each
:class:`ThreadedTiamatNode` owns a :class:`ThreadSafeTupleSpace` and runs
its logical-space operations against the union of its own space and the
spaces of currently visible nodes — re-sampling visibility on every probe
round, which is exactly the opportunistic construction of section 2.2
(no connection or disconnection operations anywhere).

The transport is a method call: a remote probe enters the target node
through its serving plane (:meth:`~repro.runtime.base.RuntimeNode.serve_rdp`
/ ``serve_inp``), and a destructive take finds and removes the tuple in
one step under the target space's lock — there is no hold/confirm phase
to lose, so exactly-once consumption holds under real concurrency.

The registry, the serving plane, the tracing plane and the one
synchronous operation loop (probe first — local space, then the visible
peers — and only then park the calling thread on the local space's
condition variable) are the ones :mod:`repro.runtime.base` shares with
the aio runtime.  This module adds what only threads have: the
method-call transport, ``eval`` on a thread and leased telemetry rows.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.obs.telemetry import TELEMETRY_LEASE, TELEMETRY_PERIOD, health_row
from repro.runtime.base import NodeRegistry, RuntimeNode
from repro.tuples.model import Pattern, Tuple


class ThreadedNodeRegistry(NodeRegistry["ThreadedTiamatNode"]):
    """In-process 'network' (the in-process transport never serialises)."""


class ThreadedTiamatNode(RuntimeNode):
    """One node: a local space plus opportunistic logical operations."""

    def __init__(self, registry: ThreadedNodeRegistry, name: str) -> None:
        super().__init__(registry, name)
        self.telemetry_published = 0
        self._telemetry_epoch = 0
        self._telemetry_last: dict[str, int] = {}
        self._telemetry_stop: Optional[threading.Event] = None
        reg = registry.obs.registry
        space = self.space

        def space_events():
            yield (name, "deposit"), space.deposits
            yield (name, "consumed"), space.consumed

        reg.callback("runtime_space_events_total", space_events,
                     help="Deposits and consumptions per node's space.",
                     labels=("node", "event"), kind="counter", key=id(self))
        reg.callback("runtime_tuples_resident",
                     lambda: [((name,), space.count())],
                     help="Live tuples resident in each node's space.",
                     labels=("node",), key=id(self))
        registry.register(self)

    def _probe_peer(self, peer: RuntimeNode, pattern: Pattern, remove: bool,
                    req_ids: Dict[str, int]) -> Optional[Tuple]:
        """The transport: a call into the peer's serving plane."""
        return peer._serve(pattern, remove)

    def eval(self, fn, *args, lease_duration: Optional[float] = None) -> threading.Thread:
        """Active tuple: run ``fn(*args)`` on a thread, deposit its result."""
        def runner():
            op_id, tracer = self._trace_start("eval")
            result = fn(*args)
            if not isinstance(result, Tuple):
                raise TypeError(f"eval returned {result!r}, not a Tuple")
            self.space.out(result, lease_duration)
            self._count("eval", "ok")
            self._trace_end(tracer, op_id, result, "local")

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    # Telemetry plane: leased health rows for ``repro top``
    # ------------------------------------------------------------------
    def publish_telemetry(self, lease_duration: float = TELEMETRY_LEASE) -> None:
        """Deposit one leased ``("_telemetry", ...)`` health row now.

        Same row as the simulated runtime's
        :class:`~repro.obs.telemetry.TelemetryPublisher` (both build it
        with :func:`~repro.obs.telemetry.health_row`), but clocked by wall
        time, with no sheds, retransmits or utilisation to report.  The
        lease is the whole liveness story: a node that stops publishing
        has its rows reaped by expiry, so the collector sees it age out
        and flags it partitioned.
        """
        self._telemetry_epoch += 1
        current = {
            "ops": self.ops_started,
            "unsat": self.ops_unsatisfied,
            "sheds": 0,
            "retx": 0,
            "rexp": 0,
        }
        row = health_row(self.name, self._telemetry_epoch, current,
                         self._telemetry_last,
                         {"t": time.monotonic(),
                          "resident": self.space.count(), "pending": 0})
        self._telemetry_last = current
        self.space.out(row, lease_duration=lease_duration)
        self.telemetry_published += 1

    def start_telemetry(self, period: float = 1.0,
                        lease_duration: Optional[float] = None) -> None:
        """Publish a health row now and then every ``period`` seconds.

        Runs on a daemon thread until :meth:`stop_telemetry`.  The default
        lease is as many publish periods as ``TELEMETRY_LEASE`` is of
        ``TELEMETRY_PERIOD`` (2.5), comfortably over one beat (a single
        delayed beat does not flap the node partitioned) and safely under
        the collector's ``STALE_PERIODS`` cutoff.
        """
        if self._telemetry_stop is not None:
            return
        if lease_duration is None:
            lease_duration = period * TELEMETRY_LEASE / TELEMETRY_PERIOD
        stop = threading.Event()
        self._telemetry_stop = stop

        def beat():
            while True:
                self.publish_telemetry(lease_duration)
                if stop.wait(period):
                    return

        threading.Thread(target=beat, daemon=True,
                         name=f"telemetry-{self.name}").start()

    def stop_telemetry(self) -> None:
        """Stop the periodic publisher (existing rows expire naturally)."""
        if self._telemetry_stop is not None:
            self._telemetry_stop.set()
            self._telemetry_stop = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadedTiamatNode {self.name}>"
