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

The registry, the admission-controlled serving gate (``SHED``) and the
origin's per-peer shed back-off are the ones :mod:`repro.runtime.base`
shares with the aio runtime.  This module adds what only threads have:
the tracing plane, leased telemetry rows, and a blocking loop that probes
first (local space, then the visible peers) and only then parks the
calling thread on the local space's condition variable until the next round.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Optional

from repro.obs.telemetry import TELEMETRY_TAG
from repro.runtime.base import SHED, NodeRegistry, RuntimeNode
from repro.tuples.model import Pattern, Tuple


class ThreadedNodeRegistry(NodeRegistry["ThreadedTiamatNode"]):
    """In-process 'network' (the in-process transport never serialises;
    byte *accounting* and conformance harnesses read ``registry.codec``)."""


class ThreadedTiamatNode(RuntimeNode):
    """One node: a local space plus opportunistic logical operations."""

    def __init__(self, registry: ThreadedNodeRegistry, name: str, *,
                 max_concurrent_serves: Optional[int] = None) -> None:
        super().__init__(registry, name,
                         max_concurrent_serves=max_concurrent_serves)
        self.telemetry_published = 0
        self._op_lock = threading.Lock()
        self._op_seq = 0
        self._telemetry_epoch = 0
        self._telemetry_last: dict[str, int] = {}
        self._telemetry_stop: Optional[threading.Event] = None
        reg = registry.obs.registry
        self._wait_hist = reg.histogram(
            "runtime_blocking_wait_seconds",
            help="Wall-clock wait of blocking rd/in operations.",
            labels=("node",)).labels(node=name)
        space = self.space

        def space_events():
            yield (name, "deposit"), space.deposits
            yield (name, "consumed"), space.consumed

        reg.callback("runtime_space_events_total", space_events,
                     help="Deposits and consumptions per node's space.",
                     labels=("node", "event"), kind="counter", key=id(self))
        reg.callback("runtime_tuples_resident",
                     lambda: [((name,), space.store.visible_count)],
                     help="Live tuples resident in each node's space.",
                     labels=("node",), key=id(self))
        registry.register(self)

    # ------------------------------------------------------------------
    # Tracing plane: wall-clock op timelines for ``repro trace --chrome``
    # ------------------------------------------------------------------
    def _trace_start(self, kind: str):
        """Mint an op id and record op_start when a tracer is installed.

        The registry's hub owns the tracer (``registry.obs.start_trace``,
        thread-safe, clocked by ``time.monotonic``); with none installed
        this is two attribute reads and no allocation.
        """
        self.ops_started += 1
        tracer = self.registry.obs.tracer
        if tracer is None:
            return None, None
        with self._op_lock:
            self._op_seq += 1
            op_id = f"{self.name}@{self._op_seq}"
        tracer.op_started(op_id, self.name, kind)
        return op_id, tracer

    def _trace_end(self, tracer, op_id: Optional[str],
                   result: Optional[Tuple], source: Optional[str]) -> None:
        if result is None:
            self.ops_unsatisfied += 1
        if tracer is not None and op_id is not None:
            tracer.op_finished(op_id, self.name, result is not None, source)

    # ------------------------------------------------------------------
    # Transport: a probe is a call into the peer's serving plane
    # ------------------------------------------------------------------
    def _peer_probe(self, peer: RuntimeNode, pattern: Pattern,
                    remove: bool, op_id: Optional[str] = None,
                    tracer=None) -> Optional[Tuple]:
        """Probe one peer through its serving gate, honouring backoff.

        A shed answer is treated as a miss.  With a tracer installed, the
        verdict is recorded against the peer's span so the waterfall and
        Chrome export show who shed or answered.
        """
        now = time.monotonic()
        if self._backing_off(peer.name, now):
            return None
        result = peer._serve(pattern, remove)
        shed = result is SHED
        self._note_answer(peer.name, shed, now)
        if tracer is not None and op_id is not None:
            if shed:
                tracer.note(op_id, peer.name, "serve", outcome="shed")
            elif result is not None:
                tracer.note(op_id, peer.name, "serve",
                            outcome="hit", remove=remove)
        return None if shed else result

    def _probe_peers(self, pattern: Pattern, remove: bool,
                     op_id: Optional[str], tracer):
        """One round over the currently visible peers: ``(tuple, source)``."""
        for peer in self.registry.visible_nodes(self.name):
            found = self._peer_probe(peer, pattern, remove, op_id, tracer)
            if found is not None:
                return found, peer.name
        return None, None

    # ------------------------------------------------------------------
    # The six operations
    # ------------------------------------------------------------------
    def out(self, tup: Tuple, lease_duration: Optional[float] = None) -> None:
        """Deposit into the local space (default scope, section 2.2)."""
        op_id, tracer = self._trace_start("out")
        self.space.out(tup, lease_duration)
        self._count("out", "ok")
        self._trace_end(tracer, op_id, tup, "local")

    def _poll(self, op: str, pattern: Pattern, remove: bool) -> Optional[Tuple]:
        op_id, tracer = self._trace_start(op)
        found = self.space.inp(pattern) if remove else self.space.rdp(pattern)
        source: Optional[str] = "local"
        if found is None:
            found, source = self._probe_peers(pattern, remove, op_id, tracer)
        self._count(op, "hit" if found is not None else "miss")
        self._trace_end(tracer, op_id, found, source)
        return found

    def rdp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking read over the current logical space."""
        return self._poll("rdp", pattern, remove=False)

    def inp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking take over the current logical space."""
        return self._poll("inp", pattern, remove=True)

    def rd(self, pattern: Pattern, timeout: float = 5.0) -> Optional[Tuple]:
        """Blocking read: local, then peers, then park; until lease end."""
        return self._timed_blocking("rd", pattern, remove=False,
                                    timeout=timeout)

    def in_(self, pattern: Pattern, timeout: float = 5.0) -> Optional[Tuple]:
        """Blocking take: local, then peers, then park; until lease end."""
        return self._timed_blocking("in", pattern, remove=True,
                                    timeout=timeout)

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
    def publish_telemetry(self, lease_duration: float = 2.5) -> None:
        """Deposit one leased ``("_telemetry", ...)`` health row now.

        Same row shape as the simulated runtime's
        :class:`~repro.obs.telemetry.TelemetryPublisher` — windowed deltas
        since the previous row plus instantaneous gauges — but clocked by
        wall time.  The lease is the whole liveness story: a node that
        stops publishing has its rows reaped by expiry, so the collector
        sees it age out and flags it partitioned.
        """
        self._telemetry_epoch += 1
        current = {
            "ops": self.ops_started,
            "unsat": self.ops_unsatisfied,
            "sheds": self.sheds,
            "retx": 0,
            "rexp": 0,
        }
        payload: dict = {f"{key}_w": value - self._telemetry_last.get(key, 0)
                         for key, value in current.items()}
        self._telemetry_last = current
        payload["t"] = time.monotonic()
        payload["resident"] = self.space.count()
        payload["pending"] = 0
        row = Tuple(TELEMETRY_TAG, self.name, self._telemetry_epoch,
                    json.dumps(payload, separators=(",", ":"),
                               sort_keys=True))
        self.space.out(row, lease_duration=lease_duration)
        self.telemetry_published += 1

    def start_telemetry(self, period: float = 1.0,
                        lease_duration: Optional[float] = None) -> None:
        """Publish a health row now and then every ``period`` seconds.

        Runs on a daemon thread until :meth:`stop_telemetry`.  The default
        lease is 2.5 publish periods, comfortably over one beat (a single
        delayed beat does not flap the node partitioned) and safely under
        the collector's ``STALE_PERIODS`` cutoff.
        """
        if self._telemetry_stop is not None:
            return
        if lease_duration is None:
            lease_duration = 2.5 * period
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

    # ------------------------------------------------------------------
    def _timed_blocking(self, op: str, pattern: Pattern, remove: bool,
                        timeout: float) -> Optional[Tuple]:
        op_id, tracer = self._trace_start(op)
        started = time.monotonic()
        result, source = self._blocking(pattern, remove=remove,
                                        timeout=timeout, op_id=op_id,
                                        tracer=tracer)
        self._wait_hist.observe(time.monotonic() - started)
        self._count(op, "hit" if result is not None else "miss")
        self._trace_end(tracer, op_id, result, source)
        return result

    def _blocking(self, pattern: Pattern, remove: bool, timeout: float,
                  op_id: Optional[str] = None, tracer=None):
        """The :class:`RuntimeNode` blocking order; ``(tuple, source)``."""
        space = self.space
        deadline = time.monotonic() + timeout
        local = space.inp(pattern) if remove else space.rdp(pattern)
        while local is None:
            # Through the serving gates, so a saturated peer sheds us into
            # a per-peer backoff instead of being hammered.
            found, source = self._probe_peers(pattern, remove, op_id, tracer)
            remaining = deadline - time.monotonic()
            if found is not None or remaining <= 0:
                return found, source
            # The park re-checks the store under the space lock before it
            # waits, so it is also the next round's local check.
            wait = min(self.POLL_INTERVAL, remaining)
            local = (space.in_(pattern, timeout=wait) if remove
                     else space.rd(pattern, timeout=wait))
        return local, "local"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadedTiamatNode {self.name}>"
