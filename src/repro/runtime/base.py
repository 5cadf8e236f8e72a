"""What the threaded and asyncio runtimes share, written once.

The two real-substrate runtimes differ only in how a probe reaches a peer
(a method call, or a UDP datagram).  What is *not* transport lives here:
:class:`NodeRegistry` (who exists, who sees whom, obs hub) and
:class:`RuntimeNode` (a local space, the serving plane a peer's probe
enters, the counters and metric families both export, the tracer
plumbing, and the one synchronous operation loop).
:mod:`repro.runtime.node` and :mod:`repro.runtime.aio` subclass these and
add their transport (:meth:`RuntimeNode._probe_peer`); aio adds the
loop's async twin.  Neither reads a :class:`~repro.core.config.TiamatConfig`
and neither gates its serving plane: overload handling by lease is the
simulated protocol's (:mod:`repro.core.admission`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Generic, Iterable, List, Optional, TypeVar

from repro.obs import Observability
from repro.obs.telemetry import NodeHealth, collect_cluster_health
from repro.runtime.space import ThreadSafeTupleSpace
from repro.tuples.model import Pattern, Tuple

N = TypeVar("N", bound="RuntimeNode")   # the registry's node class


class NodeRegistry(Generic[N]):
    """The runtime's 'network': node registry plus a visibility relation.

    Owns the :class:`~repro.obs.hub.Observability` hub (``registry.obs``):
    a **thread-safe** metrics registry clocked by wall time, which every
    member node feeds.
    """

    def __init__(self) -> None:
        self.obs = Observability(clock=time.monotonic, thread_safe=True)
        self._lock = threading.Lock()
        self._nodes: Dict[str, N] = {}
        # name -> names declared visible from it (maybe not registered yet)
        self._visible: Dict[str, set] = {}

    def register(self, node: N) -> None:
        """Attach a node (idempotent by name)."""
        with self._lock:
            self._nodes[node.name] = node

    def set_visible(self, a: str, b: str, visible: bool = True) -> None:
        """Set or clear mutual visibility between two nodes."""
        if a == b:
            return
        with self._lock:
            for name, other in ((a, b), (b, a)):
                peers = self._visible.setdefault(name, set())
                if visible:
                    peers.add(other)
                else:
                    peers.discard(other)

    def visible_nodes(self, name: str) -> List[N]:
        """The registered nodes currently visible from ``name``, by name."""
        with self._lock:
            nodes = self._nodes
            return [nodes[peer] for peer in sorted(self._visible.get(name, ()))
                    if peer in nodes]

    def all_nodes(self) -> List[N]:
        """Every registered node (sorted by name)."""
        with self._lock:
            return [self._nodes[name] for name in sorted(self._nodes)]

    def cluster_health(self, period: float = 1.0,
                       expected: Optional[Iterable[str]] = None
                       ) -> Dict[str, NodeHealth]:
        """Aggregate every member's telemetry rows into per-node health.

        The same :func:`repro.obs.telemetry.collect_cluster_health` model
        as the simulated runtime — rows are read from the members' spaces
        (lease expiry has already reclaimed dead publishers), ``expected``
        defaults to every registered node so a member that never managed
        to publish shows up ``partitioned`` instead of vanishing.
        """
        nodes = self.all_nodes()
        if expected is None:
            expected = [node.name for node in nodes]
        return collect_cluster_health((node.space for node in nodes),
                                      now=time.monotonic(), period=period,
                                      expected=expected)


class RuntimeNode:
    """One node: a local space, the serving plane, and the synchronous
    operations, run on the caller's thread.  Subclasses add the
    transport — :meth:`_probe_peer`, how one probe reaches one peer — and
    ``registry.register(self)`` once peers can reach them.

    A blocking ``rd``/``in_`` runs, on both runtimes, this one loop:
    (1) a non-blocking local check; (2) one round over the currently
    visible peers, through their serving planes; (3) the deadline check;
    (4) a park of ``min(POLL_INTERVAL, remaining)`` on the
    local space's condition variable, which a local ``out`` ends early;
    (5) repeat.  ``rdp``/``inp`` are steps (1) and (2).  A tuple already in
    reach never waits on a timer.  The aio ``a_rd``/``a_in`` coroutines
    are the loop's async twin (``AioTiamatNode._a_blocking``)."""

    #: How long a *parked* blocking operation sleeps before it re-samples
    #: visibility and probes again; it delays neither the first round nor
    #: a local deposit.
    POLL_INTERVAL = 0.005

    def __init__(self, registry: "NodeRegistry[Any]", name: str) -> None:
        self.registry = registry
        self.name = name
        self.space = ThreadSafeTupleSpace(name)
        # plain counters, cheap to read back (the metrics below are for export)
        self.ops_started = 0
        self.ops_unsatisfied = 0
        reg = registry.obs.registry
        self._ops_metric = reg.counter(
            "runtime_ops_total",
            help="Logical operations by node, operation, and outcome.",
            labels=("node", "op", "outcome"))
        self._serve_metric = reg.counter(
            "runtime_serve_total",
            help="Remote probes served by each node.",
            labels=("node", "outcome"))
        self._wait_hist = reg.histogram(
            "runtime_blocking_wait_seconds",
            help="Wall-clock wait of blocking rd/in operations.",
            labels=("node",)).labels(node=name)
        self._op_lock = threading.Lock()
        self._op_seq = 0

    def _count(self, op: str, outcome: str) -> None:
        self._ops_metric.labels(node=self.name, op=op, outcome=outcome).inc()

    # ------------------------------------------------------------------
    # Tracing plane: wall-clock op timelines for ``repro trace --chrome``
    # ------------------------------------------------------------------
    def _trace_start(self, kind: str):
        """Mint an op id and record op_start when a tracer is installed.

        The registry's hub owns the tracer (``registry.obs.start_trace``,
        thread-safe); this node feeds its one input, :meth:`Tracer.record
        <repro.obs.tracing.Tracer.record>`, with the flight recorder's
        event codes on ``time.monotonic``.  With none installed this is
        two attribute reads and no allocation.
        """
        self.ops_started += 1
        tracer = self.registry.obs.tracer
        if tracer is None:
            return None, None
        with self._op_lock:
            self._op_seq += 1
            op_id = f"{self.name}@{self._op_seq}"
        tracer.record(self.name, time.monotonic(), "op_start", op_id, kind)
        return op_id, tracer

    def _trace_end(self, tracer, op_id: Optional[str],
                   result: Optional[Tuple], source: Optional[str]) -> None:
        if result is None:
            self.ops_unsatisfied += 1
        if tracer is not None:
            tracer.record(self.name, time.monotonic(), "op_end", op_id, None,
                          source, "ok" if result is not None else "miss")

    # ------------------------------------------------------------------
    # The synchronous operations, on the caller's thread
    # ------------------------------------------------------------------
    def _probe_peer(self, peer: Any, pattern: Pattern, remove: bool,
                    req_ids: Dict[str, int]) -> Optional[Tuple]:
        """The transport: probe one peer (a node of this runtime) through
        its serving plane; a tuple or ``None``.  ``req_ids`` lives as long
        as the operation (aio keeps one request id per peer in it)."""
        raise NotImplementedError

    def _probe_peers(self, pattern: Pattern, remove: bool,
                     op_id: Optional[str], tracer,
                     req_ids: Dict[str, int]):
        """One round over the currently visible peers: ``(tuple, source)``.

        With a tracer installed, a hit is recorded on the peer as
        ``serve_started`` so the waterfall and Chrome export show who
        answered.
        """
        for peer in self.registry.visible_nodes(self.name):
            found = self._probe_peer(peer, pattern, remove, req_ids)
            if found is not None:
                if tracer is not None:
                    tracer.record(peer.name, time.monotonic(),
                                  "serve_started", op_id, None, self.name,
                                  "hit")
                return found, peer.name
        return None, None

    def out(self, tup: Tuple, lease_duration: Optional[float] = None) -> None:
        """Deposit into the local space (default scope, section 2.2)."""
        op_id, tracer = self._trace_start("out")
        self.space.out(tup, lease_duration)
        self._count("out", "ok")
        self._trace_end(tracer, op_id, tup, "local")

    def rdp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking read: a zero lease, so one local check, one round."""
        return self._blocking("rdp", pattern, remove=False, timeout=0.0)

    def inp(self, pattern: Pattern) -> Optional[Tuple]:
        """Non-blocking take: a zero lease, so one local check, one round."""
        return self._blocking("inp", pattern, remove=True, timeout=0.0)

    def rd(self, pattern: Pattern, timeout: float = 5.0) -> Optional[Tuple]:
        """Blocking read: local, then peers, then park; until lease end."""
        return self._blocking("rd", pattern, remove=False, timeout=timeout)

    def in_(self, pattern: Pattern, timeout: float = 5.0) -> Optional[Tuple]:
        """Blocking take: local, then peers, then park; until lease end."""
        return self._blocking("in", pattern, remove=True, timeout=timeout)

    def _blocking(self, op: str, pattern: Pattern, remove: bool,
                  timeout: float) -> Optional[Tuple]:
        """The blocking loop of the class docstring."""
        op_id, tracer = self._trace_start(op)
        space = self.space
        started = time.monotonic()
        deadline = started + timeout
        req_ids: Dict[str, int] = {}
        found = space.inp(pattern) if remove else space.rdp(pattern)
        source: Optional[str] = "local"
        while found is None:
            found, source = self._probe_peers(pattern, remove, op_id, tracer,
                                              req_ids)
            remaining = deadline - time.monotonic()
            if found is not None or remaining <= 0:
                break
            # The park re-checks the store under the space lock before it
            # waits, so it is also the next round's local check.
            wait = min(self.POLL_INTERVAL, remaining)
            found = (space.in_(pattern, timeout=wait) if remove
                     else space.rd(pattern, timeout=wait))
            source = "local"
        if timeout > 0:     # a zero lease never waits
            self._wait_hist.observe(time.monotonic() - started)
        self._count(op, "hit" if found is not None else "miss")
        self._trace_end(tracer, op_id, found, source)
        return found

    # ------------------------------------------------------------------
    # Serving plane: how *peers* enter this node
    # ------------------------------------------------------------------
    def _serve(self, pattern: Pattern, remove: bool) -> Optional[Tuple]:
        """Serve one peer probe from the local space: a tuple or ``None``."""
        found = self.space.inp(pattern) if remove else self.space.rdp(pattern)
        self._serve_metric.labels(node=self.name, outcome="served").inc()
        return found

    def serve_rdp(self, pattern: Pattern) -> Optional[Tuple]:
        """Serve a peer's non-destructive probe."""
        return self._serve(pattern, False)

    def serve_inp(self, pattern: Pattern) -> Optional[Tuple]:
        """Serve a peer's destructive probe."""
        return self._serve(pattern, True)
