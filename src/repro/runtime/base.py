"""What the threaded and asyncio runtimes share, written once.

The two real-substrate runtimes differ only in how a probe reaches a peer
(a method call, or a UDP datagram).  What is *not* transport lives here:
:class:`NodeRegistry` (who exists, who sees whom, config, obs hub)
and :class:`RuntimeNode` (a local space, the admission-controlled serving
plane and its :data:`SHED` verdict, the origin's capped per-peer back-off,
the counters and metric families both export, the tracer plumbing, and
the one synchronous operation loop).  :mod:`repro.runtime.node` and
:mod:`repro.runtime.aio` subclass these and add their transport
(:meth:`RuntimeNode._probe_peer`); aio adds the loop's async twin.
"""

from __future__ import annotations

import threading
import time
from typing import (TYPE_CHECKING, Any, Dict, Generic, Iterable, List,
                    Optional, TypeVar, Union)

from repro.obs import Observability
from repro.obs.telemetry import NodeHealth, collect_cluster_health
from repro.runtime.space import ThreadSafeTupleSpace
from repro.tuples.model import Pattern, Tuple

if TYPE_CHECKING:  # pragma: no cover - type hint only, no runtime import
    from repro.core.config import TiamatConfig


class _ShedType:
    """Sentinel type for :data:`SHED` (falsy, unique, self-describing)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SHED"

    def __bool__(self) -> bool:
        return False


#: Returned by the serving plane when the node sheds a probe instead of
#: serving it (concurrent serving budget exhausted).  Falsy, so callers
#: that only distinguish "got a tuple or not" keep working; callers that
#: care (the origin poll loops) check identity and back off.
SHED = _ShedType()

N = TypeVar("N", bound="RuntimeNode")   # the registry's node class


class NodeRegistry(Generic[N]):
    """The runtime's 'network': node registry plus a visibility relation.

    Owns the :class:`~repro.obs.hub.Observability` hub (``registry.obs``):
    a **thread-safe** metrics registry clocked by wall time, which every
    member node feeds.
    """

    def __init__(self, *, config: Optional["TiamatConfig"] = None) -> None:
        from repro.core.config import TiamatConfig
        self.config = config if config is not None else TiamatConfig()
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
    """One node: a local space, a gated serving plane, shed back-off, and
    the synchronous operations, run on the caller's thread.  Subclasses
    add the transport — :meth:`_probe_peer`, how one probe reaches one
    peer — and ``registry.register(self)`` once peers can reach them.

    A blocking ``rd``/``in_`` runs, on both runtimes, this one loop:
    (1) a non-blocking local check; (2) one round over the currently
    visible peers, through their gates and this node's back-off; (3) the
    deadline check; (4) a park of ``min(POLL_INTERVAL, remaining)`` on the
    local space's condition variable, which a local ``out`` ends early;
    (5) repeat.  ``rdp``/``inp`` are steps (1) and (2).  A tuple already in
    reach never waits on a timer.  The aio ``a_rd``/``a_in`` coroutines
    are the loop's async twin (``AioTiamatNode._a_blocking``)."""

    #: How long a *parked* blocking operation sleeps before it re-samples
    #: visibility and probes again; it delays neither the first round nor
    #: a local deposit.
    POLL_INTERVAL = 0.005
    #: Cap on the per-peer backoff an origin applies after being shed.
    SHED_BACKOFF_MAX = 0.25

    def __init__(self, registry: "NodeRegistry[Any]", name: str, *,
                 max_concurrent_serves: Optional[int] = None) -> None:
        if max_concurrent_serves is not None and max_concurrent_serves < 1:
            raise ValueError("max_concurrent_serves must be >= 1 or None")
        self.registry = registry
        self.name = name
        self.space = ThreadSafeTupleSpace(name)
        self.max_concurrent_serves = max_concurrent_serves
        self._serve_lock = threading.Lock()
        self._active_serves = 0
        # peer name -> (shed streak, monotonic time before which we skip it)
        self._peer_backoff: Dict[str, tuple] = {}
        # plain counters, cheap to read back (the metrics below are for export)
        self.ops_started = 0
        self.ops_unsatisfied = 0
        self.sheds = 0
        reg = registry.obs.registry
        self._ops_metric = reg.counter(
            "runtime_ops_total",
            help="Logical operations by node, operation, and outcome.",
            labels=("node", "op", "outcome"))
        self._serve_metric = reg.counter(
            "runtime_serve_total",
            help="Remote probes served or shed by each node.",
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
                    req_ids: Dict[str, int]
                    ) -> Union[Optional[Tuple], _ShedType]:
        """The transport: probe one peer (a node of this runtime) through
        its serving gate unless it is backing this node off; a tuple,
        ``None`` or :data:`SHED`.  ``req_ids`` lives as long as the
        operation (aio keeps one request id per peer in it)."""
        raise NotImplementedError

    def _probe_peers(self, pattern: Pattern, remove: bool,
                     op_id: Optional[str], tracer,
                     req_ids: Dict[str, int]):
        """One round over the currently visible peers: ``(tuple, source)``.

        With a tracer installed, each verdict is recorded on the peer
        (``shed``, or ``serve_started`` for a hit) so the waterfall and
        Chrome export show who shed or answered.
        """
        for peer in self.registry.visible_nodes(self.name):
            found = self._probe_peer(peer, pattern, remove, req_ids)
            if found is SHED:
                if tracer is not None:
                    tracer.record(peer.name, time.monotonic(), "shed", op_id,
                                  None, self.name)
            elif found is not None:
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
            # Through the serving gates, so a saturated peer sheds us into
            # a per-peer backoff instead of being hammered.
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
    def _admit_serve(self) -> bool:
        with self._serve_lock:
            if (self.max_concurrent_serves is not None
                    and self._active_serves >= self.max_concurrent_serves):
                return False
            self._active_serves += 1
        return True

    def _release_serve(self) -> None:
        with self._serve_lock:
            self._active_serves -= 1

    @property
    def active_serves(self) -> int:
        """Remote probes currently being served by this node."""
        return self._active_serves

    def _serve(self, pattern: Pattern,
               remove: bool) -> Union[Optional[Tuple], _ShedType]:
        """Serve one peer probe: a tuple, ``None`` (miss) or :data:`SHED`.

        The only sanctioned path for a remote probe: it gates on the
        concurrent serving budget before touching the store, mirroring
        the simulated admission plane's "refuse before any work" rule.
        """
        if not self._admit_serve():
            self.sheds += 1
            self._serve_metric.labels(node=self.name, outcome="shed").inc()
            return SHED
        try:
            found = self.space.inp(pattern) if remove else self.space.rdp(pattern)
        finally:
            self._release_serve()
        self._serve_metric.labels(node=self.name, outcome="served").inc()
        return found

    def serve_rdp(self, pattern: Pattern) -> Union[Optional[Tuple], _ShedType]:
        """Serve a peer's non-destructive probe, or :data:`SHED` it."""
        return self._serve(pattern, False)

    def serve_inp(self, pattern: Pattern) -> Union[Optional[Tuple], _ShedType]:
        """Serve a peer's destructive probe, or :data:`SHED` it."""
        return self._serve(pattern, True)

    # ------------------------------------------------------------------
    # Origin side: capped exponential back-off per shedding peer
    # ------------------------------------------------------------------
    def _backing_off(self, peer: str, now: float) -> bool:
        """Whether to skip ``peer`` this round (only that peer: the local
        space and other peers are unaffected)."""
        return now < self._peer_backoff.get(peer, (0, 0.0))[1]

    def _note_answer(self, peer: str, shed: bool, now: float) -> None:
        """A shed answer opens (or doubles) the window; any other clears it."""
        if shed:
            streak = self._peer_backoff.get(peer, (0, 0.0))[0] + 1
            delay = min(self.POLL_INTERVAL * (2.0 ** streak),
                        self.SHED_BACKOFF_MAX)
            self._peer_backoff[peer] = (streak, now + delay)
        else:
            self._peer_backoff.pop(peer, None)
