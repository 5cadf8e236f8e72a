"""What the threaded and asyncio runtimes share, written once.

The two real-substrate runtimes differ only in how a probe reaches a peer
(a method call, or a UDP datagram).  What is *not* transport lives here:
:class:`NodeRegistry` (who exists, who sees whom, config, codec, obs hub)
and :class:`RuntimeNode` (a local space, the admission-controlled serving
plane and its :data:`SHED` verdict, the origin's capped per-peer back-off,
the counters and metric families both export).  :mod:`repro.runtime.node`
and :mod:`repro.runtime.aio` subclass these and add their transport and
their blocking loop.
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
from repro.tuples.serialization import WireCodec, ensure_codec_match

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
    member node feeds.  ``config.wire_codec`` flows in exactly as it does
    into the sim network: the resolved codec is ``registry.codec``, and an
    explicit ``codec`` that disagrees with the config raises the shared
    :class:`~repro.errors.CodecMismatchError` at construction.
    """

    #: How codec-mismatch errors name this transport.
    transport = "registry"

    def __init__(self, *, config: Optional["TiamatConfig"] = None,
                 codec: Union[str, WireCodec, None] = None) -> None:
        from repro.core.config import TiamatConfig
        self.config = config if config is not None else TiamatConfig()
        self.codec = ensure_codec_match(self.config.wire_codec, codec,
                                        transport=self.transport)
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
    """One node: a local space, a gated serving plane, shed back-off.
    Subclasses add the transport and ``registry.register(self)`` once
    peers can reach them.

    A blocking ``rd``/``in_`` runs, on both runtimes: (1) a non-blocking
    local check; (2) one round over the currently visible peers, through
    their gates and this node's back-off; (3) the deadline check; (4) a
    park of ``min(POLL_INTERVAL, remaining)`` that a local ``out`` ends
    early; (5) repeat.  A tuple already in reach never waits on a timer."""

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

    def _count(self, op: str, outcome: str) -> None:
        self._ops_metric.labels(node=self.name, op=op, outcome=outcome).inc()

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
