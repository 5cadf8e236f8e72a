"""Message delivery over the visibility graph.

The network is deliberately simple — the phenomena the paper cares about
(devices coming and going, operations racing visibility changes) come from
the dynamics of the :class:`~repro.net.visibility.VisibilityGraph`, not from
an elaborate radio model:

* **unicast** delivers to a named node iff the two are mutually visible at
  *send* time, after a latency drawn from the latency model and subject to
  probabilistic loss;
* **multicast** delivers an independent copy to each currently visible
  neighbour (the discovery primitive of the paper's prototype);
* visibility is *not* re-checked at delivery time: a frame already in
  flight arrives even if the nodes separate mid-flight, matching the
  behaviour of real radios at these timescales.  Frames addressed to a node
  that is *down* at delivery time are dropped.

Every frame flies alone: one send, one loss/fault/latency decision and
one delivery per frame (per copy, for a multicast).  Every frame is
priced by its compact JSON encoding (:class:`~repro.net.message.Message`).

Richer failure modes — burst loss, duplication, reordering, corruption,
one-way links — are layered on via :meth:`Network.use_faults` and a
:class:`~repro.net.faults.FaultPlan`; the base network stays the simple
i.i.d. model so seeded experiments are unperturbed unless a plan is
installed.  Every drop is attributed to a reason in
:class:`~repro.net.stats.NetworkStats`.  Every send, delivery and drop is
also recorded in the flight recorder (:mod:`repro.obs.flight`), the
stream a tracer reads.

Handlers attached via :meth:`Network.attach` are invoked with the delivered
:class:`~repro.net.message.Message`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import UnknownNodeError
from repro.net.message import Message
from repro.net.stats import (
    DROP_CORRUPT,
    DROP_INVISIBLE,
    DROP_LOSS,
    DROP_NODE_DOWN,
    NetworkStats,
)
from repro.net.visibility import VisibilityGraph
from repro.sim.kernel import Simulator

Handler = Callable[[Message], None]
LatencyModel = Callable[[str, str, int], float]


#: The default latency model: a local wireless hop, about 2 ms plus
#: bandwidth delay, scaled by up to 30 % of multiplicative jitter.
LATENCY_BASE = 0.002
LATENCY_JITTER = 0.3


def default_latency(per_byte: float = 2e-7) -> Callable[["Network"], LatencyModel]:
    """A latency model factory: ``LATENCY_BASE + size*per_byte``, with
    multiplicative jitter up to ``LATENCY_JITTER``.

    The returned factory binds the network's RNG stream so jitter is
    reproducible.
    """

    def bind(network: "Network") -> LatencyModel:
        rng = network.sim.rng("net/latency")
        base, jitter = LATENCY_BASE, LATENCY_JITTER

        def model(src: str, dst: str, size: int) -> float:
            scale = 1.0 + jitter * rng.random()
            return (base + size * per_byte) * scale

        return model

    return bind


class NetworkInterface:
    """A node's handle on the network: send primitives bound to its name."""

    __slots__ = ("network", "name")

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name

    def unicast(self, dst: str, payload: dict) -> bool:
        """Send to a specific node; False if it was not visible at send time."""
        return self.network.unicast(self.name, dst, payload)

    def multicast(self, payload: dict) -> int:
        """Send to every visible neighbour; returns the copy count."""
        return self.network.multicast(self.name, payload)

    def neighbors(self) -> list[str]:
        """Nodes currently visible from this one."""
        return self.network.visibility.neighbors(self.name)

    def is_visible(self, other: str) -> bool:
        """Whether ``other`` is currently reachable in one hop."""
        return self.network.visibility.visible(self.name, other)


class Network:
    """The simulated datagram network over a visibility graph.

    Only ``sim`` is positional; every tunable is keyword-only.
    """

    def __init__(self, sim: Simulator, *,
                 visibility: Optional[VisibilityGraph] = None,
                 loss_rate: float = 0.0,
                 latency_factory: Optional[Callable[["Network"], LatencyModel]] = None
                 ) -> None:
        self.sim = sim
        self.visibility = visibility if visibility is not None else VisibilityGraph()
        self.loss_rate = loss_rate
        self.stats = NetworkStats()
        self.faults = None  # Optional[FaultPlan]
        self._handlers: dict[str, Handler] = {}
        self._loss_rng = sim.rng("net/loss")
        factory = latency_factory if latency_factory is not None else default_latency()
        self._latency: LatencyModel = factory(self)
        sim.obs.observe_network(self)
        # The always-on flight recorder (repro.obs.flight): sends/drops
        # land on the source node's ring, deliveries on the destination's.
        self._flight = sim.obs.flight

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, name: str, handler: Handler) -> NetworkInterface:
        """Register a node and its delivery handler; returns its interface."""
        if name in self._handlers:
            raise UnknownNodeError(f"node {name!r} already attached")
        self._handlers[name] = handler
        self.visibility.add_node(name)
        # A re-attaching node (crash + restart) comes back powered up.
        self.visibility.set_up(name, True)
        return NetworkInterface(self, name)

    def detach(self, name: str) -> None:
        """Remove a node entirely (edges cleared, frames to it dropped)."""
        self._handlers.pop(name, None)
        self.visibility.isolate(name)
        self.visibility.set_up(name, False)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def use_faults(self, plan) -> "Network":
        """Install (or clear, with ``None``) a fault plan; returns self."""
        self.faults = plan
        if plan is not None:
            plan.bind(self)
        return self

    def _drop(self, message: Message, reason: str) -> None:
        self.stats.record_drop(message.src, reason=reason)
        self._flight.frame("drop", message, reason)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def unicast(self, src: str, dst: str, payload: dict) -> bool:
        """Deliver ``payload`` from src to dst if visible; True if dispatched."""
        if src not in self._handlers:
            self._require(src)
        message = Message(src, dst, payload, self.sim.now)
        if not self.visibility.visible(src, dst):
            self._drop(message, DROP_INVISIBLE)
            return False
        self.stats.record_send(src, message.size, False, message.kind)
        self._dispatch(message)
        return True  # dispatched (even if lost in flight)

    def multicast(self, src: str, payload: dict) -> int:
        """Deliver a copy of ``payload`` to each visible neighbour of src."""
        self._require(src)
        neighbors = self.visibility.neighbors(src)
        probe = Message(src, None, payload, self.sim.now)
        self.stats.record_send(src, probe.size, True, probe.kind)
        dispatched = 0
        for dst in neighbors:
            dispatched += self._dispatch(probe.copy_for(dst, self.sim.now))
        return dispatched

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(self, message: Message) -> bool:
        """Run loss + fault decisions for one frame; True if any copy flies."""
        self._flight.frame("send", message)
        loss_rate = self.loss_rate
        if loss_rate > 0 and self._loss_rng.random() < loss_rate:
            self._drop(message, DROP_LOSS)
            return False  # silently lost in flight
        if self.faults is None:
            self.sim.schedule(
                self._latency(message.src, message.dst, message.size),
                self._deliver, message)
            return True
        verdict = self.faults.judge(message)
        if verdict.dropped:
            self._drop(message, verdict.drop_reason)
            return False
        # Every copy is cut from the intact frame before any is damaged: a
        # duplicate of a corrupted frame is the frame, not the corruption.
        copies = [message] + [message.copy_for(message.dst, message.sent_at)
                              for _ in verdict.deliveries[1:]]
        for copy, delivery in zip(copies, verdict.deliveries):
            if delivery.corrupt:
                copy.corrupt()
            delay = self._latency(copy.src, copy.dst, copy.size)
            self.sim.schedule(delay + delivery.extra_delay, self._deliver, copy)
        return True

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        # An attached node is on the graph, so "up" is "not down".
        if handler is None or message.dst in self.visibility.down:
            self._drop(message, DROP_NODE_DOWN)
            return
        if self.faults is not None and not message.verify():
            # The receiver rejects damaged payloads; only a fault plan
            # damages frames in flight.
            self._drop(message, DROP_CORRUPT)
            return
        self.stats.record_receive(message.dst, message.size)
        self._flight.frame("deliver", message)
        handler(message)

    def _require(self, name: str) -> None:
        if name not in self._handlers:
            raise UnknownNodeError(f"node {name!r} is not attached to this network")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self._handlers)} loss={self.loss_rate}>"
