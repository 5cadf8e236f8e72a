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
one delivery per frame (per copy, for a multicast).  ``codec`` selects the
wire encoding that prices every frame — ``"json"`` (the default) or the
compact ``"binary"`` codec (:mod:`repro.tuples.serialization`).

Richer failure modes — burst loss, duplication, reordering, corruption,
one-way links — are layered on via :meth:`Network.use_faults` and a
:class:`~repro.net.faults.FaultPlan`; the base network stays the simple
i.i.d. model so seeded experiments are unperturbed unless a plan is
installed.  Every drop is attributed to a reason in
:class:`~repro.net.stats.NetworkStats`, and an optional ``drop listener``
lets tracers record the dropped frames themselves.

Handlers attached via :meth:`Network.attach` are invoked with the delivered
:class:`~repro.net.message.Message`.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

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
from repro.tuples.serialization import WireCodec, get_codec

Handler = Callable[[Message], None]
LatencyModel = Callable[[str, str, int], float]
DropListener = Callable[[Message, str], None]
FrameListener = Callable[[str, Message], None]


def default_latency(base: float = 0.002, per_byte: float = 2e-7,
                    jitter: float = 0.3) -> Callable[["Network"], LatencyModel]:
    """A latency model factory: base + size*per_byte, with multiplicative jitter.

    Defaults approximate a local wireless hop (about 2 ms plus bandwidth
    delay).  The returned factory binds the network's RNG stream so jitter
    is reproducible.
    """

    def bind(network: "Network") -> LatencyModel:
        rng = network.sim.rng("net/latency")

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
                 latency_factory: Optional[Callable[["Network"], LatencyModel]] = None,
                 codec: Union[str, WireCodec, None] = None) -> None:
        self.sim = sim
        self.visibility = visibility if visibility is not None else VisibilityGraph()
        self.loss_rate = loss_rate
        self.codec: WireCodec = get_codec(codec)
        self.stats = NetworkStats()
        self.faults = None  # Optional[FaultPlan]
        self._handlers: dict[str, Handler] = {}
        self._loss_rng = sim.rng("net/loss")
        self._drop_listeners: list[DropListener] = []
        self._frame_listeners: list[FrameListener] = []
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
    # Fault injection and drop observation
    # ------------------------------------------------------------------
    def use_faults(self, plan) -> "Network":
        """Install (or clear, with ``None``) a fault plan; returns self."""
        self.faults = plan
        if plan is not None:
            plan.bind(self)
        return self

    def on_drop(self, listener: DropListener) -> Callable[[], None]:
        """Subscribe to dropped frames; returns an unsubscribe callable."""
        self._drop_listeners.append(listener)
        return lambda: self._drop_listeners.remove(listener)

    def on_frame(self, listener: FrameListener) -> Callable[[], None]:
        """Subscribe to frame lifecycle events; returns an unsubscriber.

        The listener is invoked as ``listener(phase, message)`` with phase
        ``"send"`` (one call per in-flight copy, i.e. per destination for
        multicasts) and ``"deliver"`` (the frame reached its handler).
        Drops are reported through :meth:`on_drop`.  With no listeners the
        notification is a single falsy check — observationally free.
        """
        self._frame_listeners.append(listener)
        return lambda: self._frame_listeners.remove(listener)

    def _notify_frame(self, phase: str, message: Message) -> None:
        for listener in list(self._frame_listeners):
            listener(phase, message)

    def _drop(self, message: Message, reason: str) -> None:
        self.stats.record_drop(message.src, reason=reason)
        flight = self._flight
        if not self._drop_listeners and not flight.enabled:
            return
        flight.frame("drop", message, reason)
        for listener in list(self._drop_listeners):
            listener(message, reason)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def unicast(self, src: str, dst: str, payload: dict) -> bool:
        """Deliver ``payload`` from src to dst if visible; True if dispatched."""
        self._require(src)
        message = Message(src, dst, payload, self.sim.now, codec=self.codec)
        if not self.visibility.visible(src, dst):
            self._drop(message, DROP_INVISIBLE)
            return False
        self.stats.record_send(src, message.size, multicast=False, kind=message.kind)
        self._dispatch(message)
        return True  # dispatched (even if lost in flight)

    def multicast(self, src: str, payload: dict) -> int:
        """Deliver a copy of ``payload`` to each visible neighbour of src."""
        self._require(src)
        neighbors = self.visibility.neighbors(src)
        probe = Message(src, None, payload, self.sim.now, codec=self.codec)
        self.stats.record_send(src, probe.size, multicast=True, kind=probe.kind)
        dispatched = 0
        for dst in neighbors:
            copy = probe.copy_for(dst, self.sim.now)
            if self._dispatch(copy):
                dispatched += 1
        return dispatched

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(self, message: Message) -> bool:
        """Run loss + fault decisions for one frame; True if any copy flies."""
        if self._frame_listeners:
            self._notify_frame("send", message)
        self._flight.frame("send", message)
        if self._lost():
            self._drop(message, DROP_LOSS)
            return False  # silently lost in flight
        if self.faults is None:
            self._schedule_delivery(message, 0.0)
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
            self._schedule_delivery(copy, delivery.extra_delay)
        return True

    def _schedule_delivery(self, message: Message, extra_delay: float) -> None:
        delay = self._latency(message.src, message.dst, message.size)
        self.sim.schedule(delay + extra_delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None or not self.visibility.is_up(message.dst):
            self._drop(message, DROP_NODE_DOWN)
            return
        if self.faults is not None and not message.verify():
            # The receiver's frame checksum rejects damaged payloads; only
            # a fault plan damages frames in flight.
            self._drop(message, DROP_CORRUPT)
            return
        self.stats.record_receive(message.dst, message.size)
        if self._frame_listeners:
            self._notify_frame("deliver", message)
        self._flight.frame("deliver", message)
        handler(message)

    def _lost(self) -> bool:
        return self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate

    def _require(self, name: str) -> None:
        if name not in self._handlers:
            raise UnknownNodeError(f"node {name!r} is not attached to this network")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self._handlers)} loss={self.loss_rate}>"
