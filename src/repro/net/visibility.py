"""The visibility graph: who can currently communicate with whom.

Visibility is the only environmental concept the Tiamat model depends on
(section 2.2): the model is agnostic about *why* two instances can talk
(radio range, routing through others, wired infrastructure).  This class is
therefore the single source of truth that every driver mutates:

* experiment scripts set edges explicitly (the Figure 1 scenarios);
* :class:`~repro.net.mobility.RangeVisibilityDriver` derives edges from node
  positions and radio range;
* :class:`~repro.net.churn.ChurnInjector` takes whole nodes down and up.

Listeners fire on every transition, which is what Tiamat's *continuous*
propagation mode and the "actively perceive change" option in section 2.3
are built on.
"""

from __future__ import annotations

from typing import Callable, Iterable

#: (a, b, now_visible) — a and b in sorted order.
EdgeListener = Callable[[str, str, bool], None]
#: (node, now_up)
NodeListener = Callable[[str, bool], None]


class VisibilityGraph:
    """A symmetric, dynamic graph over node names with up/down state."""

    def __init__(self) -> None:
        self._adjacent: dict[str, set[str]] = {}
        #: Nodes powered down (see :meth:`set_up`); read-only outside.
        self.down: set[str] = set()
        self._edge_listeners: list[EdgeListener] = []
        self._node_listeners: list[NodeListener] = []
        self.transitions = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> None:
        """Register a node (idempotent); starts up and isolated."""
        self._adjacent.setdefault(node, set())

    def nodes(self) -> list[str]:
        """All registered nodes (up or down), sorted for determinism."""
        return sorted(self._adjacent)

    def is_up(self, node: str) -> bool:
        """Whether the node is currently powered/participating."""
        return node in self._adjacent and node not in self.down

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def set_visible(self, a: str, b: str, visible: bool = True) -> None:
        """Set or clear the (symmetric) visibility edge between a and b."""
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        currently = b in self._adjacent[a]
        if currently == visible:
            return
        if visible:
            self._adjacent[a].add(b)
            self._adjacent[b].add(a)
        else:
            self._adjacent[a].discard(b)
            self._adjacent[b].discard(a)
        self.transitions += 1
        lo, hi = sorted((a, b))
        for listener in list(self._edge_listeners):
            listener(lo, hi, visible)

    def connect_clique(self, nodes: Iterable[str]) -> None:
        """Make every pair of the given nodes mutually visible."""
        nodes = list(nodes)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                self.set_visible(a, b, True)

    def isolate(self, node: str) -> None:
        """Remove all edges touching ``node`` (it stays up)."""
        self.add_node(node)
        for other in list(self._adjacent[node]):
            self.set_visible(node, other, False)

    def visible(self, a: str, b: str) -> bool:
        """True iff a and b are mutually visible and both up."""
        # Only registered nodes are adjacent, and never to themselves.
        return (b in self._adjacent.get(a, ()) and a not in self.down
                and b not in self.down)

    def neighbors(self, node: str) -> list[str]:
        """Nodes currently visible from ``node`` (sorted, up only)."""
        if not self.is_up(node):
            return []
        return sorted(n for n in self._adjacent.get(node, ()) if self.is_up(n))

    # ------------------------------------------------------------------
    # Up/down state (churn)
    # ------------------------------------------------------------------
    def set_up(self, node: str, up: bool) -> None:
        """Power a node up or down.  Edges are retained but inert while down."""
        self.add_node(node)
        currently = node not in self.down
        if currently == up:
            return
        if up:
            self.down.discard(node)
        else:
            self.down.add(node)
        self.transitions += 1
        for listener in list(self._node_listeners):
            listener(node, up)
        # A node's edges effectively appear/disappear with it; tell edge
        # listeners so propagation logic sees the change uniformly.
        for other in sorted(self._adjacent.get(node, ())):
            if other in self.down:
                continue
            lo, hi = sorted((node, other))
            for listener in list(self._edge_listeners):
                listener(lo, hi, up)

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def on_edge_change(self, listener: EdgeListener) -> Callable[[], None]:
        """Subscribe to edge transitions; returns an unsubscribe callable."""
        self._edge_listeners.append(listener)
        return lambda: self._edge_listeners.remove(listener)

    def on_node_change(self, listener: NodeListener) -> Callable[[], None]:
        """Subscribe to up/down transitions; returns an unsubscribe callable."""
        self._node_listeners.append(listener)
        return lambda: self._node_listeners.remove(listener)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(len(v) for v in self._adjacent.values()) // 2
        return f"<VisibilityGraph nodes={len(self._adjacent)} edges={edges} down={len(self.down)}>"
