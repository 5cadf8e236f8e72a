"""The communications manager: peer discovery and the visibility list.

Section 3.1.3 in full: the communications manager "is responsible for
contacting remote instances of Tiamat, propagating any operations to remote
nodes, receiving the results of those operations and receiving requests for
operations from other instances".  Its performance-critical structure is the
**known-peer list**:

* instances responding to a discovery multicast are appended to the
  *bottom* of the list;
* operation propagation always starts from the *top*;
* peers that fail to respond are removed;
* hence "consistently visible instances work their way to the top of the
  list and, therefore, will be the first to be contacted when an operation
  is performed".

The T1 bench compares this against the ``"multicast"`` strategy (a fresh
discovery multicast for every operation).
"""

from __future__ import annotations

import itertools

from repro.net.network import NetworkInterface
from repro.core import protocol
from repro.sim.events import Event
from repro.sim.kernel import Simulator

#: Seconds a discovery multicast collects ``DISCOVER_ACK`` responses.
DISCOVER_WINDOW = 0.1


class CommsManager:
    """Known-peer list maintenance and the discovery protocol."""

    def __init__(self, sim: Simulator, iface: NetworkInterface) -> None:
        self.sim = sim
        self.iface = iface
        self.known: list[str] = []
        self._discoveries: dict[int, dict] = {}
        self._discovery_ids = itertools.count(1)
        # statistics
        self.multicasts = 0
        self.removals = 0

    # ------------------------------------------------------------------
    # The known-peer list
    # ------------------------------------------------------------------
    def plan(self) -> list[str]:
        """Peers to contact, in priority order (top of the list first)."""
        return list(self.known)

    def note_alive(self, peer: str) -> None:
        """Record that ``peer`` responded; new responders join the bottom."""
        if peer != self.iface.name and peer not in self.known:
            self.known.append(peer)

    def note_dead(self, peer: str) -> None:
        """Remove a non-responding peer from the list."""
        if peer in self.known:
            self.known.remove(peer)
            self.removals += 1

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self) -> Event:
        """Multicast a discovery probe; the event yields the responder list.

        Responders are also appended to the known list (bottom), so a
        subsequent :meth:`plan` includes them.  The event succeeds after
        ``DISCOVER_WINDOW`` with the list of *new* responders (those
        not already known when the probe went out).
        """
        did = next(self._discovery_ids)
        session = {
            "responders": [],
            "already_known": set(self.known),
            "event": self.sim.event(),
        }
        self._discoveries[did] = session
        self.multicasts += 1
        self.iface.multicast({"kind": protocol.DISCOVER, "did": did,
                              "src": self.iface.name})
        self.sim.schedule(DISCOVER_WINDOW, self._close_discovery, did)
        return session["event"]

    def on_discover_ack(self, peer: str, did: int) -> None:
        """Handle a DISCOVER_ACK (called by the instance's dispatcher)."""
        self.note_alive(peer)
        session = self._discoveries.get(did)
        if session is not None and peer not in session["responders"]:
            session["responders"].append(peer)

    def _close_discovery(self, did: int) -> None:
        session = self._discoveries.pop(did, None)
        if session is None:
            return
        fresh = [p for p in session["responders"] if p not in session["already_known"]]
        session["event"].succeed(fresh)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommsManager {self.iface.name} known={self.known}>"
