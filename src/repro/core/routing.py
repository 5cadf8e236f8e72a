"""Reply-to-origin ``out`` and tuple routing policies.

Section 2.4 defines a third form of ``out``/``eval`` that targets the
instance a previously retrieved tuple came from.  "If the destination is
not available, then a policy, either at the application or system level,
must be established as to whether there are attempts to route the tuple,
whether it is placed in the local space, or whether the operation is
abandoned altogether."  :class:`UnavailablePolicy` enumerates exactly those
three choices.

Routing itself needs a relay-selection strategy.  Two are provided:

* :class:`RandomRelayRouter` — any visible neighbour, uniformly.
* :class:`SocialRouter` — the section 6 future-work extension: "exploit the
  relatively fixed and well connected portions of the network as a backbone
  for more efficient communications".  Relays are scored by connectivity
  (current degree) plus stability (how long they have been continuously
  visible), and the best-scoring neighbour carries the tuple.

The T7 bench ablates the two routers on a mixed fixed/mobile topology.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sim.rng import RngStream


class UnavailablePolicy(enum.Enum):
    """What to do when a reply-bound tuple's destination is not visible."""

    LOCAL = "local"        # fall back to the local space
    ROUTE = "route"        # hand the tuple to a relay
    ABANDON = "abandon"    # give up; the operation fails


class Router:
    """Protocol: pick a relay for a tuple bound for ``destination``."""

    def choose_relay(self, instance, destination: str,
                     exclude: set[str]) -> Optional[str]:  # pragma: no cover
        """A visible neighbour to carry the tuple, or None if there is none."""
        raise NotImplementedError


class RandomRelayRouter(Router):
    """Uniformly random choice among visible neighbours."""

    def __init__(self, rng: RngStream) -> None:
        self.rng = rng

    def choose_relay(self, instance, destination: str,
                     exclude: set[str]) -> Optional[str]:
        candidates = [n for n in instance.iface.neighbors()
                      if n != destination and n not in exclude]
        if not candidates:
            return None
        return self.rng.choice(candidates)


#: SocialRouter's score: ``DEGREE_WEIGHT * degree + STABILITY_WEIGHT *
#: min(visible for, STABILITY_CAP)``.  The cap bounds the stability
#: contribution so ancient links cannot dominate a much better-connected
#: newcomer.
DEGREE_WEIGHT = 1.0
STABILITY_WEIGHT = 0.1
STABILITY_CAP = 300.0


class SocialRouter(Router):
    """Prefer well-connected, long-visible neighbours (the backbone).

    The score trades off degree against continuous-visibility time
    (``DEGREE_WEIGHT``, ``STABILITY_WEIGHT``, ``STABILITY_CAP``).
    """

    def choose_relay(self, instance, destination: str,
                     exclude: set[str]) -> Optional[str]:
        graph = instance.network.visibility
        now = instance.sim.now
        best, best_score = None, float("-inf")
        for neighbor in instance.iface.neighbors():
            if neighbor == destination or neighbor in exclude:
                continue
            degree = len(graph.neighbors(neighbor))
            seen_since = instance.neighbor_since.get(neighbor, now)
            stability = min(now - seen_since, STABILITY_CAP)
            score = DEGREE_WEIGHT * degree + STABILITY_WEIGHT * stability
            if score > best_score:
                best, best_score = neighbor, score
        return best
