"""Churn injection: nodes leaving and (re)joining the environment.

Devices in a pervasive environment "may not exist long enough to communicate
with another device directly (it may run out of battery power, for
example)" — section 1.  The injector models that as an alternating renewal
process per node: exponentially distributed up-times and down-times, plus a
scripted one-shot API for deterministic scenario tests (kill this proxy at
t=40, bring the replacement up at t=45).
"""

from __future__ import annotations

from typing import Optional

from repro.net.visibility import VisibilityGraph
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStream


class ChurnInjector:
    """Drives up/down transitions on a visibility graph."""

    def __init__(self, sim: Simulator, graph: VisibilityGraph,
                 rng: Optional[RngStream] = None) -> None:
        self.sim = sim
        self.graph = graph
        self.rng = rng if rng is not None else sim.rng("churn")
        self._auto: dict[str, dict] = {}
        self.downs = 0
        self.ups = 0

    # ------------------------------------------------------------------
    # Scripted control
    # ------------------------------------------------------------------
    def kill_at(self, node: str, time: float) -> None:
        """Take ``node`` down at the given absolute time."""
        self.sim.schedule_at(time, self._set, node, False)

    def revive_at(self, node: str, time: float) -> None:
        """Bring ``node`` up at the given absolute time."""
        self.sim.schedule_at(time, self._set, node, True)

    def kill(self, node: str) -> None:
        """Take ``node`` down immediately."""
        self._set(node, False)

    # ------------------------------------------------------------------
    # Stochastic churn
    # ------------------------------------------------------------------
    def auto_churn(self, node: str, mean_uptime: float, mean_downtime: float) -> None:
        """Cycle ``node`` through exponential up/down periods indefinitely.

        The first transition (to down) is scheduled after one full uptime
        draw, so nodes start their session already up.
        """
        if mean_uptime <= 0 or mean_downtime <= 0:
            raise ValueError("mean up/down times must be positive")
        self._auto[node] = {"up": mean_uptime, "down": mean_downtime}
        delay = self.rng.expovariate(1.0 / mean_uptime)
        self.sim.schedule(delay, self._auto_flip, node, False)

    def stop_auto_churn(self, node: str) -> None:
        """Cancel automatic churn for ``node`` (state left as-is)."""
        self._auto.pop(node, None)

    # ------------------------------------------------------------------
    def _auto_flip(self, node: str, to_up: bool) -> None:
        params = self._auto.get(node)
        if params is None:
            return
        self._set(node, to_up)
        mean = params["up"] if to_up else params["down"]
        delay = self.rng.expovariate(1.0 / mean)
        self.sim.schedule(delay, self._auto_flip, node, not to_up)

    def _set(self, node: str, up: bool) -> None:
        was_up = self.graph.is_up(node)
        self.graph.set_up(node, up)
        if up and not was_up:
            self.ups += 1
        elif not up and was_up:
            self.downs += 1
