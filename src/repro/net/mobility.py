"""Mobility models and the range→visibility driver.

A pervasive environment mixes "highly mobile, resource limited PDAs" with
"largely static, resource-rich workstations" (section 1).  The mobility
layer models exactly that mix:

* :class:`StaticPlacement` — fixed positions (workstations, backbone).
* :class:`RandomWaypointMobility` — the classic ad-hoc model: pick a random
  waypoint, travel at a random speed, pause, repeat.
* :class:`WaypointTrace` — scripted per-node position timelines for
  repeatable scenario experiments.

Positions alone mean nothing to the protocol; the
:class:`RangeVisibilityDriver` samples positions on a fixed tick, derives
"within radio range" adjacency, and applies the diff to the shared
:class:`~repro.net.visibility.VisibilityGraph`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.net.visibility import VisibilityGraph
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStream


class Position:
    """An (x, y) point in metres."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = float(x)
        self.y = float(y)

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Position) and (other.x, other.y) == (self.x, self.y)

    def __repr__(self) -> str:
        return f"Position({self.x:.1f}, {self.y:.1f})"


class MobilityModel:
    """Base: maps node name -> position as a function of queries over time."""

    def position_of(self, node: str) -> Optional[Position]:  # pragma: no cover
        """Current position, or None if the node is unknown to this model."""
        raise NotImplementedError

    def nodes(self) -> list[str]:  # pragma: no cover
        """Node names this model places."""
        raise NotImplementedError

    def advance(self, dt: float) -> None:
        """Move the model forward ``dt`` seconds (default: nothing moves)."""


class StaticPlacement(MobilityModel):
    """Nodes that never move; positions set explicitly or on a grid."""

    def __init__(self, positions: Optional[dict[str, Position]] = None) -> None:
        self._positions: dict[str, Position] = dict(positions or {})

    @classmethod
    def grid(cls, names: Iterable[str], spacing: float) -> "StaticPlacement":
        """Place nodes on a square grid with the given spacing."""
        names = list(names)
        side = max(1, math.ceil(math.sqrt(len(names))))
        positions = {
            name: Position((i % side) * spacing, (i // side) * spacing)
            for i, name in enumerate(names)
        }
        return cls(positions)

    def position_of(self, node: str) -> Optional[Position]:
        return self._positions.get(node)

    def nodes(self) -> list[str]:
        return sorted(self._positions)


class RandomWaypointMobility(MobilityModel):
    """Random waypoint over a rectangular area.

    Each node independently: chooses a uniform waypoint, travels toward it
    at a uniform speed in ``[speed_min, speed_max]``, pauses ``pause``
    seconds on arrival, repeats.
    """

    def __init__(self, rng: RngStream, width: float, height: float,
                 speed_min: float = 0.5, speed_max: float = 2.0,
                 pause: float = 5.0) -> None:
        self.rng = rng
        self.width = width
        self.height = height
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause = pause
        self._state: dict[str, dict] = {}

    def add_node(self, node: str, position: Optional[Position] = None) -> None:
        """Start tracking a node (random start position when none given)."""
        if position is None:
            position = Position(self.rng.uniform(0, self.width),
                                self.rng.uniform(0, self.height))
        self._state[node] = {
            "pos": position,
            "target": self._random_point(),
            "speed": self.rng.uniform(self.speed_min, self.speed_max),
            "pause_left": 0.0,
        }

    def position_of(self, node: str) -> Optional[Position]:
        state = self._state.get(node)
        return state["pos"] if state else None

    def nodes(self) -> list[str]:
        return sorted(self._state)

    def advance(self, dt: float) -> None:
        for state in self._state.values():
            self._advance_one(state, dt)

    def _advance_one(self, state: dict, dt: float) -> None:
        remaining = dt
        while remaining > 1e-12:
            if state["pause_left"] > 0:
                used = min(state["pause_left"], remaining)
                state["pause_left"] -= used
                remaining -= used
                if state["pause_left"] <= 0:
                    state["target"] = self._random_point()
                    state["speed"] = self.rng.uniform(self.speed_min, self.speed_max)
                continue
            pos, target = state["pos"], state["target"]
            gap = pos.distance_to(target)
            step = state["speed"] * remaining
            if step >= gap:
                state["pos"] = target
                travel_time = gap / state["speed"] if state["speed"] > 0 else 0.0
                remaining -= travel_time
                state["pause_left"] = self.pause
            else:
                frac = step / gap
                state["pos"] = Position(pos.x + (target.x - pos.x) * frac,
                                        pos.y + (target.y - pos.y) * frac)
                remaining = 0.0

    def _random_point(self) -> Position:
        return Position(self.rng.uniform(0, self.width), self.rng.uniform(0, self.height))


class WaypointTrace(MobilityModel):
    """Scripted positions: each node follows (time, x, y) keyframes.

    Positions are linearly interpolated between keyframes, held constant
    before the first and after the last.  The trace is driven by
    :meth:`advance` just like the stochastic models, so the same driver
    works for both.
    """

    def __init__(self) -> None:
        self._keyframes: dict[str, list[tuple[float, Position]]] = {}
        self._now = 0.0

    def add_keyframe(self, node: str, time: float, x: float, y: float) -> None:
        """Append a keyframe; keyframes must be added in time order."""
        frames = self._keyframes.setdefault(node, [])
        if frames and frames[-1][0] > time:
            raise ValueError(f"keyframes for {node!r} must be time-ordered")
        frames.append((time, Position(x, y)))

    def nodes(self) -> list[str]:
        return sorted(self._keyframes)

    def advance(self, dt: float) -> None:
        self._now += dt

    def position_of(self, node: str) -> Optional[Position]:
        frames = self._keyframes.get(node)
        if not frames:
            return None
        if self._now <= frames[0][0]:
            return frames[0][1]
        if self._now >= frames[-1][0]:
            return frames[-1][1]
        for (t0, p0), (t1, p1) in zip(frames, frames[1:]):
            if t0 <= self._now <= t1:
                if t1 == t0:
                    return p1
                frac = (self._now - t0) / (t1 - t0)
                return Position(p0.x + (p1.x - p0.x) * frac,
                                p0.y + (p1.y - p0.y) * frac)
        return frames[-1][1]  # pragma: no cover - unreachable


class RangeVisibilityDriver:
    """Samples a mobility model and keeps the visibility graph in sync.

    Every ``tick`` seconds the driver advances the model, recomputes
    within-``radio_range`` adjacency, and applies only the *diff* to the
    graph (so listeners see clean transitions).
    """

    def __init__(self, sim: Simulator, graph: VisibilityGraph, model: MobilityModel,
                 radio_range: float, tick: float = 1.0) -> None:
        self.sim = sim
        self.graph = graph
        self.model = model
        self.radio_range = radio_range
        self.tick = tick
        self._running = False

    def start(self) -> None:
        """Apply the initial adjacency and begin ticking."""
        self._running = True
        self.sync()
        self.sim.schedule(self.tick, self._tick)

    def stop(self) -> None:
        """Stop ticking (the graph keeps its last state)."""
        self._running = False

    def sync(self) -> None:
        """Recompute adjacency from current positions and apply the diff."""
        names = self.model.nodes()
        for name in names:
            self.graph.add_node(name)
        for i, a in enumerate(names):
            pa = self.model.position_of(a)
            for b in names[i + 1:]:
                pb = self.model.position_of(b)
                in_range = (
                    pa is not None and pb is not None
                    and pa.distance_to(pb) <= self.radio_range
                )
                self.graph.set_visible(a, b, in_range)

    def _tick(self) -> None:
        if not self._running:
            return
        self.model.advance(self.tick)
        self.sync()
        self.sim.schedule(self.tick, self._tick)
