"""SLO latency plane: per-op-kind histograms, exemplars, burn rates.

Every finished operation reports its end-to-end latency here (wired
from :meth:`repro.core.ops.Operation._finalize`).  The tracker keeps

* a ``slo_op_latency_seconds`` histogram per op kind in the hub's
  metrics registry,
* *exemplars* — the slowest operations in the current window retain
  their op id plus a slice of their node's flight ring, so a latency
  spike always comes with its own black-box excerpt, and
* windowed objectives (e.g. "p99 of ``in`` below 5 ticks over 200
  ticks"): each record re-evaluates the window lazily; crossing the
  error budget emits a burn-rate breach into the metrics registry and
  the flight stream.

Like every ``repro.obs`` component the tracker is passive: it never
schedules events and consumes no randomness — windows are evaluated on
the observations' own clock readings.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["SLOObjective", "SLOTracker"]

#: Minimum observations inside a window before an objective can breach;
#: stops a single slow op from tripping p99 alarms on an idle node.
MIN_WINDOW_SAMPLES = 10

#: How many exemplars (slowest ops) are retained per kind per window.
EXEMPLAR_SLOTS = 5

#: Flight-ring events captured alongside each exemplar.
EXEMPLAR_TRACE_EVENTS = 64


class SLOObjective:
    """A windowed latency objective for one operation kind."""

    __slots__ = ("kind", "percentile", "threshold", "window", "name")

    def __init__(self, kind: str, percentile: float, threshold: float,
                 window: float):
        if not 0.0 < percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if threshold <= 0 or window <= 0:
            raise ValueError("threshold and window must be positive")
        self.kind = kind
        self.percentile = percentile
        self.threshold = threshold
        self.window = window
        self.name = f"p{percentile * 100:g}_{kind}_lt_{threshold:g}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SLOObjective(kind={self.kind!r}, "
                f"percentile={self.percentile}, "
                f"threshold={self.threshold}, window={self.window})")


class _ObjectiveState:
    """Sliding window of (time, within-threshold) samples."""

    __slots__ = ("objective", "samples", "bad", "in_breach")

    def __init__(self, objective: SLOObjective):
        self.objective = objective
        self.samples: Deque[Tuple[float, bool]] = deque()
        self.bad = 0
        self.in_breach = False

    def observe(self, now: float, latency: float) -> Optional[float]:
        """Add a sample; return the burn rate when a breach *starts*."""
        horizon = now - self.objective.window
        samples = self.samples
        while samples and samples[0][0] < horizon:
            _, was_ok = samples.popleft()
            if not was_ok:
                self.bad -= 1
        ok = latency <= self.objective.threshold
        samples.append((now, ok))
        if not ok:
            self.bad += 1
        if len(samples) < MIN_WINDOW_SAMPLES:
            self.in_breach = False
            return None
        budget = 1.0 - self.objective.percentile
        burn = (self.bad / len(samples)) / budget
        breached = burn > 1.0
        started = breached and not self.in_breach
        self.in_breach = breached
        return burn if started else None


class SLOTracker:
    """Aggregates operation latencies into histograms and objectives."""

    def __init__(self, clock: Callable[[], float], registry: Any):
        self.clock = clock
        self.registry = registry
        self.objectives: List[SLOObjective] = []
        self._states: List[_ObjectiveState] = []
        self._hist_children: Dict[str, Any] = {}
        self._hist = None
        self._breach_counter = None
        self.breaches: List[Dict[str, Any]] = []
        # kind -> list of exemplar dicts, kept sorted-by-latency ascending
        self._exemplars: Dict[str, List[Dict[str, Any]]] = {}
        # kind -> the time of its oldest exemplar (the slot is sorted by
        # latency, so its first entry is the fastest, not the oldest)
        self._oldest: Dict[str, float] = {}
        self.exemplar_window = 200.0

    def add_objective(self, objective: SLOObjective) -> SLOObjective:
        self.objectives.append(objective)
        self._states.append(_ObjectiveState(objective))
        self.exemplar_window = max(self.exemplar_window, objective.window)
        return objective

    # -- recording ---------------------------------------------------------
    def record(self, kind: str, latency: float, op_id: Optional[str],
               node: Optional[str], ring: Any = None) -> None:
        """Report one finished operation's end-to-end latency."""
        child = self._hist_children.get(kind)
        if child is None:
            child = self._histogram_child(kind)
        child.observe(latency)
        now = self.clock()
        # The slowest ops of the window keep their op id and flight slice.
        slot = self._exemplars.get(kind)
        if slot is None:
            slot = self._exemplars[kind] = []
        if slot and self._oldest[kind] < now - self.exemplar_window:
            horizon = now - self.exemplar_window
            slot[:] = [e for e in slot if e["t"] >= horizon]
            self._oldest[kind] = min([e["t"] for e in slot], default=now)
        if len(slot) < EXEMPLAR_SLOTS or latency > slot[0]["latency"]:
            if not slot:
                self._oldest[kind] = now
            slot.append({"t": now, "latency": latency, "op_id": op_id,
                         "node": node, "kind": kind,
                         "trace": _ring_slice(ring, op_id, now, latency)})
            slot.sort(key=lambda e: e["latency"])
            if len(slot) > EXEMPLAR_SLOTS:
                if slot.pop(0)["t"] == self._oldest[kind]:
                    self._oldest[kind] = min(e["t"] for e in slot)
        for state in self._states:
            if state.objective.kind != kind:
                continue
            burn = state.observe(now, latency)
            if burn is not None:
                self._breach(state.objective, now, burn, op_id, node, ring)

    def _histogram_child(self, kind: str):
        if self._hist is None:
            self._hist = self.registry.histogram(
                "slo_op_latency_seconds",
                "End-to-end operation latency by op kind.",
                labels=("kind",))
        child = self._hist.labels(kind=kind)
        self._hist_children[kind] = child
        return child

    def _breach(self, objective: SLOObjective, now: float, burn: float,
                op_id: Optional[str], node: Optional[str],
                ring: Any) -> None:
        if self._breach_counter is None:
            self._breach_counter = self.registry.counter(
                "slo_breaches_total",
                "SLO burn-rate breach events by objective.",
                labels=("kind", "objective"))
        self._breach_counter.labels(
            kind=objective.kind, objective=objective.name).inc()
        event = {"t": now, "objective": objective.name,
                 "kind": objective.kind, "burn_rate": burn,
                 "op_id": op_id, "node": node}
        self.breaches.append(event)
        if ring is not None:
            ring.append(now, "slo_breach", op_id, objective.kind, None,
                        objective.name)

    # -- inspection --------------------------------------------------------
    def exemplars(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Current exemplars, slowest first."""
        kinds = [kind] if kind is not None else sorted(self._exemplars)
        out: List[Dict[str, Any]] = []
        for k in kinds:
            out.extend(reversed(self._exemplars.get(k, [])))
        return out


def _ring_slice(ring: Any, op_id: Optional[str], now: float,
                latency: float) -> List[Dict[str, Any]]:
    """The op's tail of its node's flight ring (empty when unavailable)."""
    if ring is None or op_id is None:
        return []
    # ``now - latency`` is the op's start up to rounding of order
    # ``latency * 2**-52``; the margin keeps its first event in the walk.
    since = now - latency * (1.0 + 1e-9)
    return ring.op_events(op_id, since, EXEMPLAR_TRACE_EVENTS)

