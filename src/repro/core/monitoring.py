"""Monitoring and adaptation: the section 5 challenges, implemented.

The paper closes with six challenges for pervasive infrastructure and
declares (section 6) that future Tiamat work "will focus on the monitoring
and adaptation as a result of changes to the run-time support".  This
module implements that programme:

* :class:`RtsMonitor` — *monitoring the run-time support* (5.2): per-
  neighbour visibility session tracking (current stability, historical
  availability, transition rate) and a stable/mobile classification, the
  information the social router and adaptation policies consume.
* :class:`AppMonitor` — *modelling application behaviour* (5.4): records
  "what operations the application performs, when and in what order ...
  and whether the previous operations succeeded or failed"; exposes the
  operation mix, per-pattern success rates, and observed match latencies.
* :class:`LeaseTuner` — *adapting to application behaviour* (5.5): a
  feedback controller that widens the default blocking-lease duration for
  patterns that keep expiring unsatisfied and narrows it for patterns
  that match quickly, within configured bounds.
* :class:`ConflictResolver` — *resolving conflict in adaptation* (5.6):
  watches storage pressure against application demand; under sustained
  pressure it makes the paper's "best guess" (revoke the oldest
  storage-bearing leases down to a low-water mark), then monitors whether
  refusals keep rising and backs off the water mark if the guess made
  things worse.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

from repro.leasing import LeaseTerms
from repro.sim.kernel import Simulator
from repro.tuples import Pattern


class NeighborRecord:
    """Visibility history for one neighbour."""

    __slots__ = ("sessions", "visible_since", "total_visible", "transitions")

    def __init__(self) -> None:
        self.sessions = 0
        self.visible_since: Optional[float] = None
        self.total_visible = 0.0
        self.transitions = 0

    def availability(self, now: float, window: float) -> float:
        """Fraction of the last ``window`` seconds this neighbour was visible.

        Approximated as cumulative visible time over elapsed observation
        time, capped at 1.0 — adequate for ranking neighbours.
        """
        visible = self.total_visible
        if self.visible_since is not None:
            visible += now - self.visible_since
        if window <= 0:
            return 0.0
        return min(1.0, visible / window)


class RtsMonitor:
    """Monitors the run-time support: who is around, and how reliably.

    Attach to an instance's network; the monitor subscribes to the
    visibility graph and keeps per-neighbour histories.
    """

    def __init__(self, sim: Simulator, network, name: str,
                 stable_session: float = 60.0) -> None:
        self.sim = sim
        self.name = name
        self.stable_session = stable_session
        self.started_at = sim.now
        self.records: dict[str, NeighborRecord] = {}
        self._unsubscribe = network.visibility.on_edge_change(self._on_edge)

    def close(self) -> None:
        """Stop observing (histories are retained)."""
        self._unsubscribe()

    # ------------------------------------------------------------------
    def _on_edge(self, a: str, b: str, visible: bool) -> None:
        if self.name not in (a, b):
            return
        peer = b if a == self.name else a
        record = self.records.setdefault(peer, NeighborRecord())
        record.transitions += 1
        if visible:
            record.sessions += 1
            record.visible_since = self.sim.now
        elif record.visible_since is not None:
            record.total_visible += self.sim.now - record.visible_since
            record.visible_since = None

    # ------------------------------------------------------------------
    def stability_of(self, peer: str) -> float:
        """Seconds of the peer's current uninterrupted visibility (0 if away)."""
        record = self.records.get(peer)
        if record is None or record.visible_since is None:
            return 0.0
        return self.sim.now - record.visible_since

    def availability_of(self, peer: str) -> float:
        """Long-run fraction of time the peer has been visible."""
        record = self.records.get(peer)
        if record is None:
            return 0.0
        return record.availability(self.sim.now, self.sim.now - self.started_at)

    def classify(self, peer: str) -> str:
        """``"stable"`` / ``"mobile"`` / ``"unknown"`` (section 5.3).

        Stable nodes ("relatively fixed ... could be used as temporary
        data stores") are those whose current session exceeds the
        threshold; mobile ones come and go.
        """
        record = self.records.get(peer)
        if record is None or record.sessions == 0:
            return "unknown"
        if self.stability_of(peer) >= self.stable_session:
            return "stable"
        return "mobile"

    def stable_neighbors(self) -> list[str]:
        """Currently visible neighbours classified as stable, best first."""
        stable = [p for p in self.records if self.classify(p) == "stable"]
        stable.sort(key=self.stability_of, reverse=True)
        return stable


class OpRecord:
    """One observed operation, for the behaviour model."""

    __slots__ = ("kind", "pattern_key", "issued_at", "finished_at", "satisfied")

    def __init__(self, kind: str, pattern_key: tuple, issued_at: float) -> None:
        self.kind = kind
        self.pattern_key = pattern_key
        self.issued_at = issued_at
        self.finished_at: Optional[float] = None
        self.satisfied: Optional[bool] = None


def _pattern_key(pattern: Optional[Pattern]) -> tuple:
    """A hashable behaviour-model key: arity + spec reprs."""
    if pattern is None:
        return ("<none>",)
    return (pattern.arity,) + tuple(repr(s) for s in pattern.specs)


#: How many operations an AppMonitor remembers (the oldest fall off).
HISTORY = 512
#: The factor a LeaseTuner grows a pattern's lease by while its blocking
#: operations keep expiring unsatisfied.
GROW = 1.5
#: How far above a pattern's mean match latency a LeaseTuner aims its
#: lease while matches come quickly.
HEADROOM = 3.0


class AppMonitor:
    """Models application behaviour from the operations it performs.

    Call :meth:`observe` when an operation starts and :meth:`resolve` when
    it finishes; or use :meth:`attach` to hook a TiamatInstance so every
    operation is recorded automatically.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.history: deque = deque(maxlen=HISTORY)
        self.op_mix: Counter = Counter()
        self._attached: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def attach(self, instance) -> None:
        """Auto-record every operation the instance starts.

        Idempotent: attaching the same instance twice is a no-op (the
        wrapper is installed once, so operations are never double-counted)
        and reversible via :meth:`detach`, which restores the original
        ``_start_op``.
        """
        if id(instance) in self._attached:
            return
        # Remember whether _start_op was already overridden on the
        # *instance* (a stacked monitor) or still the plain class method,
        # so detach can restore exactly that state.
        had_override = "_start_op" in vars(instance)
        original = instance._start_op

        def wrapped(kind, pattern, requester, target=None):
            op = original(kind, pattern, requester, target=target)
            record = self.observe(kind.value, pattern)
            op.event.add_callback(
                lambda event: self.resolve(record, event.value is not None))
            return op

        self._attached[id(instance)] = (instance, original, wrapped,
                                        had_override)
        instance._start_op = wrapped

    def detach(self, instance) -> None:
        """Stop recording the instance's operations (history is retained).

        Restores the original ``_start_op`` if our wrapper is still the
        installed one; if another monitor wrapped on top of us since, the
        chain is left intact (detaching would silently disconnect them)
        and this monitor simply keeps recording until they unwind.
        Detaching an instance that was never attached is a no-op.
        """
        entry = self._attached.pop(id(instance), None)
        if entry is None:
            return
        _, original, wrapped, had_override = entry
        if instance._start_op is wrapped:
            if had_override:
                instance._start_op = original
            else:
                del instance._start_op  # back to the plain class method

    def observe(self, kind: str, pattern: Optional[Pattern]) -> OpRecord:
        """Record the start of an operation."""
        record = OpRecord(kind, _pattern_key(pattern), self.sim.now)
        self.history.append(record)
        self.op_mix[kind] += 1
        return record

    def resolve(self, record: OpRecord, satisfied: bool) -> None:
        """Record an operation's outcome."""
        record.finished_at = self.sim.now
        record.satisfied = satisfied

    # ------------------------------------------------------------------
    def success_rate(self, pattern: Optional[Pattern] = None) -> float:
        """Fraction of finished ops (optionally for one pattern) satisfied."""
        key = _pattern_key(pattern) if pattern is not None else None
        done = [r for r in self.history
                if r.satisfied is not None
                and (key is None or r.pattern_key == key)]
        if not done:
            return 0.0
        return sum(1 for r in done if r.satisfied) / len(done)

    def mean_match_latency(self, pattern: Optional[Pattern] = None) -> Optional[float]:
        """Mean time-to-satisfaction for satisfied ops (None if no data)."""
        key = _pattern_key(pattern) if pattern is not None else None
        latencies = [r.finished_at - r.issued_at for r in self.history
                     if r.satisfied and (key is None or r.pattern_key == key)]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def hot_patterns(self, top: int = 5) -> list[tuple]:
        """The most frequently queried pattern keys."""
        counts = Counter(r.pattern_key for r in self.history)
        return [key for key, _ in counts.most_common(top)]


class LeaseTuner:
    """Feedback controller over default blocking-lease durations (5.5).

    Per pattern: if recent blocking operations keep expiring unsatisfied,
    the suggested lease grows by ``GROW`` (the match takes longer to
    appear than the application allowed); if they match quickly, it
    shrinks toward ``HEADROOM`` times the observed latency — "resource
    allocation strategies which better suit the application".
    """

    def __init__(self, monitor: AppMonitor, base_duration: float = 30.0,
                 min_duration: float = 5.0, max_duration: float = 300.0
                 ) -> None:
        self.monitor = monitor
        self.base_duration = base_duration
        self.min_duration = min_duration
        self.max_duration = max_duration
        self._suggestions: dict[tuple, float] = {}

    def suggest(self, pattern: Pattern) -> LeaseTerms:
        """The tuned lease request for a blocking op on ``pattern``."""
        key = _pattern_key(pattern)
        current = self._suggestions.get(key, self.base_duration)
        rate = self.monitor.success_rate(pattern)
        latency = self.monitor.mean_match_latency(pattern)
        finished = [r for r in self.monitor.history
                    if r.pattern_key == key and r.satisfied is not None]
        if finished:
            if rate < 0.5:
                current = min(self.max_duration, current * GROW)
            elif latency is not None:
                target = max(self.min_duration, latency * HEADROOM)
                # move a third of the way toward the observed need
                current = current + (target - current) / 3.0
        current = max(self.min_duration, min(self.max_duration, current))
        self._suggestions[key] = current
        return LeaseTerms(duration=current)


class ConflictResolver:
    """Best-guess conflict handling under storage pressure (5.6).

    Periodically samples the lease manager.  When storage pressure exceeds
    ``high_water`` the resolver revokes oldest storage-bearing leases down
    to ``low_water`` (the "best guess").  It then monitors the refusal
    rate; if refusals *rise* in the window after an intervention, the
    guess made things worse and the low-water mark is raised (less
    aggressive reclamation) — "allow it to monitor the situation so that
    the decision can be reversed if things get worse".
    """

    def __init__(self, sim: Simulator, lease_manager, period: float = 5.0,
                 high_water: float = 0.9, low_water: float = 0.6) -> None:
        self.sim = sim
        self.leases = lease_manager
        self.period = period
        self.high_water = high_water
        self.low_water = low_water
        self.interventions = 0
        self.reversals = 0
        self._refusals_at_intervention: Optional[int] = None
        self._running = False

    def start(self) -> None:
        """Begin periodic sampling."""
        self._running = True
        self.sim.schedule(self.period, self._tick)

    def stop(self) -> None:
        """Stop sampling."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        usage = self.leases.usage()
        if self._refusals_at_intervention is not None:
            # Evaluate the previous best guess.
            if self.leases.refusals > self._refusals_at_intervention:
                self.reversals += 1
                self.low_water = min(self.high_water,
                                     self.low_water + 0.1)
            self._refusals_at_intervention = None
        if usage.storage_pressure >= self.high_water:
            capacity = self.leases.storage_capacity or 0
            target = int(capacity * self.low_water)
            self.leases.revoke_storage_pressure(target)
            self.interventions += 1
            self._refusals_at_intervention = self.leases.refusals
        self.sim.schedule(self.period, self._tick)
