"""Invariant oracles: what must *never* happen, read from the flight stream.

An :class:`InvariantMonitor` installs itself as a reader of the flight
recorder's stream (:meth:`repro.obs.flight.FlightRecorder.add_reader`)
for the duration of one simulated run, and hands each event to the
:class:`Oracle` shadows that read its code:

``ExactlyOnceOracle``
    Every tuple value is destructively consumed at most as many times as it
    was deposited (the paper's distributed-``in`` safety claim: "exactly one
    tuple is consumed network-wide").
``LeaseConservationOracle``
    Lease accounting conserves: at every grant/end the manager's reported
    ``active_count`` equals granted-minus-ended (granted ⊇ active ∪ expired
    ∪ released ∪ revoked, with no lease ever counted twice or leaked).
``RefusalVocabularyOracle``
    Every refusal reason on the wire (serving refusals and admission sheds)
    belongs to the closed vocabulary ``ALL_REFUSAL_REASONS``.
``ReliabilityNoDupOracle``
    The reliable sublayer never dispatches the same ``(src, dst, epoch,
    seq)`` frame to protocol handlers twice.
``ClaimExclusivityOracle``
    A blackboard task id is never concurrently held by two live claims
    (:mod:`repro.apps.agents` — the leased-``inp`` bid/claim protocol).
``QuorumSafetyOracle``
    One consensus question never yields two conflicting decisions (the
    rd-quorum + decision-token ballot of :mod:`repro.apps.agents`).

"No lookup returns an entry that was removed or is held" belongs to the
store alone; ``tests/test_store_pick.py`` checks it against a
filter-everything reference.

Violations are *recorded*, not raised: every :class:`Violation` carries the
kernel event index at which it was observed (``sim.events_processed`` when
the event was recorded), which is exactly what the shrinker needs to
bisect a run to a minimal reproducing prefix.  The monitor stops the
simulation at the first violation so exploration never wastes work past
the first bug, and keeps the flight dump taken then: the deposits, holds
and takes that led to it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class Violation:
    """One observed invariant breach, locatable in the event schedule."""

    __slots__ = ("oracle", "detail", "event_index", "event")

    def __init__(self, oracle: str, detail: str, event_index: int,
                 event: str) -> None:
        self.oracle = oracle
        self.detail = detail
        self.event_index = event_index
        self.event = event

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "detail": self.detail,
                "event_index": self.event_index, "event": self.event}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Violation {self.oracle} @event {self.event_index}: "
                f"{self.detail}>")


def _is_telemetry(tup: Any) -> bool:
    """Whether an event's tuple is an in-space telemetry health row.

    Telemetry rows (:mod:`repro.obs.telemetry`) are deposited under short
    leases and reclaimed by expiry without a matching take; the
    exactly-once claim is about *application* tuples, so they are skipped
    (mirroring the durable backends' skip-tag list).
    """
    fields = tup.fields
    return bool(fields) and fields[0] == "_telemetry"


class Oracle:
    """Base class: reads the event codes in ``codes``; reports via ``fail``.

    ``on_event`` gets one flight event as ``(node, t, code, kind, peer,
    detail)``: the ring it was recorded on, its time, and its slot.
    """

    name = "oracle"
    codes: tuple = ()

    def __init__(self) -> None:
        self.monitor: Optional["InvariantMonitor"] = None

    def on_event(self, node: str, t: float, code: str, kind: Any,
                 peer: Any, detail: Any) -> None:
        raise NotImplementedError

    def on_finish(self) -> None:
        """Called once after the run completes (final-state sweeps)."""

    def fail(self, detail: str, code: str) -> None:
        assert self.monitor is not None
        self.monitor.record(Violation(self.name, detail,
                                      self.monitor.event_index, code))


class ExactlyOnceOracle(Oracle):
    """Takes of a tuple value never exceed its deposits (multiset)."""

    name = "exactly_once"
    codes = ("deposit", "take")

    def __init__(self) -> None:
        super().__init__()
        self._deposited: Dict[Any, int] = {}
        self._consumed: Dict[Any, int] = {}

    def on_event(self, node, t, code, kind, peer, tup) -> None:
        if _is_telemetry(tup):
            return  # leased health rows are operational, not app state
        if code == "deposit":
            self._deposited[tup] = self._deposited.get(tup, 0) + 1
            return
        count = self._consumed.get(tup, 0) + 1
        self._consumed[tup] = count
        if count > self._deposited.get(tup, 0):
            self.fail(f"tuple {tup!r} consumed {count}x but deposited "
                      f"{self._deposited.get(tup, 0)}x", code)


class LeaseConservationOracle(Oracle):
    """granted = active + ended, at every lease lifecycle transition.

    Keyed by manager identity, the first field of each event's detail:
    a recovered node's new manager records on the same ring.
    """

    name = "lease_conservation"
    codes = ("lease_grant", "lease_end")

    def __init__(self) -> None:
        super().__init__()
        self._granted: Dict[Any, set] = {}   # manager -> lease ids
        self._ended: Dict[Any, set] = {}

    def on_event(self, node, t, code, kind, peer, detail) -> None:
        mgr, lease, active = detail
        granted = self._granted.setdefault(mgr, set())
        ended = self._ended.setdefault(mgr, set())
        if code == "lease_grant":
            if lease in granted:
                self.fail(f"lease #{lease} granted twice", code)
                return
            granted.add(lease)
        else:
            if lease in ended:
                self.fail(f"lease #{lease} ended twice ({kind})", code)
                return
            if lease not in granted:
                self.fail(f"lease #{lease} ended but never granted", code)
                return
            ended.add(lease)
        expected = len(granted) - len(ended)
        if active != expected:
            self.fail(
                f"lease accounting out of conservation: manager reports "
                f"{active} active, shadow expects {expected} "
                f"(granted={len(granted)}, ended={len(ended)})", code)


class RefusalVocabularyOracle(Oracle):
    """Every wire refusal reason belongs to the closed vocabulary."""

    name = "refusal_vocabulary"
    codes = ("refuse", "shed")

    def __init__(self) -> None:
        super().__init__()
        # Imported here, not at module top: oracles are never on a hot
        # path, and this module stays free of protocol imports.
        from repro.core.admission import ALL_REFUSAL_REASONS

        self._vocabulary = ALL_REFUSAL_REASONS

    def on_event(self, node, t, code, kind, peer, reason) -> None:
        if reason not in self._vocabulary:
            self.fail(f"refusal reason {reason!r} outside closed "
                      f"vocabulary {sorted(self._vocabulary)}", code)


class ReliabilityNoDupOracle(Oracle):
    """The reliable channel never dispatches one frame twice.

    Scoped per *receiver incarnation* (the detail's last field):
    dedup windows are volatile, so a node that crashes and durably
    recovers legitimately re-dispatches retransmissions its dead
    predecessor had already seen — at-least-once delivery, absorbed by
    the idempotent handlers above, not a dedup failure.
    """

    name = "reliability_no_dup"
    codes = ("dispatch",)

    def __init__(self) -> None:
        super().__init__()
        self._dispatched: set = set()

    def on_event(self, node, t, code, kind, peer, detail) -> None:
        key = (peer, node, *detail)
        if key in self._dispatched:
            self.fail(f"reliable frame {key} dispatched twice", code)
            return
        self._dispatched.add(key)


class ClaimExclusivityOracle(Oracle):
    """No task id is ever held by two live claim leases at once.

    The blackboard workload (:mod:`repro.apps.agents`) records ``claim``
    (with the claim lease's expiry) on the agent's ring when it wins a
    bid and ``release`` when it hands the task back — voluntarily, by
    completing it, or by observing its own death.  A claim whose lease
    has expired no longer excludes anyone (that expiry is exactly what
    re-offers work abandoned by crashed agents), so the shadow first
    retires expired holds at each claim's time; a *live* second hold on
    the same task is the mutual-exclusion breach the leased ``inp`` is
    supposed to make impossible.
    """

    name = "claim_exclusivity"
    codes = ("claim", "release")

    def __init__(self) -> None:
        super().__init__()
        self._held: Dict[Any, Dict[str, float]] = {}  # task -> agent -> exp

    def on_event(self, agent, now, code, kind, peer, detail) -> None:
        if code == "release":
            holders = self._held.get(detail)
            if holders is not None:
                holders.pop(agent, None)
            return
        task, expires_at = detail
        holders = self._held.setdefault(task, {})
        for other in [a for a, exp in holders.items() if exp <= now]:
            del holders[other]  # lease expired: no longer excludes
        if holders and agent not in holders:
            others = ", ".join(sorted(holders))
            self.fail(f"task {task!r} claimed by {agent!r} while "
                      f"live claim(s) held by {others}", code)
            return
        holders[agent] = expires_at


class QuorumSafetyOracle(Oracle):
    """One question, at most one decision value — ever.

    ``decide`` is recorded when a tallier wins the decision token after
    observing an rd-quorum of ballots.  Re-deciding the *same* value is
    harmless (an idempotent re-announcement); two *different* values for
    one question is split-brain consensus, the failure the decision token
    exists to prevent.
    """

    name = "quorum_safety"
    codes = ("decide",)

    def __init__(self) -> None:
        super().__init__()
        self._decided: Dict[Any, Any] = {}   # question -> (choice, agent)

    def on_event(self, agent, t, code, kind, peer, detail) -> None:
        question, choice = detail
        prior = self._decided.get(question)
        if prior is None:
            self._decided[question] = (choice, agent)
        elif prior[0] != choice:
            self.fail(
                f"question {question!r} decided {choice!r} by {agent!r} "
                f"but already decided {prior[0]!r} by {prior[1]!r} "
                f"(conflicting consensus)", code)


def default_oracles() -> List[Oracle]:
    """One instance of every oracle in the catalogue."""
    return [ExactlyOnceOracle(), LeaseConservationOracle(),
            RefusalVocabularyOracle(), ReliabilityNoDupOracle(),
            ClaimExclusivityOracle(), QuorumSafetyOracle()]


class InvariantMonitor:
    """A flight-stream reader: hands each event to the oracles reading it.

    Use as a context manager around one simulated run::

        monitor = InvariantMonitor(sim)
        with monitor:
            sim.run(until=horizon)
        monitor.finish()
        assert not monitor.violations

    ``stop_on_violation`` (default True) halts the simulation at the first
    breach so exploration never runs past the first bug; the recorded
    :class:`Violation` carries the kernel event index for the shrinker.
    """

    def __init__(self, sim=None, oracles: Optional[List[Oracle]] = None,
                 stop_on_violation: bool = True) -> None:
        self.sim = sim
        self.oracles = oracles if oracles is not None else default_oracles()
        #: Event code -> the ``on_event`` of each oracle that reads it.
        self._readers: Dict[str, List[Callable[..., None]]] = {}
        for oracle in self.oracles:
            oracle.monitor = self
            for code in oracle.codes:
                self._readers.setdefault(code, []).append(oracle.on_event)
        self.stop_on_violation = stop_on_violation
        self.violations: List[Violation] = []
        self.events_seen = 0
        #: The flight-recorder black box captured at the first violation
        #: (None until one fires, or when the recorder is disabled).
        self.flight_dump: Optional[Dict[str, Any]] = None
        #: Path the black box was written to (``$REPRO_FLIGHT_DIR`` set).
        self.flight_dump_path: Optional[str] = None

    # -- the reader ------------------------------------------------------
    @property
    def event_index(self) -> int:
        """Kernel event index of the event currently being read.

        ``events_processed`` is incremented *after* each callback returns,
        so during a callback it equals that callback's 0-based index —
        replaying with ``max_events = index + 1`` re-executes it.
        """
        if self.sim is None:
            return -1
        return self.sim.events_processed

    def __call__(self, node: str, t: float, code: str, op_id: Any,
                 kind: Any, peer: Any, detail: Any,
                 payload: Any = None) -> None:
        """Read one flight event (a frame event also brings its payload)."""
        self.events_seen += 1
        readers = self._readers.get(code)
        if readers is not None:
            for on_event in readers:
                on_event(node, t, code, kind, peer, detail)

    def record(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.sim is not None and self.flight_dump is None:
            self._capture_flight(violation)
        if self.stop_on_violation and self.sim is not None:
            self.sim.stop()

    def _capture_flight(self, violation: Violation) -> None:
        """Snapshot every node's flight ring at the first violation."""
        from repro.obs.flight import dump_to_env_dir

        recorder = self.sim.obs.flight
        detail = violation.to_dict()
        self.flight_dump = recorder.dump(
            f"violation:{violation.oracle}", detail=detail)
        self.flight_dump_path = dump_to_env_dir(
            recorder, f"violation-{violation.oracle}", detail=detail)

    def finish(self) -> None:
        """Run every oracle's final-state sweep (after the run loop)."""
        for oracle in self.oracles:
            oracle.on_finish()

    def check_managers(self, managers) -> None:
        """Final conservation sweep: every lease still in an active table
        must actually be in the ACTIVE state (catches silent leaks that
        never produce another lifecycle event)."""
        from repro.leasing.lease import LeaseState

        for manager in managers:
            for lease in manager.active.values():
                if lease.state is not LeaseState.ACTIVE:
                    self.violations.append(Violation(
                        "lease_conservation",
                        f"lease #{lease.lease_id} is {lease.state.value} "
                        f"but still in the active table (leak)",
                        self.event_index, "final_sweep"))

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "InvariantMonitor":
        self.sim.obs.flight.add_reader(self)
        return self

    def __exit__(self, *exc) -> None:
        self.sim.obs.flight.remove_reader(self)
