"""Invariant oracles: what must *never* happen, watched passively.

An :class:`InvariantMonitor` installs itself as the probe sink
(:mod:`repro.check.probes`) for the duration of one simulated run and feeds
every probe event to a set of :class:`Oracle` shadows:

``ExactlyOnceOracle``
    Every tuple value is destructively consumed at most as many times as it
    was deposited (the paper's distributed-``in`` safety claim: "exactly one
    tuple is consumed network-wide").
``GhostReadOracle``
    A scan never matches an entry the store already removed ("no ghost
    reads after remove") — the classic stale-index bug class.
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

Violations are *recorded*, not raised: every :class:`Violation` carries the
kernel event index at which it was observed (``sim.events_processed`` at
probe time), which is exactly what the shrinker needs to bisect a run to a
minimal reproducing prefix.  The monitor stops the simulation at the first
violation so exploration never wastes work past the first bug.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.check import probes


class Violation:
    """One observed invariant breach, locatable in the event schedule."""

    __slots__ = ("oracle", "detail", "event_index", "probe", "fields")

    def __init__(self, oracle: str, detail: str, event_index: int,
                 probe: str, fields: Optional[dict] = None) -> None:
        self.oracle = oracle
        self.detail = detail
        self.event_index = event_index
        self.probe = probe
        self.fields = dict(fields or {})

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "detail": self.detail,
                "event_index": self.event_index, "probe": self.probe}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Violation {self.oracle} @event {self.event_index}: "
                f"{self.detail}>")


def _is_telemetry(tup: Any) -> bool:
    """Whether a probe's tuple is an in-space telemetry health row.

    Telemetry rows (:mod:`repro.obs.telemetry`) are deposited under short
    leases and reclaimed by expiry without a matching consume; the
    exactly-once claim is about *application* tuples, so they are skipped
    (mirroring the durable backends' skip-tag list).
    """
    fields = getattr(tup, "fields", None)
    return bool(fields) and fields[0] == "_telemetry"


class Oracle:
    """Base class: sees every probe event; reports via ``fail``."""

    name = "oracle"

    def __init__(self) -> None:
        self.monitor: Optional["InvariantMonitor"] = None

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        raise NotImplementedError

    def on_finish(self) -> None:
        """Called once after the run completes (final-state sweeps)."""

    def fail(self, detail: str, probe: str, fields: Dict[str, Any]) -> None:
        assert self.monitor is not None
        self.monitor.record(Violation(self.name, detail,
                                      self.monitor.event_index, probe,
                                      fields))


class ExactlyOnceOracle(Oracle):
    """Consumptions of a tuple value never exceed its deposits (multiset)."""

    name = "exactly_once"

    def __init__(self) -> None:
        super().__init__()
        self._deposited: Dict[Any, int] = {}
        self._consumed: Dict[Any, int] = {}

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event == "space.deposit":
            tup = fields["tup"]
            if _is_telemetry(tup):
                return  # leased health rows are operational, not app state
            self._deposited[tup] = self._deposited.get(tup, 0) + 1
        elif event == "space.consume":
            tup = fields["tup"]
            if _is_telemetry(tup):
                return
            count = self._consumed.get(tup, 0) + 1
            self._consumed[tup] = count
            if count > self._deposited.get(tup, 0):
                self.fail(
                    f"tuple {tup!r} consumed {count}x but deposited "
                    f"{self._deposited.get(tup, 0)}x", event, fields)


class GhostReadOracle(Oracle):
    """A match must never name an entry the store already removed."""

    name = "ghost_read"

    def __init__(self) -> None:
        super().__init__()
        self._dead: set = set()   # (store_id, entry_id) removed for good
        self._live: set = set()

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event == "store.add":
            key = (fields["store"], fields["entry"])
            self._live.add(key)
            self._dead.discard(key)
        elif event == "store.remove":
            key = (fields["store"], fields["entry"])
            self._live.discard(key)
            self._dead.add(key)
        elif event == "store.match":
            key = (fields["store"], fields["entry"])
            if key in self._dead:
                self.fail(f"scan matched removed entry #{fields['entry']} "
                          f"(ghost read)", event, fields)


class LeaseConservationOracle(Oracle):
    """granted = active + ended, at every lease lifecycle transition."""

    name = "lease_conservation"

    def __init__(self) -> None:
        super().__init__()
        self._granted: Dict[Any, set] = {}   # manager -> lease ids
        self._ended: Dict[Any, set] = {}

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event == "lease.granted":
            mgr = fields["manager"]
            granted = self._granted.setdefault(mgr, set())
            ended = self._ended.setdefault(mgr, set())
            lease = fields["lease"]
            if lease in granted:
                self.fail(f"lease #{lease} granted twice", event, fields)
                return
            granted.add(lease)
            self._check(mgr, fields["active_count"], event, fields)
        elif event == "lease.ended":
            mgr = fields["manager"]
            granted = self._granted.setdefault(mgr, set())
            ended = self._ended.setdefault(mgr, set())
            lease = fields["lease"]
            if lease in ended:
                self.fail(f"lease #{lease} ended twice "
                          f"({fields.get('state')})", event, fields)
                return
            if lease not in granted:
                self.fail(f"lease #{lease} ended but never granted",
                          event, fields)
                return
            ended.add(lease)
            self._check(mgr, fields["active_count"], event, fields)

    def _check(self, mgr: Any, reported: int, event: str,
               fields: Dict[str, Any]) -> None:
        expected = len(self._granted[mgr]) - len(self._ended[mgr])
        if reported != expected:
            self.fail(
                f"lease accounting out of conservation: manager reports "
                f"{reported} active, shadow expects {expected} "
                f"(granted={len(self._granted[mgr])}, "
                f"ended={len(self._ended[mgr])})", event, fields)


class RefusalVocabularyOracle(Oracle):
    """Every wire refusal reason belongs to the closed vocabulary."""

    name = "refusal_vocabulary"

    def __init__(self) -> None:
        super().__init__()
        # Imported here, not at module top: oracles are never on a hot
        # path, and this keeps probes.py dependency-free by construction.
        from repro.core.admission import ALL_REFUSAL_REASONS

        self._vocabulary = ALL_REFUSAL_REASONS

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event in ("serving.refusal", "admission.shed"):
            reason = fields.get("reason")
            if reason not in self._vocabulary:
                self.fail(f"refusal reason {reason!r} outside closed "
                          f"vocabulary {sorted(self._vocabulary)}",
                          event, fields)


class ReliabilityNoDupOracle(Oracle):
    """The reliable channel never dispatches one frame twice.

    Scoped per *receiver incarnation* (the ``rinc`` probe field): dedup
    windows are volatile, so a node that crashes and durably recovers
    legitimately re-dispatches retransmissions its dead predecessor had
    already seen — at-least-once delivery, absorbed by the idempotent
    handlers above, not a dedup failure.
    """

    name = "reliability_no_dup"

    def __init__(self) -> None:
        super().__init__()
        self._dispatched: set = set()

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event == "rel.dispatch":
            key = (fields["src"], fields["dst"], fields["epoch"],
                   fields["seq"], fields.get("rinc"))
            if key in self._dispatched:
                self.fail(f"reliable frame {key} dispatched twice",
                          event, fields)
                return
            self._dispatched.add(key)


class ClaimExclusivityOracle(Oracle):
    """No task id is ever held by two live claim leases at once.

    The blackboard workload (:mod:`repro.apps.agents`) emits
    ``agents.claim`` (with the claim lease's ``expires_at``) when an agent
    wins a bid and ``agents.release`` when it hands the task back —
    voluntarily, by completing it, or by observing its own death.  A claim
    whose lease has expired no longer excludes anyone (that expiry is
    exactly what re-offers work abandoned by crashed agents), so the
    shadow first retires expired holds at each event's ``now``; a *live*
    second hold on the same task is the mutual-exclusion breach the leased
    ``inp`` is supposed to make impossible.
    """

    name = "claim_exclusivity"

    def __init__(self) -> None:
        super().__init__()
        self._held: Dict[Any, Dict[str, float]] = {}  # task -> agent -> exp

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event == "agents.claim":
            task = fields["task"]
            now = fields["now"]
            holders = self._held.setdefault(task, {})
            for agent in [a for a, exp in holders.items() if exp <= now]:
                del holders[agent]  # lease expired: no longer excludes
            agent = fields["agent"]
            if holders and agent not in holders:
                others = ", ".join(sorted(holders))
                self.fail(f"task {task!r} claimed by {agent!r} while "
                          f"live claim(s) held by {others}", event, fields)
                return
            holders[agent] = fields["expires_at"]
        elif event == "agents.release":
            holders = self._held.get(fields["task"])
            if holders is not None:
                holders.pop(fields["agent"], None)


class QuorumSafetyOracle(Oracle):
    """One question, at most one decision value — ever.

    ``agents.decide`` fires when a tallier wins the decision token after
    observing an rd-quorum of ballots.  Re-deciding the *same* value is
    harmless (an idempotent re-announcement); two *different* values for
    one question is split-brain consensus, the failure the decision token
    exists to prevent.
    """

    name = "quorum_safety"

    def __init__(self) -> None:
        super().__init__()
        self._decided: Dict[Any, Any] = {}   # question -> (choice, agent)

    def on_event(self, event: str, fields: Dict[str, Any]) -> None:
        if event == "agents.decide":
            question = fields["question"]
            choice = fields["choice"]
            prior = self._decided.get(question)
            if prior is None:
                self._decided[question] = (choice, fields["agent"])
            elif prior[0] != choice:
                self.fail(
                    f"question {question!r} decided {choice!r} by "
                    f"{fields['agent']!r} but already decided {prior[0]!r} "
                    f"by {prior[1]!r} (conflicting consensus)",
                    event, fields)


def default_oracles() -> List[Oracle]:
    """One instance of every oracle in the catalogue."""
    return [ExactlyOnceOracle(), GhostReadOracle(),
            LeaseConservationOracle(), RefusalVocabularyOracle(),
            ReliabilityNoDupOracle(), ClaimExclusivityOracle(),
            QuorumSafetyOracle()]


class InvariantMonitor:
    """The probe sink: fans every event out to the oracle shadows.

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
        for oracle in self.oracles:
            oracle.monitor = self
        self.stop_on_violation = stop_on_violation
        self.violations: List[Violation] = []
        self.events_seen = 0
        #: The flight-recorder black box captured at the first violation
        #: (None until one fires, or when the recorder is disabled).
        self.flight_dump: Optional[Dict[str, Any]] = None
        #: Path the black box was written to (``$REPRO_FLIGHT_DIR`` set).
        self.flight_dump_path: Optional[str] = None

    # -- sink protocol --------------------------------------------------
    @property
    def event_index(self) -> int:
        """Kernel event index of the probe currently being processed.

        ``events_processed`` is incremented *after* each callback returns,
        so during a callback it equals that callback's 0-based index —
        replaying with ``max_events = index + 1`` re-executes it.
        """
        if self.sim is None:
            return -1
        return self.sim.events_processed

    def __call__(self, event: str, fields: Dict[str, Any]) -> None:
        self.events_seen += 1
        for oracle in self.oracles:
            oracle.on_event(event, fields)

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
        probes.install(self)
        return self

    def __exit__(self, *exc) -> None:
        probes.uninstall()
