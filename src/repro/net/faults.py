"""Composable fault injection for the simulated network.

The base :class:`~repro.net.network.Network` models only uniform i.i.d.
loss; real broadcast media fail in richer ways — bursts, duplicated frames,
reordering, bit damage, asymmetric links, and whole devices power-cycling.
This module layers those behaviours over ``Network.unicast``/``multicast``
without touching protocol code: a :class:`FaultPlan` holds an ordered list
of injectors, each scoped to a link, a node, or the whole network, and the
network consults the plan once per frame.

Injectors

* :class:`RandomLoss` — extra i.i.d. loss on a scope.
* :class:`GilbertElliottLoss` — the classic two-state (good/bad) Markov
  burst-loss model; the chain steps once per matched frame.
* :class:`DuplicateFrames` — delivers N copies of a frame (each with its own
  latency draw), modelling link-layer retransmit duplicates.
* :class:`ReorderFrames` — adds a bounded random extra delay to a frame so
  it can overtake (or be overtaken by) its neighbours.
* :class:`CorruptPayload` — damages the frame in flight; the receiver
  rejects it and the network drops it (reason ``corrupt``).
* :class:`OneWayLink` — drops every frame in one direction of a link,
  modelling asymmetric radio reach.

Whole-node **crash + restart** is a different beast: it must round-trip an
instance through a :mod:`repro.tuples.storage` backend (the paper's §2.4
power-cycle story).  :class:`CrashRestartInjector` detaches the victim and
later builds a replacement that recovers from the backend — charging the
downtime against every tuple's remaining lease so expired tuples are
reclaimed rather than resurrected.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.message import Message
from repro.net.stats import DROP_FAULT
from repro.sim.rng import RngStream


class Delivery:
    """One planned delivery of a frame copy."""

    __slots__ = ("extra_delay", "corrupt")

    def __init__(self, extra_delay: float = 0.0, corrupt: bool = False) -> None:
        self.extra_delay = extra_delay
        self.corrupt = corrupt


class Verdict:
    """What the fault plan decided for one frame.

    Either the frame is dropped (``drop_reason`` set) or it is delivered as
    one or more :class:`Delivery` copies, each possibly delayed or damaged.
    """

    __slots__ = ("drop_reason", "deliveries")

    def __init__(self) -> None:
        self.drop_reason: Optional[str] = None
        self.deliveries: list[Delivery] = [Delivery()]

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None

    def drop(self, reason: str = DROP_FAULT) -> None:
        self.drop_reason = reason
        self.deliveries = []


class FaultInjector:
    """Base class: a scoped, per-frame fault behaviour.

    Scope selectors (all optional, AND-ed together):

    ``src`` / ``dst``
        only frames originated by / addressed to the named node;
    ``link``
        an (a, b) pair — frames in either direction between a and b;
    ``kinds``
        only frames whose payload ``kind`` is in the given set.
    """

    def __init__(self, src: Optional[str] = None, dst: Optional[str] = None,
                 link: Optional[tuple] = None,
                 kinds: Optional[frozenset] = None) -> None:
        self.src = src
        self.dst = dst
        self.link = frozenset(link) if link is not None else None
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.matched = 0

    def matches(self, msg: Message) -> bool:
        if self.src is not None and msg.src != self.src:
            return False
        if self.dst is not None and msg.dst != self.dst:
            return False
        if self.link is not None and {msg.src, msg.dst} != self.link:
            return False
        if self.kinds is not None and msg.kind not in self.kinds:
            return False
        return True

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        raise NotImplementedError


class RandomLoss(FaultInjector):
    """Extra i.i.d. loss at ``rate`` on the scope."""

    def __init__(self, rate: float, **scope) -> None:
        super().__init__(**scope)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate out of range: {rate}")
        self.rate = rate

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        if rng.random() < self.rate:
            verdict.drop()


class GilbertElliottLoss(FaultInjector):
    """Two-state Markov burst loss (Gilbert–Elliott).

    The chain starts *good* and steps once per matched frame:
    good → bad with probability ``p_gb``, bad → good with ``p_bg``.
    Every frame in the good state arrives and every frame in the bad state
    is lost: loss bursts with expected length ``1/p_bg`` frames.
    """

    def __init__(self, p_gb: float = 0.05, p_bg: float = 0.25,
                 **scope) -> None:
        super().__init__(**scope)
        for name, p in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of range: {p}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.bad = False
        self.bursts = 0

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        if self.bad:
            if rng.random() < self.p_bg:
                self.bad = False
        elif rng.random() < self.p_gb:
            self.bad = True
            self.bursts += 1
        if self.bad:
            # One draw per bad-state frame: seeded runs (T10, `repro
            # chaos`) are pinned to the stream this draw advances.
            rng.random()
            verdict.drop()


class DuplicateFrames(FaultInjector):
    """With probability ``prob``, deliver ``copies`` total copies."""

    def __init__(self, prob: float, copies: int = 2, **scope) -> None:
        super().__init__(**scope)
        if copies < 2:
            raise ValueError("copies must be >= 2")
        self.prob = prob
        self.copies = copies
        self.duplicated = 0

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        if verdict.deliveries and rng.random() < self.prob:
            self.duplicated += 1
            for _ in range(self.copies - 1):
                verdict.deliveries.append(Delivery())


class ReorderFrames(FaultInjector):
    """With probability ``prob``, delay a frame by up to ``max_extra_delay``.

    Delayed frames can be overtaken by later sends — bounded reordering
    (the bound keeps retransmission analysis tractable).
    """

    def __init__(self, prob: float, max_extra_delay: float = 0.1,
                 **scope) -> None:
        super().__init__(**scope)
        if max_extra_delay < 0:
            raise ValueError("max_extra_delay must be >= 0")
        self.prob = prob
        self.max_extra_delay = max_extra_delay
        self.reordered = 0

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        for delivery in verdict.deliveries:
            if rng.random() < self.prob:
                self.reordered += 1
                delivery.extra_delay += rng.random() * self.max_extra_delay


class CorruptPayload(FaultInjector):
    """With probability ``prob``, damage a frame copy in flight."""

    def __init__(self, prob: float, **scope) -> None:
        super().__init__(**scope)
        self.prob = prob
        self.corrupted = 0

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        for delivery in verdict.deliveries:
            if not delivery.corrupt and rng.random() < self.prob:
                self.corrupted += 1
                delivery.corrupt = True


class OneWayLink(FaultInjector):
    """Drop every frame travelling ``src`` → ``dst`` (reverse unaffected)."""

    def __init__(self, src: str, dst: str,
                 kinds: Optional[frozenset] = None) -> None:
        super().__init__(src=src, dst=dst, kinds=kinds)

    def apply(self, verdict: Verdict, msg: Message, rng: RngStream) -> None:
        verdict.drop()


class FaultPlan:
    """An ordered, composable set of fault injectors for one network.

    Install with ``network.use_faults(plan)``.  Injectors run in insertion
    order; a drop verdict short-circuits the rest.  The plan draws from its
    own named RNG stream so enabling faults never perturbs the randomness
    consumed elsewhere in a seeded run.
    """

    def __init__(self, injectors: Optional[list] = None) -> None:
        self.injectors: list[FaultInjector] = list(injectors or [])
        self.rng: Optional[RngStream] = None
        self.frames_seen = 0
        self.frames_dropped = 0

    def bind(self, network) -> None:
        """Called by the network when the plan is installed."""
        if self.rng is None:
            self.rng = network.sim.rng("net/faults")

    def judge(self, msg: Message) -> Verdict:
        """Run every matching injector over one frame."""
        self.frames_seen += 1
        verdict = Verdict()
        for injector in self.injectors:
            if verdict.dropped:
                break
            if injector.matches(msg):
                injector.matched += 1
                injector.apply(verdict, msg, self.rng)
        if verdict.dropped:
            self.frames_dropped += 1
        return verdict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultPlan injectors={len(self.injectors)} "
                f"seen={self.frames_seen} dropped={self.frames_dropped}>")


class CrashRestartInjector:
    """Scheduled crash + restart of Tiamat instances through a storage backend.

    The injector owns a registry mapping node name → live instance (the
    same dict the experiment uses, so lookups always find the current
    incarnation) and a ``factory(name)`` callable that builds and attaches
    a replacement instance.

    On **crash** the instance is shut down (detached from the network,
    retransmit timers cancelled) and its backend detached, so stale timers
    of the dead incarnation can no longer log.  In-flight operations
    *against* the victim terminate via their lease deadlines; nothing
    wedges.  A node listed in ``backends`` (name →
    :class:`~repro.tuples.storage.base.StorageBackend`, attached by the
    caller) dies like a killed process: whatever its backend had durably
    recorded *before* the crash is all that survives.  A node that is not
    powers down politely: its space is imaged into a
    :class:`~repro.tuples.storage.base.MemoryBackend` first — a crash whose
    log is complete.

    On **restart** a fresh instance goes through
    :meth:`TiamatInstance.recover_from`: the downtime is charged against
    every lease, tuples whose leases ran out while the device was off are
    reclaimed instead of restored, survivors keep their entry ids and are
    re-leased.  A node with its own backend then runs the anti-entropy
    rejoin that purges tuples consumed remotely behind a torn removal
    record; an image the injector itself just wrote has no torn record to
    reconcile and skips it.
    """

    def __init__(self, sim, registry: dict,
                 factory: Callable[[str], object],
                 backends: Optional[dict] = None) -> None:
        self.sim = sim
        self.registry = registry
        self.factory = factory
        self.backends = backends if backends is not None else {}
        self._down: dict[str, tuple] = {}  # name -> (crashed_at, backend)
        self._recovered: list = []
        self.crashes = 0
        self.restarts = 0
        self.tuples_restored = 0
        self.tuples_reclaimed = 0

    @property
    def ghosts_purged(self) -> int:
        """Tuples purged by anti-entropy rejoin across every incarnation.

        Purges land asynchronously (when SYNC_RESPONSEs arrive), so this
        sums the live counters of every instance this injector recovered
        rather than sampling at restart time.
        """
        return sum(inst.ghosts_purged for inst in self._recovered)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def crash_at(self, name: str, time: float) -> None:
        """Crash ``name`` at the given absolute virtual time."""
        self.sim.schedule_at(time, self.crash, name)

    def restart_at(self, name: str, time: float) -> None:
        """Restart ``name`` at the given absolute virtual time."""
        self.sim.schedule_at(time, self.restart, name)

    def power_cycle(self, name: str, crash_time: float,
                    restart_time: float) -> None:
        """Schedule a crash followed by a restart."""
        if restart_time <= crash_time:
            raise ValueError("restart must come after crash")
        self.crash_at(name, crash_time)
        self.restart_at(name, restart_time)

    # ------------------------------------------------------------------
    # Immediate control
    # ------------------------------------------------------------------
    def crash(self, name: str) -> None:
        """Take the instance down now, imaging its space if nobody logs it."""
        from repro.tuples.storage.base import MemoryBackend, attach_backend

        instance = self.registry.get(name)
        if instance is None:
            return
        backend = self.backends.get(name)
        if backend is None:
            backend = attach_backend(instance.space, MemoryBackend())
            for entry in instance.space.store:
                if entry.held:
                    # A two-phase claim cannot survive a power cycle, and
                    # no rejoin will follow to say how it ended.
                    backend.record_remove(entry.entry_id, "held", self.sim.now)
        backend.detach()
        self._down[name] = (self.sim.now, backend)
        instance.shutdown()
        del self.registry[name]
        self.crashes += 1

    def restart(self, name: str) -> None:
        """Bring a crashed instance back, recovering from its backend."""
        if name in self.registry or name not in self._down:
            return
        crashed_at, backend = self._down.pop(name)
        instance = self.factory(name)
        stats = instance.recover_from(
            backend,
            downtime=max(0.0, self.sim.now - crashed_at),
            sync=name in self.backends)
        self.tuples_restored += stats.restored
        self.tuples_reclaimed += stats.reclaimed
        self._recovered.append(instance)
        self.registry[name] = instance
        self.restarts += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CrashRestartInjector crashes={self.crashes} "
                f"restarts={self.restarts}>")
