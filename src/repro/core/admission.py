"""Admission control: lease-priced overload shedding at QUERY arrival.

The paper makes the lease manager "the first point of contact for *any*
operation" and lets leases be denominated in arbitrary resources (section
2.5).  Until now an overloaded :class:`~repro.core.serving.QueryServer`
only refused once the worker pool was already exhausted — after a lease
negotiation and a thread allocation had been spent on work that was about
to be turned away — and the refusal itself was a bare ``found: False``
with no reason and no retry guidance.

:class:`AdmissionController` moves that decision to the front door.  It is
consulted when a QUERY *arrives*, before any lease or thread is allocated,
and prices the incoming work from live load signals:

* **worker-pool utilisation** — the lease manager's thread factory;
* **bounded inbound serving-queue depth and estimated drain delay** — how
  long a newly admitted query would sit before a worker picks it up;
* **active servings** — remote operations already being worked on.

Work whose estimated queue delay exceeds its own declared deadline (the
remaining lease time the origin put in the QUERY frame) is shed
immediately: admitting it would burn a worker on an answer nobody is
waiting for.  A per-peer **fair-share token bucket**, denominated in
worker-seconds (the same resource the serving lease spends), prevents one
hot origin from starving the rest.

Every shed is a structured ``QUERY_REFUSED`` carrying ``reason`` and a
``retry_after`` hint; origins honour the hint with capped exponential
backoff + jitter (see :meth:`repro.core.ops.Operation.deliver_reply`)
instead of blind re-issue.  All of this is **default-off**: with
``TiamatConfig.admission_enabled`` false the server behaves bit-for-bit
like the uncontrolled baseline.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

__all__ = [
    "ALL_REFUSAL_REASONS",
    "AdmissionController",
    "AdmissionDecision",
    "FairShare",
    "REFUSE_DEADLINE",
    "REFUSE_FAIR_SHARE",
    "REFUSE_QUEUE_FULL",
    "REFUSE_SERVING_LEASE",
    "REFUSE_THREADS",
    "Refusal",
    "parse_refusal",
]

# ----------------------------------------------------------------------
# Structured refusal reasons (the QUERY_REFUSED ``reason`` vocabulary)
# ----------------------------------------------------------------------

#: The serving instance's lease manager refused the serving lease.
REFUSE_SERVING_LEASE = "serving_lease"
#: The worker-thread pool is exhausted.
REFUSE_THREADS = "threads_exhausted"
#: The bounded inbound serving queue is full.
REFUSE_QUEUE_FULL = "queue_full"
#: The priced queue delay exceeds the operation's own deadline.
REFUSE_DEADLINE = "deadline_unmeetable"
#: The origin is over its fair share of serving capacity.
REFUSE_FAIR_SHARE = "fair_share"

#: Every refusal reason a conforming emitter may put on the wire.
ALL_REFUSAL_REASONS = frozenset({
    REFUSE_SERVING_LEASE,
    REFUSE_THREADS,
    REFUSE_QUEUE_FULL,
    REFUSE_DEADLINE,
    REFUSE_FAIR_SHARE,
})


class Refusal:
    """One parsed ``QUERY_REFUSED``: who said no, why, and when to retry.

    Surfaced on the origin side as :attr:`repro.core.ops.Operation.refusals`
    so applications can distinguish "the space had nothing" from "the peer
    was overloaded, come back in 0.3 s".
    """

    __slots__ = ("peer", "reason", "retry_after")

    def __init__(self, peer: str, reason: str,
                 retry_after: Optional[float] = None) -> None:
        self.peer = peer
        self.reason = reason
        self.retry_after = retry_after

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Refusal)
                and (other.peer, other.reason, other.retry_after)
                == (self.peer, self.reason, self.retry_after))

    def __repr__(self) -> str:
        hint = "" if self.retry_after is None else f" retry_after={self.retry_after:.3f}"
        return f"<Refusal {self.peer} {self.reason}{hint}>"


def parse_refusal(peer: str, payload: dict) -> Refusal:
    """Parse a ``QUERY_REFUSED`` payload into a :class:`Refusal`.

    Pre-redesign emitters sent no ``reason``; those parse as
    ``"serving_lease"`` (the only refusal the legacy shape could mean).
    """
    reason = payload.get("reason", REFUSE_SERVING_LEASE)
    retry_after = payload.get("retry_after")
    if retry_after is not None:
        retry_after = float(retry_after)
    return Refusal(peer, str(reason), retry_after)


class AdmissionDecision:
    """The controller's verdict on one arriving QUERY."""

    __slots__ = ("admitted", "reason", "retry_after", "price")

    def __init__(self, admitted: bool, reason: Optional[str] = None,
                 retry_after: Optional[float] = None,
                 price: float = 0.0) -> None:
        self.admitted = admitted
        self.reason = reason
        self.retry_after = retry_after
        self.price = price

    @classmethod
    def admit(cls, price: float = 0.0) -> "AdmissionDecision":
        """An admit verdict (``price`` is the worker-seconds charged)."""
        return cls(True, price=price)

    @classmethod
    def shed(cls, reason: str,
             retry_after: Optional[float] = None) -> "AdmissionDecision":
        """A shed verdict with its structured reason and retry hint."""
        return cls(False, reason=reason, retry_after=retry_after)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.admitted:
            return f"<AdmissionDecision admit price={self.price:.3f}>"
        return f"<AdmissionDecision shed {self.reason} retry={self.retry_after}>"


#: Multiplier on the estimated queue delay when pricing work against its
#: own deadline; ``> 1`` would shed earlier, ``< 1`` later.
PRICE_CURVE = 1.0
#: Fair-share bucket capacity, in worker-seconds: how much serving
#: capacity one origin may consume in a burst before its refill rate
#: throttles it.
BURST = 0.25
#: Minimum ``retry_after`` hint attached to a shed refusal.  A blocking
#: operation refused with a hint re-contacts the refusing peer after a
#: capped exponential back-off that honours it; only admission-enabled
#: servers send hints, so uncontrolled peers are never re-contacted.
RETRY_FLOOR = 0.05

#: Relative price of serving each operation kind, in units of one probe.
#: Blocking operations hold a watch, a worker thread, and possibly a held
#: tuple through a claim round, so they are priced above probes.
PRICE_WEIGHTS = {
    "rdp": 1.0,
    "inp": 1.25,
    "rd": 2.0,
    "in": 2.5,
}


#: An origin unheard for longer than this (seconds) leaves the fair-share
#: split.
FAIR_WINDOW = 5.0


class FairShare:
    """Per-peer token buckets denominated in worker-seconds.

    Each origin gets an equal share of the serving capacity rate
    (``capacity_rate`` worker-seconds per second, split across the origins
    seen within ``FAIR_WINDOW`` seconds).  Buckets refill lazily from the
    injected clock, so refill is deterministic under the simulation clock
    and cheap under the wall clock.
    """

    __slots__ = ("clock", "capacity_rate", "burst", "_buckets")

    def __init__(self, clock: Callable[[], float], capacity_rate: float,
                 burst: float) -> None:
        self.clock = clock
        self.capacity_rate = capacity_rate
        self.burst = burst
        # peer -> [tokens, last_refill_time]
        self._buckets: dict[str, list[float]] = {}

    def _prune(self, now: float, keep: str) -> None:
        stale = [peer for peer, (_, last) in self._buckets.items()
                 if peer != keep and now - last > FAIR_WINDOW]
        for peer in stale:
            del self._buckets[peer]

    def rate_per_peer(self) -> float:
        """The refill rate each active origin currently enjoys."""
        return self.capacity_rate / max(1, len(self._buckets))

    def spend(self, peer: str, cost: float) -> Optional[float]:
        """Charge ``cost`` worker-seconds to ``peer``'s bucket.

        Returns ``None`` when the bucket affords it, else the time (in
        seconds) until the bucket will have refilled enough — the
        ``retry_after`` hint for a fair-share shed.
        """
        now = self.clock()
        bucket = self._buckets.get(peer)
        if bucket is None:
            bucket = self._buckets[peer] = [self.burst, now]
        self._prune(now, keep=peer)
        rate = self.rate_per_peer()
        tokens, last = bucket
        tokens = min(self.burst, tokens + (now - last) * rate)
        bucket[1] = now
        if tokens >= cost:
            bucket[0] = tokens - cost
            return None
        bucket[0] = tokens
        if rate <= 0:
            return None  # a zero-rate share cannot meaningfully throttle
        return (cost - tokens) / rate

    def debts(self) -> Iterator[tuple[str, float]]:
        """Yield ``(peer, debt)`` pairs: how far below full each bucket is.

        Exposed as the ``admission_peer_debt`` gauge family — a hot origin
        shows a persistently high debt while well-behaved peers hover near
        zero.
        """
        for peer, (tokens, _) in sorted(self._buckets.items()):
            yield peer, max(0.0, self.burst - tokens)


class AdmissionController:
    """Prices arriving QUERYs against live load and sheds the unservable.

    The controller is pure decision logic: the :class:`QueryServer` owns
    the queue and the workers and feeds their live state in through
    :meth:`consider`.  The clock is injected so the class serves the
    simulated stack (virtual clock) and a wall-clock caller alike.  The
    per-peer fair share is on whenever serving has a rate and a cost
    (``capacity_rate > 0`` and ``unit_cost > 0``).
    """

    def __init__(self, *, clock: Callable[[], float],
                 queue_bound: int = 64,
                 capacity_rate: float = 0.0,
                 unit_cost: float = 0.0) -> None:
        if queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        self.clock = clock
        self.queue_bound = queue_bound
        self.unit_cost = unit_cost
        self.fair_share: Optional[FairShare] = None
        if capacity_rate > 0 and unit_cost > 0:
            self.fair_share = FairShare(clock, capacity_rate, BURST)
        # statistics (read by repro.obs collect-time callbacks)
        self.admitted = 0
        self.shed_by_reason: dict[str, int] = {}
        #: Observer hook for the estimated-queue-delay histogram.
        self.delay_observer: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    def consider(self, origin: str, kind: str, *,
                 queue_depth: int,
                 drain_rate: float,
                 utilisation: float,
                 active_servings: int,
                 deadline: Optional[float] = None) -> AdmissionDecision:
        """Price one arriving QUERY and decide admit vs shed.

        Parameters are the live load signals at arrival time:
        ``queue_depth`` (inbound serving queue), ``drain_rate`` (queries
        per second the workers clear, 0 when serving is inline),
        ``utilisation`` (the lease manager's worker-pool utilisation),
        ``active_servings``, and the operation's own declared ``deadline``
        (remaining origin-lease seconds from the QUERY frame).
        """
        # Estimated delay a newly admitted query would face in the queue.
        est_delay = 0.0
        if drain_rate > 0:
            est_delay = (queue_depth + 1) / drain_rate
        if self.delay_observer is not None:
            self.delay_observer(est_delay)

        # 1. Worker pool already exhausted: refuse before spending a lease
        #    negotiation on it (the pre-admission design paid that cost).
        if utilisation >= 1.0:
            return self._shed(REFUSE_THREADS, max(RETRY_FLOOR, est_delay))

        # 2. Bounded inbound queue: cheap depth check.  ``active_servings``
        #    stands in for depth when serving is inline (drain_rate == 0).
        depth_signal = queue_depth if drain_rate > 0 else active_servings
        if depth_signal >= self.queue_bound:
            return self._shed(REFUSE_QUEUE_FULL, max(RETRY_FLOOR, est_delay))

        # 3. Price the work against its own deadline: the priced delay is
        #    the estimated queue delay scaled by the price curve and the
        #    operation kind's weight.  Admitting work that will expire in
        #    the queue burns a worker on an answer nobody is waiting for.
        weight = PRICE_WEIGHTS.get(kind, 1.0)
        priced_delay = est_delay * PRICE_CURVE * weight
        if deadline is not None and drain_rate > 0 and priced_delay >= deadline:
            retry = max(RETRY_FLOOR, priced_delay - deadline + 1.0 / drain_rate)
            return self._shed(REFUSE_DEADLINE, retry)

        # 4. Fair share: charge the origin's bucket the actual
        #    worker-seconds this query will consume.
        cost = self.unit_cost
        if self.fair_share is not None and cost > 0:
            wait = self.fair_share.spend(origin, cost)
            if wait is not None:
                return self._shed(REFUSE_FAIR_SHARE, max(RETRY_FLOOR, wait))

        self.admitted += 1
        return AdmissionDecision.admit(price=cost * weight)

    def _shed(self, reason: str, retry_after: float) -> AdmissionDecision:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return AdmissionDecision.shed(reason, retry_after)

    # ------------------------------------------------------------------
    @property
    def shed_total(self) -> int:
        """Total queries shed, over all reasons."""
        return sum(self.shed_by_reason.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AdmissionController admitted={self.admitted} "
                f"shed={self.shed_total} bound={self.queue_bound}>")
