"""Configuration for a Tiamat instance.

The model leaves several behaviours open to the implementation; the config
object pins each one explicitly so experiments can ablate them:

``propagate_mode``
    ``"start"`` reproduces the paper's prototype ("operations are only
    propagated to instances which are visible at the beginning of the
    operation"); ``"continuous"`` implements the full model (instances
    becoming visible during the operation's lease are contacted too —
    the paper's stated area of future work).

``comms_strategy``
    ``"mru"`` is the prototype's cached visibility list (section 3.1.3);
    ``"multicast"`` performs a discovery multicast for every operation —
    the naive alternative the paper argues against, kept for the T1
    comparison bench.

The frame encoding is not a tunable: frames are JSON on every runtime
(``docs/PROTOCOL.md`` §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.leasing import LeaseTerms, OperationKind

if TYPE_CHECKING:  # pragma: no cover - type hint only, no runtime import
    from repro.fabric.config import FabricConfig


def _default_lease_terms() -> dict:
    return {
        OperationKind.OUT: LeaseTerms(duration=120.0),
        OperationKind.EVAL: LeaseTerms(duration=120.0),
        OperationKind.IN: LeaseTerms(duration=30.0, max_remotes=32),
        OperationKind.RD: LeaseTerms(duration=30.0, max_remotes=32),
        OperationKind.INP: LeaseTerms(duration=2.0, max_remotes=8),
        OperationKind.RDP: LeaseTerms(duration=2.0, max_remotes=8),
    }


@dataclass
class TiamatConfig:
    """Tunables for one Tiamat instance.

    Attributes
    ----------
    propagate_mode:
        ``"start"`` or ``"continuous"`` (see module docstring).
    comms_strategy:
        ``"mru"`` or ``"multicast"`` (see module docstring).
    peer_timeout:
        Seconds to wait for any response from a known-list peer before
        declaring it unreachable and removing it from the list.
    discover_window:
        Seconds to collect ``DISCOVER_ACK`` responses after a multicast.
    claim_timeout:
        Seconds a serving instance holds an offered tuple awaiting
        CLAIM_ACCEPT/REJECT before putting it back.
    serve_max_duration:
        Cap on the lease a serving instance grants itself for working on a
        remote instance's operation.
    default_lease_terms:
        Per-operation default lease requests, used when the application
        does not pass its own lease requester.
    persistent_space:
        Advertised in the space-info tuple (section 2.4): whether this
        instance's local space claims a persistence mechanism.
    relay_ttl:
        Hop budget for routed (``RELAY_OUT``) tuples.
    reliability_enabled:
        Whether the critical protocol frames (claim resolution, offers,
        remote deposits) travel over the ack/retransmit/dedup sublayer
        (:mod:`repro.core.reliability`).  Off reproduces the paper's pure
        best-effort prototype (the T10 ablation).
    retry_initial:
        First retransmission interval for an unacked reliable frame.
    retry_backoff:
        Multiplier applied to the interval after each attempt.
    retry_max_interval:
        Cap on the retransmission interval.
    retry_jitter:
        Multiplicative jitter (0..1) on each retransmission delay, so
        synchronized losers do not retry in lockstep.
    dedup_window:
        How many recently-seen sequence numbers the receive-side dedup
        window keeps per (peer, epoch).
    serve_cost:
        Virtual worker-seconds one inbound QUERY costs to dispatch.  ``0``
        (the default) keeps the original inline serving path — a QUERY is
        handled the instant it arrives.  ``> 0`` routes arriving QUERYs
        through the bounded inbound serving queue drained by
        ``serve_workers`` dispatch workers, which is where overload (and
        admission control) becomes observable.
    serve_workers:
        Dispatch workers draining the inbound serving queue (only
        meaningful with ``serve_cost > 0``).
    admission_enabled:
        Whether the :class:`~repro.core.admission.AdmissionController` is
        consulted at QUERY arrival, before any lease or thread
        allocation.  Off (the default) reproduces the uncontrolled
        baseline bit for bit: refusals only happen once the lease manager
        or thread pool says no.
    admission_queue_bound:
        Maximum inbound serving-queue depth (or, with inline serving,
        maximum concurrent servings) before arriving QUERYs are shed with
        ``reason="queue_full"``.
    admission_price_curve:
        Multiplier on the estimated queue delay when pricing work against
        its own deadline; ``> 1`` sheds earlier (conservative), ``< 1``
        later (optimistic).
    admission_fairness:
        Whether per-peer fair-share token buckets (denominated in
        worker-seconds, per section 2.5's arbitrary lease resources) gate
        admission so one hot origin cannot starve the rest.
    admission_burst:
        Fair-share bucket capacity, in worker-seconds: how much serving
        capacity one origin may consume in a burst before its refill rate
        throttles it.
    admission_retry_floor:
        Minimum ``retry_after`` hint attached to a shed refusal.  A blocking
        operation refused with a hint re-contacts the refusing peer after a
        capped exponential backoff that honours it; only admission-enabled
        servers send hints, so uncontrolled peers are never re-contacted.
    telemetry_enabled:
        Whether this instance periodically ``out``s a leased
        ``("_telemetry", node, epoch, payload)`` health row into its own
        space (see :mod:`repro.obs.telemetry` and ``repro top``).  Off by
        default: the publisher schedules events and negotiates leases, so
        it perturbs seeded schedules.
    telemetry_period:
        Seconds between telemetry beats.
    telemetry_lease:
        Requested lease duration for each health row; a dead node's rows
        expire (and are reclaimed by the space) this long after its last
        beat.
    fabric:
        A :class:`~repro.fabric.config.FabricConfig` to run this instance
        inside the sharded + replicated tuple-space fabric (consistent-hash
        routing, k-way replication, lease-governed shard handoff — see
        ``docs/PROTOCOL.md`` section 11).  ``None`` (the default) keeps the
        union-scan logical space and is bit-identical to the pre-fabric
        behaviour: no fabric code is imported, no fabric frames or payload
        keys appear on the wire.
    """

    propagate_mode: str = "start"
    comms_strategy: str = "mru"
    peer_timeout: float = 0.5
    discover_window: float = 0.1
    claim_timeout: float = 2.0
    serve_max_duration: float = 60.0
    default_lease_terms: dict = field(default_factory=_default_lease_terms)
    persistent_space: bool = False
    relay_ttl: int = 3
    reliability_enabled: bool = True
    retry_initial: float = 0.12
    retry_backoff: float = 2.0
    retry_max_interval: float = 1.0
    retry_jitter: float = 0.3
    dedup_window: int = 256
    serve_cost: float = 0.0
    serve_workers: int = 4
    admission_enabled: bool = False
    admission_queue_bound: int = 64
    admission_price_curve: float = 1.0
    admission_fairness: bool = True
    admission_burst: float = 0.25
    admission_retry_floor: float = 0.05
    telemetry_enabled: bool = False
    telemetry_period: float = 1.0
    telemetry_lease: float = 2.5
    fabric: Optional["FabricConfig"] = None

    def __post_init__(self) -> None:
        if self.propagate_mode not in ("start", "continuous"):
            raise ValueError(f"bad propagate_mode {self.propagate_mode!r}")
        if self.comms_strategy not in ("mru", "multicast"):
            raise ValueError(f"bad comms_strategy {self.comms_strategy!r}")
        if self.retry_initial <= 0 or self.retry_backoff < 1.0:
            raise ValueError("retry_initial must be > 0 and retry_backoff >= 1")
        if self.dedup_window < 1:
            raise ValueError("dedup_window must be >= 1")
        if self.serve_cost < 0:
            raise ValueError("serve_cost must be >= 0")
        if self.serve_workers < 1:
            raise ValueError("serve_workers must be >= 1")
        if self.admission_queue_bound < 1:
            raise ValueError("admission_queue_bound must be >= 1")
        if self.admission_price_curve <= 0:
            raise ValueError("admission_price_curve must be > 0")
        if self.telemetry_period <= 0:
            raise ValueError("telemetry_period must be > 0")
        if self.telemetry_lease <= 0:
            raise ValueError("telemetry_lease must be > 0")
        if self.fabric is not None and not hasattr(self.fabric, "replication"):
            raise ValueError("fabric must be a FabricConfig (or None)")

    def default_terms(self, kind: OperationKind) -> LeaseTerms:
        """The default lease request for an operation kind."""
        return self.default_lease_terms[kind]
