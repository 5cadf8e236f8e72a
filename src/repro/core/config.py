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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type hint only, no runtime import
    from repro.fabric.config import FabricConfig

#: Seconds to wait for any response from a known-list peer before
#: declaring it unreachable and removing it from the list.
PEER_TIMEOUT = 0.5

#: The capped exponential retransmission schedule shared by the reliable
#: sublayer, the origin's refusal back-off and the aio runtime's request
#: retries: the first interval, its growth per attempt, its cap, and the
#: multiplicative jitter (0..1) that keeps synchronized losers apart.
RETRY_INITIAL = 0.12
RETRY_BACKOFF = 2.0
RETRY_MAX_INTERVAL = 1.0
RETRY_JITTER = 0.3


@dataclass
class TiamatConfig:
    """Tunables for one Tiamat instance: only the settings two callers set
    differently.  The fixed values are module constants beside their
    readers (the shared ones above).

    Attributes
    ----------
    propagate_mode:
        ``"start"`` or ``"continuous"`` (see module docstring).
    comms_strategy:
        ``"mru"`` or ``"multicast"`` (see module docstring).
    claim_timeout:
        Seconds a serving instance holds an offered tuple awaiting
        CLAIM_ACCEPT/REJECT before putting it back (``> 0``).
    relay_ttl:
        Hop budget for routed (``RELAY_OUT``) tuples (``>= 0``).
    reliability_enabled:
        Whether the critical protocol frames (claim resolution, offers,
        remote deposits) travel over the ack/retransmit/dedup sublayer
        (:mod:`repro.core.reliability`).  Off reproduces the paper's pure
        best-effort prototype (the T10 ablation).
    serve_cost:
        Virtual worker-seconds one inbound QUERY costs to dispatch.  ``0``
        (the default) keeps the original inline serving path — a QUERY is
        handled the instant it arrives.  ``> 0`` routes arriving QUERYs
        through the bounded inbound serving queue drained by
        ``serve_workers`` dispatch workers, which is where overload (and
        admission control, with its per-peer fair share) becomes
        observable.
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
    telemetry_enabled:
        Whether this instance periodically ``out``s a leased
        ``("_telemetry", node, epoch, payload)`` health row into its own
        space (see :mod:`repro.obs.telemetry` and ``repro top``).  Off by
        default: the publisher schedules events and negotiates leases, so
        it perturbs seeded schedules.
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
    claim_timeout: float = 2.0
    relay_ttl: int = 3
    reliability_enabled: bool = True
    serve_cost: float = 0.0
    serve_workers: int = 4
    admission_enabled: bool = False
    admission_queue_bound: int = 64
    telemetry_enabled: bool = False
    fabric: Optional["FabricConfig"] = None

    def __post_init__(self) -> None:
        if self.propagate_mode not in ("start", "continuous"):
            raise ValueError(f"bad propagate_mode {self.propagate_mode!r}")
        if self.comms_strategy not in ("mru", "multicast"):
            raise ValueError(f"bad comms_strategy {self.comms_strategy!r}")
        if self.claim_timeout <= 0:
            raise ValueError("claim_timeout must be > 0")
        if self.relay_ttl < 0:
            raise ValueError("relay_ttl must be >= 0")
        if self.serve_cost < 0:
            raise ValueError("serve_cost must be >= 0")
        if self.serve_workers < 1:
            raise ValueError("serve_workers must be >= 1")
        if self.admission_queue_bound < 1:
            raise ValueError("admission_queue_bound must be >= 1")
        if self.fabric is not None and not hasattr(self.fabric, "key_fields"):
            raise ValueError("fabric must be a FabricConfig (or None)")
