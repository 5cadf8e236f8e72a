"""Configuration for the sharded + replicated tuple-space fabric.

Deliberately dependency-free (plain dataclass, no repro imports) so
:class:`~repro.core.config.TiamatConfig` can reference it without import
cycles: ``TiamatConfig(fabric=FabricConfig(...))`` switches an instance
from the union-scan logical space to consistent-hash routing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FabricConfig:
    """Tunables for one instance's fabric layer: the settings two callers
    set differently.  Owner-set size, ring smoothing, scatter bound and
    gossip pacing are constants of :mod:`repro.fabric.manager`.

    Attributes
    ----------
    key_fields:
        How many leading tuple fields feed the shard key (alongside the
        arity, always part of the key).  A pattern routes O(k) only when
        its first ``key_fields`` specs are all actuals; otherwise it falls
        back to the bounded scatter.  Workloads that tag tuples with a
        constant first field and address them with the second should use
        ``key_fields=2`` so the shard key actually spreads.
    membership_lease:
        Seconds a gossiped membership entry stays live without renewal —
        the fabric's ownership lease.  When it lapses the member drops off
        the ring and its shards hand off to the successors.
    heartbeat_period:
        Seconds between a member's renewal + anti-entropy beats (renew own
        lease, sweep expired members, rebalance misplaced primaries,
        gossip the map).
    migrate_timeout:
        Seconds a migrating owner keeps the handed-off entry held awaiting
        the successor's ack before dropping it (never releasing: a
        released copy could race the delivered one into a double consume).
    """

    key_fields: int = 1
    membership_lease: float = 10.0
    heartbeat_period: float = 3.0
    migrate_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.key_fields < 1:
            raise ValueError("key_fields must be >= 1")
        if self.membership_lease <= 0:
            raise ValueError("membership_lease must be > 0")
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be > 0")
        if self.heartbeat_period >= self.membership_lease:
            raise ValueError("heartbeat_period must be < membership_lease "
                             "(a member must renew before its lease lapses)")
        if self.migrate_timeout <= 0:
            raise ValueError("migrate_timeout must be > 0")
