"""Message and byte accounting for experiments.

Every benchmark in the harness reports communication cost (messages per
operation, bytes per node), so the network keeps cheap, always-on counters
rather than an optional tracing layer.

Drops are attributed to a *reason* so chaos runs are debuggable: a frame
that never arrived was either addressed to an invisible peer
(``invisible``), lost to the network's i.i.d. loss model (``loss``),
addressed to a node that was down at delivery time (``node_down``),
swallowed by a fault injector (``fault``), or damaged in flight and
rejected by the receiver (``corrupt``).
"""

from __future__ import annotations

from collections import Counter

#: Canonical drop reasons (fault injectors may add their own).
DROP_INVISIBLE = "invisible"   # destination not visible at send time
DROP_LOSS = "loss"             # the network's i.i.d. random loss
DROP_NODE_DOWN = "node_down"   # destination down/detached at delivery time
DROP_FAULT = "fault"           # swallowed by an injected fault
DROP_CORRUPT = "corrupt"       # payload damaged in flight

DROP_REASONS = (DROP_INVISIBLE, DROP_LOSS, DROP_NODE_DOWN, DROP_FAULT,
                DROP_CORRUPT)


class NodeStats:
    """Per-node communication counters."""

    __slots__ = (
        "sent_unicast", "sent_multicast", "received",
        "bytes_sent", "bytes_received", "drops", "by_kind",
    )

    def __init__(self) -> None:
        self.sent_unicast = 0
        self.sent_multicast = 0
        self.received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.drops: Counter = Counter()
        self.by_kind: Counter = Counter()

    @property
    def sent(self) -> int:
        """Total frames originated (unicast sends + multicast transmissions)."""
        return self.sent_unicast + self.sent_multicast

    @property
    def dropped_invisible(self) -> int:
        """Drops because the destination was unreachable (legacy rollup).

        Historically the single "invisible" counter covered both
        not-visible-at-send and down-at-delivery; the rollup keeps that
        meaning while :attr:`drops` carries the per-reason split.
        """
        return self.drops[DROP_INVISIBLE] + self.drops[DROP_NODE_DOWN]

    @property
    def dropped_loss(self) -> int:
        """Drops from the i.i.d. loss model."""
        return self.drops[DROP_LOSS]

    def as_dict(self) -> dict:
        """Plain-dict snapshot for reports.

        Includes the per-kind frame breakdown (``by_kind``) and the full
        per-reason ``drops`` split, so report JSON lines up with what
        :meth:`NetworkStats.drop_summary` and the trace show.
        """
        return {
            "sent_unicast": self.sent_unicast,
            "sent_multicast": self.sent_multicast,
            "received": self.received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "dropped_invisible": self.dropped_invisible,
            "dropped_loss": self.dropped_loss,
            "drops": dict(self.drops),
            "by_kind": dict(self.by_kind),
        }


class NetworkStats:
    """Whole-network counters plus the per-node breakdown."""

    def __init__(self) -> None:
        self.nodes: dict[str, NodeStats] = {}
        self.total_messages = 0
        self.total_bytes = 0
        self.total_dropped = 0
        self.drops_by_reason: Counter = Counter()

    def node(self, name: str) -> NodeStats:
        """The (auto-created) counters for a node."""
        stats = self.nodes.get(name)
        if stats is None:
            stats = NodeStats()
            self.nodes[name] = stats
        return stats

    def record_send(self, src: str, size: int, multicast: bool, kind: str) -> None:
        """Account one originated frame."""
        stats = self.node(src)
        if multicast:
            stats.sent_multicast += 1
        else:
            stats.sent_unicast += 1
        stats.bytes_sent += size
        stats.by_kind[kind] += 1
        self.total_messages += 1
        self.total_bytes += size

    def record_receive(self, dst: str, size: int) -> None:
        """Account one delivered frame."""
        stats = self.node(dst)
        stats.received += 1
        stats.bytes_received += size

    def record_drop(self, src: str, reason: str) -> None:
        """Account a frame that never arrived, for ``reason`` (one of
        ``DROP_REASONS`` or a fault injector's own)."""
        self.node(src).drops[reason] += 1
        self.drops_by_reason[reason] += 1
        self.total_dropped += 1

    def drop_summary(self) -> str:
        """One-line per-reason drop rendering for logs and the CLI."""
        if not self.drops_by_reason:
            return "drops: none"
        parts = [f"{reason}={count}" for reason, count
                 in sorted(self.drops_by_reason.items())]
        return "drops: " + " ".join(parts)

    def reset(self) -> None:
        """Zero all counters (used between benchmark phases)."""
        self.nodes.clear()
        self.total_messages = 0
        self.total_bytes = 0
        self.total_dropped = 0
        self.drops_by_reason.clear()
