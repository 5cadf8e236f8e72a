"""In-space cluster telemetry: health rows published as leased tuples.

Dogfooding generative communication: each instance periodically
``out``s a compact ``("_telemetry", node_id, epoch, payload)`` tuple
into its own space under a short lease, so the space itself is the
telemetry transport — a dead node stops renewing and the lease
garbage-collects its rows with no reaper process.  A collector scans
the visible spaces, keeps the freshest epoch per node, and classifies
each node as ``ok`` / ``degraded`` / ``overloaded`` / ``partitioned``
for the ``repro top`` CLI.

Telemetry is **opt-in** (``TiamatConfig.telemetry_enabled``): the
publisher schedules simulator events and negotiates leases, so unlike
the flight recorder it perturbs seeded schedules.  The ``_telemetry``
tag is skip-listed by the durable storage backends and the exactly-once
oracle — health rows are ephemeral operational data, not application
state.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import LeaseError
from repro.leasing import LeaseTerms, SimpleLeaseRequester
from repro.tuples import Pattern, Tuple

__all__ = [
    "TELEMETRY_TAG",
    "NodeHealth",
    "TelemetryPublisher",
    "classify_node",
    "collect_cluster_health",
    "health_row",
    "render_top",
]

#: First field of every telemetry tuple.  The leading underscore keeps it
#: out of ordinary application patterns; the skip-tag list
#: (:data:`repro.tuples.storage.base.DEFAULT_SKIP_TAGS`, the one copy)
#: keeps it out of durable logs and power-down images.
TELEMETRY_TAG = "_telemetry"

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_OVERLOADED = "overloaded"
HEALTH_PARTITIONED = "partitioned"

#: A node whose freshest row is older than this many publish periods is
#: considered cut off from the collector's vantage point.
STALE_PERIODS = 3.0

#: Seconds between a simulated instance's telemetry beats.
TELEMETRY_PERIOD = 1.0
#: Lease requested for each health row: a dead node's rows expire (and
#: are reclaimed by the space) this long after its last beat — 2.5
#: periods, over one delayed beat and under :data:`STALE_PERIODS`.
TELEMETRY_LEASE = 2.5


class TelemetryPublisher:
    """Periodically deposits one leased health row for an instance.

    The row's payload is a compact sorted-key JSON object of windowed
    counters (deltas since the previous beat) plus instantaneous gauges.
    A refused lease simply skips the beat — telemetry competes for
    capacity like any other work and must never amplify an overload.
    """

    def __init__(self, instance: Any):
        self.instance = instance
        self.epoch = 0
        self.published = 0
        self.skipped = 0
        self._last: Dict[str, int] = {}
        self._timer = None

    def start(self) -> "TelemetryPublisher":
        if self._timer is None:
            self._timer = self.instance.sim.schedule(TELEMETRY_PERIOD,
                                                     self._beat)
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _beat(self) -> None:
        self._timer = None
        if self.instance._detached:
            return
        self.publish()
        self._timer = self.instance.sim.schedule(TELEMETRY_PERIOD, self._beat)

    def publish(self) -> bool:
        """Deposit one health row now; False when the lease was refused."""
        self.epoch += 1
        inst = self.instance
        current = {
            "ops": inst.ops_started,
            "unsat": inst.ops_unsatisfied,
            "sheds": getattr(inst.server, "sheds", 0),
            "retx": inst.reliability.retransmits,
            "rexp": inst.reliability.expired,
        }
        gauges: Dict[str, Any] = {"t": inst.sim.now,
                                  "resident": inst.space.count(),
                                  "pending": inst.reliability.pending_count}
        admission = getattr(inst.server, "admission", None)
        if admission is not None:
            utilisation = getattr(admission, "utilisation", None)
            if callable(utilisation):
                try:
                    gauges["util"] = round(float(utilisation()), 4)
                except Exception:
                    pass
        row = health_row(inst.name, self.epoch, current, self._last, gauges)
        self._last = current
        requester = SimpleLeaseRequester(
            LeaseTerms(duration=TELEMETRY_LEASE))
        try:
            inst.out(row, requester=requester)
        except LeaseError:
            self.skipped += 1
            return False
        self.published += 1
        return True


def health_row(node: str, epoch: int, current: Dict[str, int],
               last: Dict[str, int], gauges: Dict[str, Any]) -> Tuple:
    """One ``(TELEMETRY_TAG, node, epoch, payload)`` health row.

    The payload is a compact sorted-key JSON object: each counter of
    ``current`` as ``<name>_w``, its delta since ``last`` (the previous
    row's counters), plus the instantaneous ``gauges``.
    """
    payload: Dict[str, Any] = {f"{key}_w": value - last.get(key, 0)
                               for key, value in current.items()}
    payload.update(gauges)
    return Tuple(TELEMETRY_TAG, node, epoch,
                 json.dumps(payload, separators=(",", ":"), sort_keys=True))


class NodeHealth:
    """One node's row in the cluster health model."""

    __slots__ = ("node", "status", "epoch", "age", "payload")

    def __init__(self, node: str, status: str, epoch: Optional[int],
                 age: Optional[float], payload: Dict[str, Any]):
        self.node = node
        self.status = status
        self.epoch = epoch
        self.age = age
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeHealth {self.node} {self.status} epoch={self.epoch}>"


def classify_node(payload: Dict[str, Any], age: float,
                  period: float) -> str:
    """Map one health row (plus its freshness) to a status string."""
    if age > STALE_PERIODS * period:
        return HEALTH_PARTITIONED
    if payload.get("sheds_w", 0) > 0 or payload.get("util", 0.0) > 0.85:
        return HEALTH_OVERLOADED
    ops = payload.get("ops_w", 0)
    unsat = payload.get("unsat_w", 0)
    if (payload.get("retx_w", 0) > 2 or payload.get("rexp_w", 0) > 0
            or (ops > 0 and unsat / ops > 0.5)
            or payload.get("pending", 0) > 8):
        return HEALTH_DEGRADED
    return HEALTH_OK


def collect_cluster_health(spaces: Iterable[Any], now: float,
                           period: float = 1.0,
                           expected: Iterable[str] = ()
                           ) -> Dict[str, NodeHealth]:
    """Aggregate telemetry rows from *spaces* into per-node health.

    *spaces* is any iterable of space-like objects exposing
    ``snapshot(pattern) -> list[Tuple]`` (both :class:`LocalTupleSpace`
    and the threaded runtime's ``ThreadSafeTupleSpace`` do), asked for
    well-formed ``(tag, node, epoch, JSON payload)`` rows.  Rows are
    unioned across spaces and only each node's freshest epoch counts.
    Nodes in *expected* with no live row at all — lease expired, so the
    space already reclaimed them — are reported ``partitioned`` with no
    payload.
    """
    freshest: Dict[str, tuple] = {}
    rows = Pattern(TELEMETRY_TAG, str, int, str)
    for space in spaces:
        for tup in space.snapshot(rows):
            _, node, epoch, raw = tup.fields
            best = freshest.get(node)
            if best is None or epoch > best[0]:
                freshest[node] = (epoch, raw)
    health: Dict[str, NodeHealth] = {}
    for node in sorted(set(freshest) | set(expected)):
        best = freshest.get(node)
        if best is None:
            health[node] = NodeHealth(node, HEALTH_PARTITIONED, None, None, {})
            continue
        epoch, raw = best
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {}
        age = max(0.0, now - float(payload.get("t", now)))
        status = classify_node(payload, age, period)
        health[node] = NodeHealth(node, status, epoch, age, payload)
    return health


def render_top(health: Dict[str, NodeHealth], now: float,
               title: str = "cluster") -> str:
    """Render the health model as a fixed-width ``repro top`` table."""
    headers = ("NODE", "STATUS", "EPOCH", "AGE", "OPS/W", "UNSAT/W",
               "SHEDS/W", "RETX/W", "PEND", "RESIDENT")
    rows: List[tuple] = []
    for node in sorted(health):
        entry = health[node]
        p = entry.payload
        rows.append((
            node,
            entry.status,
            "-" if entry.epoch is None else str(entry.epoch),
            "-" if entry.age is None else f"{entry.age:.1f}",
            str(p.get("ops_w", "-")),
            str(p.get("unsat_w", "-")),
            str(p.get("sheds_w", "-")),
            str(p.get("retx_w", "-")),
            str(p.get("pending", "-")),
            str(p.get("resident", "-")),
        ))
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    lines = [f"repro top — {title} @ t={now:.2f} "
             f"({len(rows)} node{'s' if len(rows) != 1 else ''})"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    counts: Dict[str, int] = {}
    for entry in health.values():
        counts[entry.status] = counts.get(entry.status, 0) + 1
    summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
    lines.append(f"health: {summary or 'no nodes'}")
    return "\n".join(lines)
