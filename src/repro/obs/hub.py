"""The observability hub: one registry + one (optional) tracer per runtime.

Every runtime — each :class:`~repro.sim.kernel.Simulator` and each
real-thread registry — owns one :class:`Observability` hub, reached lazily
through ``sim.obs`` so simulations that never look at telemetry never build
any.  The hub bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` that the whole stack feeds
  (network, lease managers, the reliability sublayer, tuple stores, query
  servers, and the kernel itself) — almost entirely through *collect-time
  callbacks* over the components' existing cheap counters, so the hot path
  is untouched and snapshots can never drift from component accounting;
* an opt-in :class:`~repro.obs.tracing.Tracer`
  (:meth:`Observability.start_trace`) for causal per-operation timelines;
* an always-on :class:`~repro.obs.flight.FlightRecorder` — per-node ring
  buffers of recent protocol activity, dumped post-mortem (PR 7); and
* an :class:`~repro.obs.slo.SLOTracker` fed every finished operation's
  end-to-end latency (histograms, exemplars, burn-rate objectives).

All of them are **observationally passive**: recording consumes no
randomness and schedules no events, so a telemetered run of seed *s* is
bit-identical to a bare run of seed *s*.

The clock is injected: virtual time under the simulation kernel, wall time
under :mod:`repro.runtime`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
)
from repro.obs.slo import SLOTracker
from repro.obs.tracing import Tracer

__all__ = ["Observability"]


class Observability:
    """Per-runtime telemetry hub: registry, tracer, flight recorder, SLOs."""

    def __init__(self, clock: Callable[[], float],
                 thread_safe: bool = False) -> None:
        self.clock = clock
        self.thread_safe = thread_safe
        self.registry = MetricsRegistry(thread_safe=thread_safe)
        self.tracer: Optional[Tracer] = None
        self.flight = FlightRecorder(clock)
        self.slo = SLOTracker(clock, registry=self.registry,
                              flight=self.flight)

    # ------------------------------------------------------------------
    # Tracing lifecycle
    # ------------------------------------------------------------------
    def start_trace(self, *networks, max_events: int = 200_000) -> Tracer:
        """Install (or reuse) the tracer and tap the given networks."""
        if self.tracer is None:
            self.tracer = Tracer(self.clock, max_events=max_events,
                                 thread_safe=self.thread_safe)
        for network in networks:
            self.tracer.attach(network)
        return self.tracer

    def stop_trace(self) -> Optional[Tracer]:
        """Detach the tracer from every network; returns it (events kept)."""
        tracer, self.tracer = self.tracer, None
        if tracer is not None:
            tracer.detach()
        return tracer

    # ------------------------------------------------------------------
    # Collectors: one observe_* per instrumented component
    # ------------------------------------------------------------------
    def observe_kernel(self, sim) -> None:
        """Kernel counters + (when enabled) the per-handler profile."""
        reg = self.registry
        key = id(sim)
        reg.callback("sim_events_processed_total",
                     lambda: [((), sim.events_processed)],
                     help="Callbacks executed by the simulation run loop.",
                     kind="counter", key=key)
        reg.callback("sim_pending_timers",
                     lambda: [((), sim.pending)],
                     help="Live (non-cancelled) callbacks in the event heap.",
                     key=key)
        reg.callback("sim_virtual_time_seconds",
                     lambda: [((), sim.now)],
                     help="Current virtual clock value.", key=key)

        def handler_calls():
            return [((name,), rec[0])
                    for name, rec in sim.handler_profile.items()]

        def handler_seconds():
            return [((name,), rec[1])
                    for name, rec in sim.handler_profile.items()]

        reg.callback("sim_handler_calls_total", handler_calls,
                     help="Run-loop callback invocations by handler "
                          "(requires sim.enable_profiling()).",
                     labels=("handler",), kind="counter", key=key)
        reg.callback("sim_handler_seconds_total", handler_seconds,
                     help="Wall-clock perf_counter seconds spent in each "
                          "handler (requires sim.enable_profiling()).",
                     labels=("handler",), kind="counter", key=key)

    def observe_network(self, network) -> None:
        """Frame/byte/drop accounting, reading ``network.stats`` live."""
        reg = self.registry
        key = id(network)
        stats = network.stats

        def sent():
            for name, node in stats.nodes.items():
                yield (name, "unicast"), node.sent_unicast
                yield (name, "multicast"), node.sent_multicast

        def received():
            for name, node in stats.nodes.items():
                yield (name,), node.received

        def nbytes():
            for name, node in stats.nodes.items():
                yield (name, "sent"), node.bytes_sent
                yield (name, "received"), node.bytes_received

        def drops():
            for reason, count in stats.drops_by_reason.items():
                yield (reason,), count

        def by_kind():
            for name, node in stats.nodes.items():
                for kind, count in node.by_kind.items():
                    yield (name, kind), count

        reg.callback("net_frames_sent_total", sent,
                     help="Frames originated, by node and cast mode.",
                     labels=("node", "cast"), kind="counter", key=key)
        reg.callback("net_frames_received_total", received,
                     help="Frames delivered to each node.",
                     labels=("node",), kind="counter", key=key)
        reg.callback("net_bytes_total", nbytes,
                     help="Bytes on the wire, by node and direction.",
                     labels=("node", "direction"), kind="counter", key=key)
        reg.callback("net_frames_dropped_total", drops,
                     help="Frames that never arrived, by drop reason.",
                     labels=("reason",), kind="counter", key=key)
        reg.callback("net_frames_kind_total", by_kind,
                     help="Frames originated, by node and protocol kind.",
                     labels=("node", "kind"), kind="counter", key=key)
        reg.callback("net_messages_total",
                     lambda: [((), stats.total_messages)],
                     help="Total frames originated on this network.",
                     kind="counter", key=key)

    def observe_lease_manager(self, manager, node: str) -> None:
        """Grant/refusal/revocation accounting for one lease manager."""
        reg = self.registry
        key = id(manager)

        def events():
            yield (node, "grant"), manager.grants
            yield (node, "refusal"), manager.refusals
            yield (node, "requester_rejection"), manager.requester_rejections
            yield (node, "expiration"), manager.expirations
            yield (node, "revocation"), manager.revocations

        reg.callback("lease_events_total", events,
                     help="Lease lifecycle outcomes by node and event.",
                     labels=("node", "event"), kind="counter", key=key)
        reg.callback("lease_negotiations_total",
                     lambda: [((node,), manager.negotiations)],
                     help="Negotiation rounds started (granted or not).",
                     labels=("node",), kind="counter", key=key)
        reg.callback("lease_active",
                     lambda: [((node,), manager.active_count)],
                     help="Currently active leases.",
                     labels=("node",), key=key)
        reg.callback("lease_storage_used_bytes",
                     lambda: [((node,), manager.storage_used)],
                     help="Bytes committed against storage-bearing leases.",
                     labels=("node",), key=key)

    def observe_reliability(self, channel, node: str) -> None:
        """Ack/retransmit/dedup accounting for one reliable channel."""
        reg = self.registry
        key = id(channel)

        def events():
            yield (node, "sent"), channel.sent
            yield (node, "retransmit"), channel.retransmits
            yield (node, "acked"), channel.acked
            yield (node, "expired"), channel.expired
            yield (node, "dedup_drop"), channel.duplicates_dropped
            yield (node, "ack_sent"), channel.acks_sent

        reg.callback("reliability_events_total", events,
                     help="Reliable-sublayer events by node "
                          "(retransmits, dedup hits, expiries...).",
                     labels=("node", "event"), kind="counter", key=key)
        reg.callback("reliability_pending",
                     lambda: [((node,), channel.pending_count)],
                     help="Reliable frames still awaiting acknowledgement.",
                     labels=("node",), key=key)
        reg.callback("reliability_epoch",
                     lambda: [((node,), channel.epoch)],
                     help="Current incarnation epoch (jumps on restart).",
                     labels=("node",), key=key)
        backoff = reg.histogram(
            "reliability_backoff_delay_seconds",
            help="Delay chosen before each (re)transmission attempt.",
            labels=("node",))
        channel.backoff_observer = backoff.labels(node=node).observe

    def observe_server(self, server, node: str) -> None:
        """Serving-side accounting for one query server."""
        reg = self.registry
        key = id(server)

        def events():
            yield (node, "served"), server.served
            yield (node, "refused"), server.refused
            yield (node, "offer_made"), server.offers_made
            yield (node, "offer_won"), server.offers_won
            yield (node, "offer_put_back"), server.offers_put_back
            yield (node, "duplicate_query"), server.duplicate_queries

        reg.callback("serving_events_total", events,
                     help="Remote-query serving outcomes by node.",
                     labels=("node", "event"), kind="counter", key=key)
        reg.callback("serving_active",
                     lambda: [((node,), server.active_servings)],
                     help="Remote operations currently being worked on.",
                     labels=("node",), key=key)
        # Admission-plane families are registered only for servers that
        # actually run a serving queue or an admission controller, so
        # default-off runs export byte-identical snapshots to the
        # pre-admission registry.
        queued = getattr(server, "queue_wait_observer", "absent") != "absent"
        if queued and server.instance.config.serve_cost > 0:
            reg.callback("serving_queue_depth",
                         lambda: [((node,), server.queue_depth)],
                         help="Inbound QUERYs waiting for a dispatch worker.",
                         labels=("node",), key=("queue", key))
            wait_hist = reg.histogram(
                "admission_queue_wait_seconds",
                help="Realized wait between QUERY arrival and dispatch.",
                labels=("node",))
            server.queue_wait_observer = wait_hist.labels(node=node).observe
        admission = getattr(server, "admission", None)
        if admission is not None:
            self.observe_admission(admission, server, node)

    def observe_admission(self, admission, server, node: str) -> None:
        """Admit/shed accounting for one admission controller."""
        reg = self.registry
        key = id(admission)

        def decisions():
            yield (node, "admitted"), admission.admitted
            yield (node, "shed"), admission.shed_total

        def sheds():
            for reason, count in sorted(admission.shed_by_reason.items()):
                yield (node, reason), count

        reg.callback("admission_decisions_total", decisions,
                     help="Admission verdicts on arriving QUERYs by node.",
                     labels=("node", "outcome"), kind="counter", key=key)
        reg.callback("admission_shed_total", sheds,
                     help="QUERYs shed at admission, by node and reason.",
                     labels=("node", "reason"), kind="counter", key=key)
        reg.callback("admission_stale_dropped_total",
                     lambda: [((node,), server.stale_dropped)],
                     help="Queued QUERYs dropped at dispatch because their "
                          "origin lease had already run out.",
                     labels=("node",), kind="counter", key=("stale", key))
        delay_hist = reg.histogram(
            "admission_queue_delay_seconds",
            help="Estimated queue delay priced at each admission decision.",
            labels=("node",))
        admission.delay_observer = delay_hist.labels(node=node).observe
        if admission.fair_share is not None:
            fair = admission.fair_share

            def debts():
                for peer, debt in fair.debts():
                    yield (node, peer), debt

            reg.callback("admission_peer_debt", debts,
                         help="Fair-share token-bucket debt (worker-seconds "
                              "below full) per origin peer.",
                         labels=("node", "peer"), key=("debt", key))

    def observe_space(self, space, name: str) -> None:
        """Residency + matching-cost accounting for one tuple space."""
        reg = self.registry
        key = id(space)
        store = space.store

        def events():
            yield (name, "deposit"), space.deposits
            yield (name, "consumed"), space.consumed
            yield (name, "expired"), space.expirations

        reg.callback("tuples_events_total", events,
                     help="Deposits, consumptions, and expiries by space.",
                     labels=("space", "event"), kind="counter", key=key)
        reg.callback("tuples_resident",
                     lambda: [((name,), store.visible_count)],
                     help="Tuples currently visible to queries.",
                     labels=("space",), key=key)
        reg.callback("tuples_waiters",
                     lambda: [((name,), space.waiter_count)],
                     help="Registered, unsatisfied blocking waiters.",
                     labels=("space",), key=key)
        reg.callback("tuples_scans_total",
                     lambda: [((name,), store.scans)],
                     help="Match scans run against the store's indexes.",
                     labels=("space",), kind="counter", key=key)

        def cache_events():
            yield (name, "hit"), store.scan_cache_hits
            yield (name, "miss"), store.scan_cache_misses

        reg.callback("tuples_scan_cache_total", cache_events,
                     help="Scan-cache hits and misses by space (a hit "
                          "serves a memoized match list, examining 0 "
                          "candidate entries).",
                     labels=("space", "result"), kind="counter", key=key)
        scan_hist = reg.histogram(
            "tuples_match_scan_length",
            help="Candidate entries examined per match scan.",
            labels=("space",), buckets=DEFAULT_COUNT_BUCKETS)
        store.scan_observer = scan_hist.labels(space=name).observe

    def observe_storage(self, backend, name: str) -> None:
        """Durable-log accounting for one storage backend.

        Registered only when a backend actually attaches to a space
        (:meth:`~repro.tuples.storage.base.StorageBackend.attach`), so runs
        that never opt into durability export a bit-identical registry.
        """
        reg = self.registry
        key = id(backend)

        def records():
            yield (name, "out"), backend.records_out
            yield (name, "remove"), backend.records_remove

        reg.callback("storage_records_total", records,
                     help="Durable records written, by space and kind.",
                     labels=("space", "kind"), kind="counter", key=key)
        reg.callback("storage_bytes_appended_total",
                     lambda: [((name,), backend.bytes_appended)],
                     help="Bytes appended to the durable log.",
                     labels=("space",), kind="counter", key=key)

        def maintenance():
            yield (name, "compaction"), backend.compactions
            yield (name, "recovery"), backend.recoveries
            yield (name, "record_replayed"), backend.records_replayed
            yield (name, "torn_truncation"), backend.torn_truncations

        reg.callback("storage_maintenance_total", maintenance,
                     help="Log maintenance events: compactions, recoveries, "
                          "records replayed, torn tails truncated.",
                     labels=("space", "event"), kind="counter", key=key)
        reg.callback("storage_torn_bytes_total",
                     lambda: [((name,), backend.torn_bytes)],
                     help="Bytes discarded truncating torn log tails.",
                     labels=("space",), kind="counter", key=key)

    def observe_recovery(self, instance) -> None:
        """Crash-recovery + anti-entropy rejoin accounting for one node.

        Registered on a node's first durable recovery (never for nodes
        that never recover), keeping default registries unchanged.
        """
        reg = self.registry
        node = instance.name
        key = ("recovery", id(instance))

        def events():
            yield (node, "recovery"), instance.recoveries
            yield (node, "restored"), instance.tuples_restored
            yield (node, "reclaimed"), instance.tuples_reclaimed
            yield (node, "ghost_purged"), instance.ghosts_purged
            yield (node, "rejoin_dropped"), instance.rejoin_dropped
            yield (node, "sync_request_sent"), instance.sync_requests_sent
            yield (node, "sync_response_sent"), instance.sync_responses_sent
            yield (node, "rejoin_completed"), instance.rejoins_completed

        reg.callback("recovery_events_total", events,
                     help="Durable-recovery outcomes by node: tuples "
                          "restored/reclaimed, ghosts purged by the "
                          "anti-entropy rejoin, sync traffic.",
                     labels=("node", "event"), kind="counter", key=key)

    def observe_instance(self, instance) -> None:
        """Wire one Tiamat instance's components into the registry."""
        node = instance.name
        reg = self.registry
        key = id(instance)

        def ops():
            yield (node, "started"), instance.ops_started
            yield (node, "satisfied_local"), instance.ops_satisfied_local
            yield (node, "satisfied_remote"), instance.ops_satisfied_remote
            yield (node, "unsatisfied"), instance.ops_unsatisfied

        reg.callback("core_ops_total", ops,
                     help="Logical operations by origin node and outcome.",
                     labels=("node", "state"), kind="counter", key=key)
        self.observe_lease_manager(instance.leases, node)
        self.observe_reliability(instance.reliability, node)
        self.observe_server(instance.server, node)
        if getattr(instance, "fabric", None) is not None:
            self.observe_fabric(instance.fabric, node, key)

    def observe_fabric(self, fabric, node: str, key) -> None:
        """Wire one instance's fabric layer into the registry.

        The scatter-width histogram is registered by the fabric manager
        itself (it observes on the hot path); this adds the shard-map
        version gauge — map churn and inter-node skew are visible by
        comparing it across nodes — and the migration/promotion/
        replication counters.
        """
        reg = self.registry

        def version():
            yield (node,), float(fabric.map.version)

        reg.callback("fabric_map_version", version,
                     help="Monotonic local shard-map version (bumps on "
                          "every renewal, sweep, or merge).",
                     labels=("node",), kind="gauge", key=("fabric", key))

        def events():
            yield (node, "deposit_routed"), fabric.deposits_routed
            yield (node, "deposit_owned"), fabric.deposits_owned
            yield (node, "replica_stored"), fabric.replicas_stored
            yield (node, "invalidation"), fabric.invalidations
            yield (node, "migration_out"), fabric.migrations_out
            yield (node, "migration_in"), fabric.migrations_in
            yield (node, "migration_dropped"), fabric.migrations_dropped
            yield (node, "promotion"), fabric.promotions
            yield (node, "promotion_purge"), fabric.promotion_purges
            yield (node, "map_push"), fabric.map_pushes

        reg.callback("fabric_events_total", events,
                     help="Fabric lifecycle events by node: routed/owned "
                          "deposits, replication, invalidation, two-phase "
                          "migrations, witness-verified promotions, map "
                          "pushes.",
                     labels=("node", "event"), kind="counter",
                     key=("fabric_events", key))
