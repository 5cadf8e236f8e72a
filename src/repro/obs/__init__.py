"""``repro.obs`` — tracing, metrics, flight recorder, SLOs, telemetry.

Four pillars (see ``docs/OBSERVABILITY.md`` for when to reach for which):

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket histograms
  with labels, fed across the whole stack (network, leasing, reliability,
  tuple stores, serving, the simulation kernel), exported as Prometheus
  text and JSON snapshots.
* :class:`FlightRecorder` — always-on fixed-size per-node ring buffers of
  recent protocol activity, dumped as a replayable JSON black box on
  invariant violations, post-crash recovery, or demand (``repro flight``).
  It is the one event stream the protocol emits into.
* :class:`Tracer` — opt-in causal tracing keyed on operation ids, a reader
  of the recorder's stream: the full distributed span tree of one
  ``in()``/``rd()``/probe, including drops, retransmits, and lease
  refusals, rendered as a text waterfall or Chrome trace-event JSON
  (loadable in Perfetto).
* :class:`SLOTracker` — end-to-end per-op-kind latency histograms with
  exemplars and windowed burn-rate objectives; plus the opt-in in-space
  cluster telemetry of :mod:`repro.obs.telemetry` (``repro top``).

Everything hangs off a per-runtime :class:`Observability` hub — ``sim.obs``
under the simulation kernel (virtual clock), the thread-safe registry of
:mod:`repro.runtime` under real threads (wall clock).  Everything here is
stdlib-only and observationally passive: telemetry never perturbs a seeded
experiment (the in-space health rows, which do schedule events, are opt-in).
"""

from repro.obs.flight import (
    FlightRecorder,
    FlightRing,
    load_flight_dump,
    render_flight,
)
from repro.obs.hub import Observability
from repro.obs.metrics import (
    Counter,
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.slo import SLOObjective, SLOTracker
from repro.obs.telemetry import (
    NodeHealth,
    TELEMETRY_TAG,
    TelemetryPublisher,
    collect_cluster_health,
    render_top,
)
from repro.obs.tracing import TraceEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "FlightRecorder",
    "FlightRing",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NodeHealth",
    "Observability",
    "SLOObjective",
    "SLOTracker",
    "TELEMETRY_TAG",
    "TelemetryPublisher",
    "TraceEvent",
    "Tracer",
    "collect_cluster_health",
    "load_flight_dump",
    "render_flight",
    "render_top",
]
