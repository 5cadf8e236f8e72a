"""The unified telemetry registry: counters, gauges, histograms, collectors.

Production middleware exposes one registry that every subsystem feeds, not a
scatter of per-component counter attributes.  :class:`MetricsRegistry` is
that registry for the whole repository:

* **Counters** (monotone), **gauges** (set/inc/dec), and **fixed-bucket
  histograms**, all optionally **labelled** — `family.labels(node="a")`
  returns the per-label-set child, Prometheus style.
* **Callback families** — the registry's collector mechanism.  Components
  that already keep cheap always-on counters (``NetworkStats``, the lease
  manager, the reliability sublayer, the query server) are *migrated onto
  the registry* by registering a collect-time callback that reads their
  live values, so the hot path pays nothing and the snapshot can never
  drift from the component's own accounting.  Re-registering under the
  same ``key`` replaces the previous callback (crash/restart of an
  instance re-binds its collectors instead of double-counting).
* **Exporters** — :meth:`render_prometheus` (the text exposition format)
  and :meth:`snapshot` (a plain JSON-able dict), used by the ``repro
  stats`` CLI subcommand and the benchmark report hook.
* Optional **thread safety** (``thread_safe=True``) for the real-thread
  runtime; the simulated stack runs single-threaded and skips the lock.

The module is dependency-free (stdlib only) so every layer of the stack may
import it without cycles.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
]

#: Default buckets for duration-shaped histograms (seconds).
DEFAULT_TIME_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                        0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Default buckets for count-shaped histograms (scan lengths, queue depths).
DEFAULT_COUNT_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                         200.0, 500.0, 1000.0)

_VALID_KINDS = ("counter", "gauge", "histogram")


class _NullLock:
    """A no-op context manager used when thread safety is not requested."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class Counter:
    """A monotone counter child (one label set of a family)."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: dict, lock) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A settable gauge child (one label set of a family)."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: dict, lock) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)


class Histogram:
    """A fixed-bucket histogram child: cumulative counts, sum, and count."""

    __slots__ = ("labels", "buckets", "counts", "sum", "count", "_lock")

    def __init__(self, labels: dict, buckets: Sequence[float], lock) -> None:
        self.labels = labels
        self.buckets = tuple(buckets)          # upper bounds, +Inf implied
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class MetricFamily:
    """A named metric with a fixed label-name set and per-label-set children.

    ``labels(**kw)`` returns (creating on first use) the child for one
    label-value combination; families declared with no label names have a
    single anonymous child reachable through the family's own ``inc`` /
    ``set`` / ``observe`` convenience proxies.
    """

    def __init__(self, name: str, kind: str, help: str,
                 labelnames: Sequence[str], lock,
                 buckets: Optional[Sequence[float]] = None) -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple, Any] = {}
        self._callbacks: dict[Any, Callable] = {}
        self._lock = lock

    # ------------------------------------------------------------------
    def labels(self, **labelvalues: Any) -> Any:
        """The child for one label-value set (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labelvalues)} != declared "
                f"{sorted(self.labelnames)}")
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                labels = dict(zip(self.labelnames, key))
                if self.kind == "counter":
                    child = Counter(labels, self._lock)
                elif self.kind == "gauge":
                    child = Gauge(labels, self._lock)
                else:
                    child = Histogram(labels,
                                      self.buckets or DEFAULT_TIME_BUCKETS,
                                      self._lock)
                self._children[key] = child
            return child

    # Convenience proxies for label-less families ----------------------
    def inc(self, amount: float = 1.0) -> None:
        """Increment the anonymous (label-less) child."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Set the anonymous (label-less) child."""
        self.labels().set(value)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the anonymous (label-less) gauge child."""
        self.labels().dec(amount)

    def observe(self, value: float) -> None:
        """Observe into the anonymous (label-less) child."""
        self.labels().observe(value)

    # ------------------------------------------------------------------
    def add_callback(self, fn: Callable[[], Iterable[tuple]], key: Any) -> None:
        """Register a collect-time sample source for this family.

        ``fn()`` must yield ``(labelvalues, value)`` pairs where
        ``labelvalues`` is a tuple aligned with the family's label names
        (or an empty tuple for label-less families).  Re-registering with
        the same ``key`` replaces the previous callback.
        """
        with self._lock:
            self._callbacks[key] = fn

    # ------------------------------------------------------------------
    def samples(self) -> list[dict]:
        """All current samples: stored children plus callback sources."""
        out: list[dict] = []
        with self._lock:
            children = list(self._children.values())
            callbacks = list(self._callbacks.values())
        for child in children:
            if self.kind == "histogram":
                out.append({"labels": dict(child.labels),
                            "count": child.count, "sum": child.sum,
                            "buckets": child.cumulative()})
            else:
                out.append({"labels": dict(child.labels),
                            "value": child.value})
        for fn in callbacks:
            for labelvalues, value in fn():
                labels = dict(zip(self.labelnames,
                                  (str(v) for v in labelvalues)))
                out.append({"labels": labels, "value": value})
        return out


class MetricsRegistry:
    """The process-wide (or simulation-wide) family registry."""

    def __init__(self, thread_safe: bool = False,
                 bucket_overrides: Optional[dict] = None) -> None:
        self.thread_safe = thread_safe
        self._lock = threading.RLock() if thread_safe else _NullLock()
        self._families: dict[str, MetricFamily] = {}
        #: Per-family histogram bucket boundaries, consulted when the
        #: family is first declared (by name).  Lets a deployment retune
        #: e.g. ``admission_queue_wait_seconds`` without touching the
        #: declaring component.
        self._bucket_overrides: dict[str, tuple] = {
            name: tuple(bounds)
            for name, bounds in (bucket_overrides or {}).items()
        }

    def set_buckets(self, name: str, buckets: Sequence[float]) -> None:
        """Override the bucket boundaries a histogram family will use.

        Must be called before the family's first declaration; overriding
        an already-materialized family is an error (its children hold
        counts in the old bucket layout).
        """
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be non-empty and ascending")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                raise ValueError(
                    f"histogram {name!r} already declared; set buckets "
                    f"before the first observation")
            self._bucket_overrides[name] = bounds

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                labels: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                override = self._bucket_overrides.get(name)
                family = MetricFamily(name, kind, help, labels, self._lock,
                                      buckets=override if override is not None
                                      else buckets)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValueError(f"metric {name!r} already declared as "
                             f"{family.kind}, not {kind}")
        if family.labelnames != tuple(labels):
            raise ValueError(f"metric {name!r} already declared with labels "
                             f"{family.labelnames}, not {tuple(labels)}")
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> MetricFamily:
        """Declare (or fetch) a fixed-bucket histogram family."""
        return self._family(name, "histogram", help, labels, buckets=buckets)

    def callback(self, name: str, fn: Callable[[], Iterable[tuple]],
                 help: str = "", labels: Sequence[str] = (),
                 kind: str = "gauge", key: Any = None) -> MetricFamily:
        """Declare a family fed by a collect-time callback (see
        :meth:`MetricFamily.add_callback`); ``key`` deduplicates
        re-registrations from restarted components."""
        family = self._family(name, kind, help, labels)
        family.add_callback(fn, key if key is not None else fn)
        return family

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        """All declared families, sorted by name."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def snapshot(self) -> dict:
        """A plain JSON-able dict of every family and its samples.

        Samples are sorted by label set (matching
        :meth:`render_prometheus`), so two snapshots of identical state
        are byte-identical regardless of child/callback creation order —
        snapshot diffs never churn across runs.
        """
        out: dict = {}
        for family in self.families():
            raw = family.samples()
            raw.sort(key=lambda s: sorted(s["labels"].items()))
            samples = []
            for sample in raw:
                if "buckets" in sample:
                    samples.append({
                        "labels": sample["labels"],
                        "count": sample["count"],
                        "sum": sample["sum"],
                        "buckets": {_le(bound): count
                                    for bound, count in sample["buckets"]},
                    })
                else:
                    samples.append({"labels": sample["labels"],
                                    "value": sample["value"]})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format for every family."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            samples = family.samples()
            samples.sort(key=lambda s: sorted(s["labels"].items()))
            for sample in samples:
                if "buckets" in sample:
                    for bound, count in sample["buckets"]:
                        labels = dict(sample["labels"])
                        labels["le"] = _le(bound)
                        lines.append(f"{family.name}_bucket"
                                     f"{_labelstr(labels)} {count}")
                    base = _labelstr(sample["labels"])
                    lines.append(f"{family.name}_sum{base} "
                                 f"{_num(sample['sum'])}")
                    lines.append(f"{family.name}_count{base} "
                                 f"{sample['count']}")
                else:
                    lines.append(f"{family.name}"
                                 f"{_labelstr(sample['labels'])} "
                                 f"{_num(sample['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry families={len(self._families)}>"


def _le(bound: float) -> str:
    """Prometheus ``le`` label rendering for a bucket bound."""
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def _num(value: float) -> str:
    """Compact numeric rendering (integers without trailing .0)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:g}"


def _labelstr(labels: dict) -> str:
    """``{k="v",...}`` rendering, empty string for no labels."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
