"""Micro-benchmark measurement + regression-gate logic (``repro perf``).

The one timing gate below the end-to-end benchmark (``BENCHMARK.json``).
It measures five hot paths:

* **codec** — encode+decode round-trip ns/op for a tuple's tag-first JSON
  form and for the binary codec, over a representative tuple mix (nested
  tuples, bytes fields, unicode strings, big ints);
* **store scan** — ns per ``find`` by a filtered walk (a ``Range`` pattern;
  signature-exact patterns pick from their bucket and never scan) against a
  populated store: uncached (a mutation before every call), cached (repeat
  query, unchanged store) and a read/write mix at 0 / 10 / 50 % writes —
  what the scan memo is worth as the store gets busier;
* **flight append** — amortised ns per flight-recorder ring append
  (``repro.obs.flight``), the per-event tax of the always-on black box;
* **wire** — frames/op and bytes/op for the T1 MRU probe workload (the
  paper's §3.1.3 cached-visibility scenario) on the default wire (JSON,
  one frame per send, one ``REL_ACK`` per reliable frame);
* **aio frame codec** — the frame encode and decode the asyncio runtime
  runs per datagram (:mod:`repro.bench.aio`), plus its ungated loopback
  throughput.

Every gated metric is **lower-is-better**.  :func:`collect` returns
``{"metrics": {...}, "info": {...}}``; ``benchmarks/perf_baseline.py``
serialises it to ``BENCH_micro.json`` and the CI ``bench-gate`` job
compares a fresh run against the committed document with :func:`compare`
(fail on >25% median regression).  ``tests/test_perf_gate.py`` proves the
gate trips.

Timing metrics are medians of several repeats of a calibrated inner loop,
which makes them stable enough for a 25% gate between runs on one box —
the committed document must come from a single ``--rebaseline`` on the
machine that checks it; the wire metrics come from a seeded discrete-event
simulation and are exactly reproducible.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional

SCHEMA_VERSION = 1

#: Relative regression tolerated by the gate before failing (25%).
DEFAULT_TOLERANCE = 0.25


# ----------------------------------------------------------------------
# Timing core
# ----------------------------------------------------------------------
def bench_ns(fn: Callable[[], object], *, repeats: int = 5,
             min_time_s: float = 0.05) -> float:
    """Median ns per call of ``fn`` over ``repeats`` calibrated runs.

    The inner-loop count is auto-calibrated so each run lasts at least
    ``min_time_s`` — long enough to drown out timer resolution and
    scheduler noise.
    """
    # Calibrate: grow the loop until one run is long enough to time.
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time_s or number >= 1_000_000:
            break
        number = max(number * 2, int(number * min_time_s / max(elapsed, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed / number * 1e9)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Workload fixtures
# ----------------------------------------------------------------------
def sample_tuples():
    """A representative tuple mix for codec benchmarks."""
    from repro.tuples.model import Tuple

    return [
        Tuple("request", 42, "http://example.org/index.html"),
        Tuple("result", 42, True, 3.14159, "body " * 8),
        Tuple("nested", Tuple("inner", 1, 2.0), Tuple("deep", Tuple("x", 1))),
        Tuple("blob", b"\x00\x01\x02" * 20, 2 ** 48, -17),
        Tuple("unicode", "héllo wörld ✓", 0, False),
    ]


def measure_codec() -> dict:
    """Encode+decode round-trip ns/op for both tuple encodings.

    Both sides measure the full structure→bytes→structure path: the JSON
    form's tag lists still have to pass through ``json.dumps`` /
    ``json.loads`` to become bytes (that is exactly what the network's
    byte accounting prices), while the binary storage codec's output
    already *is* the stored format.
    """
    import json as _json

    from repro.tuples.serialization import (
        decode_tuple,
        decode_tuple_binary,
        encode_tuple,
        encode_tuple_binary,
    )

    tuples = sample_tuples()

    def json_roundtrip():
        for tup in tuples:
            wire = _json.dumps(encode_tuple(tup), separators=(",", ":"))
            decode_tuple(_json.loads(wire))

    def binary_roundtrip():
        for tup in tuples:
            decode_tuple_binary(encode_tuple_binary(tup))

    n = len(tuples)
    return {
        "codec_json_roundtrip_ns": bench_ns(json_roundtrip) / n,
        "codec_binary_roundtrip_ns": bench_ns(binary_roundtrip) / n,
    }


def measure_scan(population: int = 2000) -> dict:
    """Store scan ns/op: uncached, cached, and mixed with 0/10/50 % writes.

    ``scan_mixed_w<P>_ns`` is ns per operation of a loop in which P % of
    the operations replace a resident tuple (evenly spaced, so each write
    strands the memo for the reads behind it) and the rest ``find``, all with
    a ``Range`` no index narrows; ``scan_range_after_write_ns`` is one write
    and a ``Range`` covering 10 entries — the ordered index's bisect.
    """
    from repro.tuples.model import Pattern, Range, Tuple
    from repro.tuples.store import TupleStore

    store = TupleStore()
    for i in range(population):
        store.add(Tuple("job" if i % 10 else "rare", i, float(i)))
    # A Range keeps the pattern on the filtered walk the memo serves.
    pattern = Pattern("rare", Range(0, population), float)

    def write():    # any mutation bumps the store version
        store.remove(store.add(Tuple("rare", 0, 0.0)).entry_id)

    def uncached():
        write()
        store.find(pattern)

    def cached():
        store.find(pattern)

    def mixed(write_every: int):
        def ten_ops():
            for k in range(10):
                if write_every and k % write_every == 0:
                    write()
                else:
                    store.find(pattern)
        return bench_ns(ten_ops) / 10

    narrow = Pattern(str, Range(1000, 1009), float)

    def range_after_write():
        write()
        store.find(narrow)

    store.find(pattern)  # warm the cache for the cached loop
    return {
        "scan_uncached_ns": bench_ns(uncached),
        "scan_cached_ns": bench_ns(cached),
        "scan_mixed_w0_ns": mixed(0),
        "scan_mixed_w10_ns": mixed(10),
        "scan_mixed_w50_ns": mixed(2),
        "scan_range_after_write_ns": bench_ns(range_after_write),
    }


def run_mru_workload(seed: int = 4, n_peers: int = 8,
                     n_ops: int = 40) -> dict:
    """The T1 MRU probe workload; returns frames/op and bytes/op.

    The origin repeatedly ``in``s a tuple that a consistently visible
    holder keeps replenishing — the paper's §3.1.3 cached-visibility-list
    scenario, made destructive so the claim-resolution frames travel the
    reliable sublayer.  The simulation is seeded and deterministic.
    """
    from repro.core.config import TiamatConfig
    from repro.core.instance import TiamatInstance
    from repro.leasing import LeaseTerms, SimpleLeaseRequester
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.tuples.model import Pattern, Tuple

    sim = Simulator(seed=seed)
    net = Network(sim)
    config = TiamatConfig(comms_strategy="mru")
    names = ["origin", "holder"] + [f"peer{i}" for i in range(n_peers)]
    instances = {n: TiamatInstance(sim, net, n, config=config) for n in names}
    net.visibility.connect_clique(names)

    holder_terms = SimpleLeaseRequester(LeaseTerms(duration=100_000.0))
    instances["holder"].out(Tuple("wanted", 0), requester=holder_terms)

    frames_before = net.stats.total_messages
    bytes_before = net.stats.total_bytes

    def driver():
        for i in range(n_ops):
            op = instances["origin"].in_(
                Pattern("wanted", int),
                requester=SimpleLeaseRequester(
                    LeaseTerms(duration=5.0, max_remotes=n_peers + 2)))
            yield op.event
            instances["holder"].out(Tuple("wanted", i + 1),
                                    requester=holder_terms)
            yield sim.timeout(1.0)

    sim.spawn(driver())
    sim.run(until=10_000.0)

    return {
        "frames_per_op": (net.stats.total_messages - frames_before) / n_ops,
        "bytes_per_op": (net.stats.total_bytes - bytes_before) / n_ops,
    }


def measure_flight() -> dict:
    """Amortised ns per flight-ring append (the always-on recorder tax).

    The acceptance bar is "cheap enough to leave on": one append is index
    arithmetic plus six list stores.  Timed as bursts of 64 appends —
    enough to cycle the ring through wraparound — and reported per
    append.
    """
    from repro.obs.flight import FlightRing

    ring = FlightRing("bench", capacity=256)
    burst = 64

    def appends():
        append = ring.append
        for i in range(burst):
            append(1.5, "send", "a#1", "query", "peer", None)

    return {
        "flight_append_ns": bench_ns(appends) / burst,
    }


def measure_wire() -> dict:
    """Frames/op and bytes/op of the default wire on the T1 MRU workload."""
    wire = run_mru_workload()
    return {
        "mru_frames_per_op_baseline": wire["frames_per_op"],
        "mru_bytes_per_op_baseline": wire["bytes_per_op"],
    }


def collect() -> dict:
    """One run of every measurement: ``{"metrics": gated, "info": not}``.

    ``metrics`` is the flat lower-is-better dict the gate compares;
    ``info`` is the real-socket loopback throughput (higher-is-better and
    runner-noisy, so :func:`compare` never reads it).
    """
    from repro.bench.aio import measure_aio_codec, measure_loopback

    metrics: dict = {}
    metrics.update(measure_codec())
    metrics.update(measure_scan())
    metrics.update(measure_flight())
    metrics.update(measure_wire())
    metrics.update(measure_aio_codec())
    return {"metrics": metrics, "info": measure_loopback()}


# ----------------------------------------------------------------------
# Gate logic
# ----------------------------------------------------------------------
def _delta(old: float, new: float) -> str:
    """``new`` against ``old``: relative, or absolute from a zero baseline."""
    if old > 0:
        return f"{(new / old - 1.0) * 100:+.1f}%"
    return f"{new - old:+.4g}"


def compare(baseline: dict, current: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Regression report: one line per metric over tolerance; empty = pass.

    Metrics present in only one of the two dicts are reported too — a
    silently vanished metric is how a gate rots.  A zero baseline has no
    relative band, so any rise above it is a regression.
    """
    problems = []
    base_metrics = baseline.get("metrics", baseline)
    cur_metrics = current.get("metrics", current)
    for name in sorted(base_metrics):
        if name not in cur_metrics:
            problems.append(f"metric {name!r} missing from current run")
            continue
        old, new = base_metrics[name], cur_metrics[name]
        limit = old * (1.0 + tolerance) if old > 0 else old
        if new > limit:
            problems.append(
                f"{name}: {new:.4g} vs baseline {old:.4g} "
                f"({_delta(old, new)}, tolerance {tolerance:.0%})")
    for name in sorted(cur_metrics):
        if name not in base_metrics:
            problems.append(
                f"new metric {name!r} not in baseline (rebaseline to adopt)")
    return problems


def render_table(current: dict, baseline: Optional[dict] = None) -> str:
    """Fixed-width report of a :func:`collect` run (optionally vs a baseline)."""
    from repro.bench.reporting import Table

    headers = ["metric", "value"]
    if baseline is not None:
        headers += ["baseline", "delta"]
    table = Table("micro-ops perf baseline", headers,
                  caption="all metrics lower-is-better")
    metrics = current.get("metrics", current)
    base_metrics = (baseline or {}).get("metrics", baseline or {})
    for name in sorted(metrics):
        row = [name, metrics[name]]
        if baseline is not None:
            old = base_metrics.get(name)
            row += ["-", "-"] if old is None else [old, _delta(old, metrics[name])]
        table.add_row(*row)
    text = table.render()
    info = current.get("info")
    if info:
        text += (f"\nloopback: {info['loopback_echo_ops_per_s']:,.0f} pipelined "
                 f"echo ops/s, {info['loopback_sync_echo_ops_per_s']:,.0f} sync "
                 "ops/s (informational, not gated)")
    return text
