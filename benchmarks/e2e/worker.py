"""One workload in one fresh process; prints one JSON line for ``run.py``.

Modes: ``setup`` stops after set-up (``run.py`` takes the median of
several); ``e2e`` adds the timed, untraced rounds every end-to-end metric
comes from; ``trace`` alternates untraced and traced rounds, then
measures the layers by direct calls, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Timed rounds per end-to-end pass.  Many short ones, read by ``quiet_fifth``.
ROUNDS = 25
#: End-to-end metrics taken from the rounds, and whether higher is better.
ROUND_METRICS = {"ops_per_s": True, "out_p50_us": False, "rd_p50_us": False,
                 "in_p50_us": False}
#: The traced pass runs 2 untraced and 2 traced rounds of ``seconds / 10`` each.
TRACE_ROUND_SHARE = 0.1


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def timed_round(workload, seconds: float) -> dict:
    """One round: ops/s, latency percentiles (µs) and sample counts."""
    calls_before = workload.calls
    elapsed = workload.run_round(seconds)
    calls = workload.calls - calls_before
    out = {"calls": calls, "elapsed_s": elapsed, "ops_per_s": calls / elapsed}
    for kind, samples in workload.lat.items():
        ordered = sorted(samples)
        samples.clear()
        out[f"{kind}_samples"] = len(ordered)
        if ordered:
            for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
                out[f"{kind}_{label}_us"] = percentile(ordered, q) / 1e3
    return out


def median_of(rounds: list, key: str) -> float:
    return statistics.median(r[key] for r in rounds if key in r)


def quiet_fifth(rounds: list, key: str, higher_is_better: bool) -> tuple:
    """A metric as the quietest fifth of the rounds read it: their median, and
    how far they disagree (their range as a share of that median).

    On a shared box a busy neighbour slows whole stretches of a run, by up to a
    third and only ever one way, so the median over all rounds follows the
    neighbour; the best few rounds follow the program.
    """
    values = sorted((r[key] for r in rounds), reverse=higher_is_better)
    quietest = values[:math.ceil(len(values) / 5)]
    reading = statistics.median(quietest)
    return reading, abs(quietest[-1] - quietest[0]) / reading


def layer_counters(delta: dict, calls: int, takes: int) -> dict:
    """Per-workload layer metrics from public counters; 0 where the layer is absent."""
    get = delta.get
    datagrams = get("aio.pool_hits", 0) + get("aio.pool_misses", 0)
    return {
        "net.frames_per_op": ratio(get("aio.frames_sent", 0) + get("net.frames", 0), calls),
        "net.bytes_per_op": ratio(get("aio.bytes_sent", 0) + get("net.bytes", 0), calls),
        "store.scan_cache_hit_ratio": ratio(
            delta["store.hits"], delta["store.hits"] + delta["store.misses"]),
        "store.entries_scanned_per_find": ratio(delta["store.scanned"], delta["store.scans"]),
        "runtime.aio.frames_per_datagram": ratio(get("aio.frames_sent", 0), datagrams),
        "runtime.aio.retransmits": get("aio.retransmits", 0),
        "runtime.aio.dedup_served": get("aio.dedup_served", 0),
        "runtime.aio.sheds": get("aio.sheds", 0),
        "runtime.aio.transport_errors": get("aio.transport_errors", 0),
        "runtime.aio.pool_hit_ratio": ratio(get("aio.pool_hits", 0), datagrams),
        "sim.kernel.events_per_op": ratio(get("sim.events", 0), calls),
        "core.serving.offers_per_in": ratio(get("serving.offers_made", 0), takes),
        "core.serving.offer_win_ratio": ratio(
            get("serving.offers_won", 0), get("serving.offers_made", 0)),
        "core.serving.sheds": get("serving.sheds", 0),
        "core.reliability.sent_per_op": ratio(get("reliability.sent", 0), calls),
        "core.reliability.retransmits_per_op": ratio(get("reliability.retransmits", 0), calls),
        "core.reliability.duplicates_dropped": get("reliability.duplicates_dropped", 0),
        "leasing.negotiations_per_op": ratio(get("leasing.negotiations", 0), calls),
        "leasing.refusals": get("leasing.refusals", 0),
        "net.network.unicast_per_op": ratio(get("net.unicast", 0), calls),
        "net.network.multicast_per_op": ratio(get("net.multicast", 0), calls),
        "net.network.dropped": get("net.dropped", 0),
    }


def subtract(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def run_e2e(workload, seconds: float) -> dict:
    rounds = [timed_round(workload, seconds / ROUNDS) for _ in range(ROUNDS)]
    readings = {key: quiet_fifth(rounds, key, higher)
                for key, higher in ROUND_METRICS.items()}
    return {"rounds": rounds,
            "metrics": {key: reading for key, (reading, _) in readings.items()},
            "spread": {key: apart for key, (_, apart) in readings.items()}}


def run_trace(workload, args) -> dict:
    from tracing import LAYERS, Recorder

    rec = Recorder()
    round_s = args.seconds * TRACE_ROUND_SHARE
    start = workload.counters()
    plain, traced = [], []
    traced_delta: dict = {}
    for _ in range(2):
        plain.append(timed_round(workload, round_s))
        before = workload.counters()
        patches = workload.instrument(rec)
        try:
            traced.append(timed_round(workload, round_s))
        finally:
            patches.undo()
        for key, value in subtract(workload.counters(), before).items():
            traced_delta[key] = traced_delta.get(key, 0) + value
    delta = subtract(workload.counters(), start)
    every = plain + traced
    calls = sum(r["calls"] for r in every)
    metrics = layer_counters(delta, calls, sum(r["in_samples"] for r in every))
    for tail in ("rd_p90_us", "in_p90_us", "rd_p99_us", "in_p99_us"):
        metrics["e2e." + tail] = median_of(plain, tail)
    workload.close()

    import layers
    direct = layers.measure_all(args.quick)
    metrics.update(direct)

    traced_calls = sum(r["calls"] for r in traced)
    self_us = rec.layer_us(rec.self_ns)
    for layer in sorted(set(LAYERS.values())):
        metrics[f"trace.{layer}.self_us_per_op"] = ratio(self_us.get(layer, 0.0), traced_calls)
    # What the handle calls cost in all: their own spans, or — where 32 of them
    # overlap on one loop — the wall time of the traced rounds.
    if workload.calls_overlap:
        total_us = sum(r["elapsed_s"] for r in traced) * 1e6
    else:
        total_us = rec.layer_us(rec.busy_ns).get("op", 0.0)
    explained = sum(us for layer, us in self_us.items() if layer not in ("op", "driver"))
    floors = workload.os_floor_us(traced_delta, traced_calls, direct)
    metrics["trace.residual_share"] = ratio(total_us - explained - floors, total_us)
    metrics["trace.overhead_share"] = 1.0 - ratio(median_of(traced, "ops_per_s"),
                                                  median_of(plain, "ops_per_s"))
    trace_file = HERE / "out" / f"trace-{workload.name}.json"
    rec.write(trace_file, workload=workload.name, seed=args.seed,
              round_seconds=round_s)
    return {"rounds": plain, "traced_rounds": traced, "metrics": metrics,
            "trace_file": str(trace_file.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.start_timing()
    doc = {"workload": workload.name, "load": workload.load, "seed": args.seed,
           "mode": args.mode, "seconds": args.seconds, "setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        workload.rt.close()
    elif args.mode == "e2e":
        doc.update(run_e2e(workload, args.seconds))
        workload.close()
        doc["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        doc.update(run_trace(workload, args))
    doc.update(attempted=workload.oracle.attempted, failed=workload.oracle.failed,
               notes=workload.oracle.notes)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
