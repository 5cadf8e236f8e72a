#!/usr/bin/env python
"""Micro-layer perf baseline harness + CI regression gate.

Runs the ``repro.bench.perf`` suite (codec, store scan, flight append and
aio frame-path ns/op; frames/op and bytes/op on the T1 MRU workload; the
ungated UDP-loopback ``info`` section) and either records the result as
the committed baseline or checks a fresh run against it.  This is the
only ``--check`` / ``--rebaseline`` front end: end-to-end cost is gated by
``BENCHMARK.json``, and the seeded fabric/agents figures are pinned
exactly inside ``test_t5b_tiamat_scalability.py`` / ``test_t12_agents.py``.

Usage::

    python benchmarks/perf_baseline.py                # measure + print
    python benchmarks/perf_baseline.py --rebaseline   # rewrite BENCH_micro.json
    python benchmarks/perf_baseline.py --check        # gate: exit 1 on >25% regression

**Rebaseline policy** (the escape hatch): when a PR intentionally changes
performance (new hardware assumptions, heavier correctness checks, a
deliberate trade), run ``--rebaseline`` locally, commit the updated
``BENCH_micro.json`` in the same PR, and say why in the PR description.
The gate compares against the *committed* baseline, so the rebaseline and
the change it excuses are reviewed together.  The document is always one
whole run on one box — never splice values from different runs — and
never rebaseline to silence a regression you cannot explain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import perf  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_micro.json")


def runner_fingerprint() -> dict:
    """Where a baseline was measured — context for reviewing a regression
    (timing metrics move with the hardware; the gate's 25% tolerance
    assumes baseline and check ran on comparable runners)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def build_document(current: dict) -> dict:
    return {
        "schema": perf.SCHEMA_VERSION,
        "generated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "runner": runner_fingerprint(),
        "units": {"*_ns": "median ns/op", "*_per_op": "per logical operation",
                  "*_ops_per_s": "sustained ops/s (informational)"},
        **current,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON path (default BENCH_micro.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 1 on regression")
    parser.add_argument("--rebaseline", action="store_true",
                        help="write the measured metrics as the new baseline")
    parser.add_argument("--tolerance", type=float,
                        default=perf.DEFAULT_TOLERANCE,
                        help="relative regression tolerated (default 0.25)")
    args = parser.parse_args(argv)

    current = perf.collect()

    baseline = None
    if not args.rebaseline and os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)

    print(perf.render_table(current, baseline))

    if args.rebaseline:
        doc = build_document(current)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n[perf] baseline written to {args.baseline}")
        return 0

    if args.check:
        if baseline is None:
            print(f"\n[perf] FAIL: no baseline at {args.baseline} "
                  "(run --rebaseline and commit it)")
            return 1
        problems = perf.compare(baseline, current, tolerance=args.tolerance)
        if problems:
            print("\n[perf] FAIL: regression gate tripped:")
            for line in problems:
                print(f"  - {line}")
            print("\nIf this change is intentional, rebaseline per the "
                  "policy in this script's docstring.")
            return 1
        print(f"\n[perf] OK: all metrics within {args.tolerance:.0%} "
              "of the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
