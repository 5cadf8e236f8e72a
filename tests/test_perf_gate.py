"""The perf gate itself: ``repro.bench.perf.compare`` and its front end.

"The gate trips on a regression" is proved here on every tier-1 run —
with synthetic metric dicts for the comparison logic, and once through
``benchmarks/perf_baseline.py --check`` against a doctored baseline.
"""

import json
import pathlib
import subprocess
import sys

from repro.bench import aio, perf

ROOT = pathlib.Path(__file__).parent.parent
BASELINE = json.loads((ROOT / "BENCH_micro.json").read_text())


def test_within_tolerance_passes():
    current = {name: value * 1.24 for name, value in BASELINE["metrics"].items()}
    assert perf.compare(BASELINE, current) == []
    assert perf.compare(BASELINE, BASELINE) == []


def test_regression_over_tolerance_names_the_metric():
    current = dict(BASELINE["metrics"])
    current["scan_cached_ns"] *= 1.26
    problems = perf.compare(BASELINE, current)
    assert len(problems) == 1
    assert problems[0].startswith("scan_cached_ns:") and "+26.0%" in problems[0]


def test_every_value_doubled_trips_every_name():
    current = {name: value * 2 for name, value in BASELINE["metrics"].items()}
    problems = perf.compare(BASELINE, {"metrics": current})
    assert sorted(p.split(":")[0] for p in problems) == sorted(current)


def test_metrics_on_one_side_only_are_reported():
    problems = perf.compare({"kept": 1.0, "vanished": 1.0},
                            {"kept": 1.0, "appeared": 1.0})
    assert problems == ["metric 'vanished' missing from current run",
                        "new metric 'appeared' not in baseline "
                        "(rebaseline to adopt)"]


def test_zero_baseline_is_gated():
    assert perf.compare({"dups": 0.0}, {"dups": 0.0}) == []
    problems = perf.compare({"dups": 0.0}, {"dups": 2.0})
    assert len(problems) == 1 and problems[0].startswith("dups: 2 vs baseline 0")
    row = perf.render_table({"dups": 2.0}, {"dups": 0.0}).splitlines()[-1]
    assert [cell.strip() for cell in row.split("|")] == ["dups", "2", "0", "+2"]


def test_collect_measures_exactly_the_committed_names(monkeypatch):
    def run_once(fn, **_):
        fn()
        return 1.0

    monkeypatch.setattr(perf, "bench_ns", run_once)
    monkeypatch.setattr(aio, "bench_ns", run_once)
    current = perf.collect()
    assert sorted(current["metrics"]) == sorted(BASELINE["metrics"])
    assert len(current["metrics"]) == 13
    assert sorted(current["info"]) == sorted(BASELINE["info"])


def test_check_exits_1_against_a_halved_baseline(tmp_path):
    doctored = json.loads(json.dumps(BASELINE))
    # A seeded wire figure: the run reads exactly 2x its halved baseline,
    # so the verdict does not depend on how noisy this box is.
    doctored["metrics"]["mru_frames_per_op_baseline"] /= 2
    path = tmp_path / "halved.json"
    path.write_text(json.dumps(doctored))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "perf_baseline.py"),
         "--check", "--baseline", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "mru_frames_per_op_baseline: 30.25 vs baseline 15.12 (+100.0%" in proc.stdout
