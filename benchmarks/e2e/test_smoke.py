"""Smoke test of the benchmark itself (``pytest benchmarks/e2e``; not tier-1).

Runs the ``--quick`` profile once over all six workloads, both passes, and
checks that every workload emits every metric ``BENCHMARK.json`` declares,
with its unit, that no call failed, and that the exact frame count on
``sim_union`` repeats bit for bit for one seed.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
DECLARED = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SEED = 5


def run(*args: str) -> str:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:]
    return done.stdout


@pytest.fixture(scope="module")
def suite() -> dict:
    run("--quick", "--trace", "--seed", str(SEED))
    return json.loads((HERE / "out" / f"result-seed{SEED}.json").read_text())


def test_every_workload_emits_every_declared_metric(suite):
    assert list(suite["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in suite["workloads"].items():
        metrics = result["metrics"]
        assert set(metrics) == set(DECLARED), name
        for metric, reading in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
            assert reading["unit"] == DECLARED[metric], (name, metric)
            assert isinstance(reading["value"], (int, float)), (name, metric)
        for metric in SPEC["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, (name, metric["name"])
        assert result["failed"] == 0 and result["attempted"] > 0, (name, result["notes"])
        assert (HERE / "out" / f"trace-{name}.json").is_file()


def test_sim_union_frames_per_op_repeats_exactly(suite):
    again = json.loads(run("--quick", "--workload", "sim_union", "--trace", "1",
                           "--seed", str(SEED)).splitlines()[-1])
    first = suite["workloads"]["sim_union"]["metrics"]["net.frames_per_op"]["value"]
    assert again["metrics"]["net.frames_per_op"]["value"] == first
    assert first > 0
