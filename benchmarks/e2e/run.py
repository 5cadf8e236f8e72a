"""End-to-end and per-layer benchmark of out/rd/in on the aio, threads and sim runtimes.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--repeat K] [--record]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs in fresh subprocesses (``worker.py``): one that
measures, and around it several that only set up, so ``setup_s`` is a median.  Every
metric is printed by name with its unit; with ``--workload`` the last
line of output is the one-object JSON result ``BENCHMARK.json`` describes.
``--trace 0`` (default) gives the end-to-end metrics from untraced
rounds, ``--trace 1`` the per-layer metrics from a traced run plus direct
calls into each layer, bare ``--trace`` both.  Without ``--workload`` all
six run and the results go to ``benchmarks/e2e/out/result-seed<N>.json``,
the input of ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Set-ups per run, the measuring process included; ``setup_s`` is their median.
SETUPS = 5
QUICK_SECONDS = 0.5


def spawn(workload: str, seed: int, seconds: float, mode: str, quick: bool) -> dict:
    """Run ``worker.py`` to its end and return the JSON line it printed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--t0", repr(time.monotonic())]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: worker ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list) -> float:
    """How far the median of these readings may be off, as a share of it:
    their quartile distance over their median, divided by sqrt(how many)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) / len(values) ** 0.5


def measure(workload: str, seed: int, seconds: float, passes: tuple, quick: bool) -> dict:
    """One workload: end-to-end pass, traced pass, or both."""
    result: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "attempted": 0, "failed": 0, "notes": [], "metrics": {}, "spread": {}}

    def absorb(doc: dict, declared: dict) -> None:
        missing = sorted(set(declared) - set(doc["metrics"]))
        if missing:
            raise SystemExit(f"{workload}: worker did not report {missing}")
        for name, spec in declared.items():
            result["metrics"][name] = {"value": doc["metrics"][name], "unit": spec["unit"]}
        result["load"] = doc["load"]
        result["attempted"] += doc["attempted"]
        result["failed"] += doc["failed"]
        result["notes"] += doc["notes"]

    if "e2e" in passes:
        # half the set-ups before the measuring process, half after it: a
        # neighbour's busy stretch then slows at most half of them
        extra = 0 if quick else SETUPS - 1
        setups = [spawn(workload, seed, seconds, "setup", quick)["setup_s"]
                  for _ in range(extra // 2)]
        doc = spawn(workload, seed, seconds, "e2e", quick)
        setups.append(doc["setup_s"])
        setups += [spawn(workload, seed, seconds, "setup", quick)["setup_s"]
                   for _ in range(extra - extra // 2)]
        doc["metrics"]["setup_s"] = statistics.median(setups)
        absorb(doc, END_TO_END)
        result["rounds"] = len(doc["rounds"])
        result["samples"] = {kind: [r[f"{kind}_samples"] for r in doc["rounds"]]
                             for kind in ("out", "rd", "in")}
        result["spread"] = dict(doc["spread"], setup_s=spread(setups))
    if "trace" in passes:
        doc = spawn(workload, seed, seconds, "trace", quick)
        absorb(doc, PER_LAYER)
        result["trace_file"] = doc["trace_file"]
    result["correct"] = result["failed"] == 0
    return result


def show(result: dict, why: str) -> None:
    rounds = f" in {result['rounds']} rounds, read from the quietest fifth" if "rounds" in result else ""
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']:g} s{rounds}")
    print(f"   why: {why}")
    print(f"   load: {result['load']}")
    for name, metric in result["metrics"].items():
        note = ""
        if name in result["spread"]:
            note = f"   spread {result['spread'][name]:.1%}"
        print(f"   {name:44s} {metric['value']:14.4f} {metric['unit']}{note}")
    if "samples" in result:
        counts = ", ".join(f"{kind} {min(n)}..{max(n)}" for kind, n in result["samples"].items())
        print(f"   latency samples per round: {counts}")
    if "trace_file" in result:
        print(f"   spans written to {result['trace_file']}")
    print(f"   attempted {result['attempted']}  failed {result['failed']}  "
          f"fail_rate {result['failed'] / max(result['attempted'], 1):.6f}")
    for note in result["notes"]:
        print(f"   ! {note}")


# ----------------------------------------------------------------------
def verdicts(a: dict, b: dict) -> dict:
    """``{workload: {metric: (relative worsening of b, verdict)}}`` against the bounds."""
    table: dict = {}
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        row = table[name] = {}
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, spec in END_TO_END.items():
            va, vb = wa["metrics"][metric]["value"], wb["metrics"][metric]["value"]
            worse = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
            wide = max(wa["spread"].get(metric, 0.0), wb["spread"].get(metric, 0.0))
            if wide > spec["bound"]:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            row[metric] = (worse, verdict)
        fails = wb["failed"] - wa["failed"]
        row["fail_rate"] = (float(fails), "regressed" if fails > 0 else "ok")
    return table


def show_verdicts(table: dict) -> bool:
    """One row per workload; True when every cell is ``ok``."""
    columns = list(END_TO_END) + ["fail_rate"]
    print(f"{'workload':14s}" + "".join(f"{c:>18s}" for c in columns))
    clean = True
    for name, row in table.items():
        cells = []
        for column in columns:
            worse, verdict = row[column]
            clean = clean and verdict == "ok"
            cells.append(f"{verdict} {worse:+.1%}" if column != "fail_rate" else verdict)
        print(f"{name:14s}" + "".join(f"{c:>18s}" for c in cells))
    print("(+x% = second file worse by x% of the first; bounds from BENCHMARK.json; "
          "unresolved = one side's quietest rounds disagree by more than the bound)")
    return clean


# ----------------------------------------------------------------------
def fingerprint() -> dict:
    def git(*args: str):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def suite(args, passes: tuple) -> dict:
    names = [args.workload] if args.workload else WORKLOADS
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}, **fingerprint()}
    for name in names:
        result = measure(name, args.seed, args.seconds, passes, args.quick)
        show(result, whys[name])
        doc["workloads"][name] = result
    return doc


def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
        return 0 if show_verdicts(verdicts(a, b)) else 1

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help=f"timed seconds per workload (default {SPEC['run_seconds']})")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke profile: {QUICK_SECONDS} s per workload, one set-up")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the suite this many times and compare consecutive runs")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end metrics to history.jsonl")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to benchmark")
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(SPEC["run_seconds"])
    passes = {"0": ("e2e",), "1": ("trace",), "both": ("e2e", "trace")}[args.trace]

    runs = [suite(args, passes) for _ in range(args.repeat)]
    clean = all(w["correct"] for run in runs for w in run["workloads"].values())
    if "e2e" in passes:
        for before, after in zip(runs, runs[1:]):
            clean = show_verdicts(verdicts(before, after)) and clean
        if args.record:
            with open(HERE / "history.jsonl", "a") as history:
                for run in runs:
                    line = {k: v for k, v in run.items() if k != "workloads"}
                    line["workloads"] = {
                        name: {m: w["metrics"][m]["value"] for m in END_TO_END}
                        for name, w in run["workloads"].items()}
                    history.write(json.dumps(line) + "\n")
    if args.workload:
        last = runs[-1]["workloads"][args.workload]
        print(json.dumps({key: last[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    else:
        out = HERE / "out" / f"result-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(runs[-1], indent=1))
        print(f"results written to {out.relative_to(ROOT)}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
