#!/usr/bin/env python3
"""Regenerate perfbench/baseline.json and report how steady the benchmark is.

Run from the repository root:

    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json untraced on seeds 1..10 for its
`run_seconds`, one run at a time, then once traced on seed 1.  For each end-to-end metric it records the median,
the quartiles and the quartile spread (Q3 - Q1) / median, and flags a
spread of more than a third of the metric's bound in BENCHMARK.json.
It also records every workload's counters, the Python version and
`os.cpu_count()`.  A failed check or a counter that changes between
seeds where it must not makes the script exit 1.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = HERE / "baseline.json"
RUNS = 10

sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402  (needs the package on the path)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    counters = next(
        json.loads(line[len("counters "):]) for line in lines if line.startswith("counters ")
    )
    return json.loads(lines[-1]), counters


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "runs": RUNS,
        "workloads": {},
        "counters": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results, counters = [], []
        for seed in range(1, RUNS + 1):
            res, cnt = _run(workload, seed, seconds, 0)
            results.append(res)
            counters.append(cnt)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4f}" for m, v in res["metrics"].items()), flush=True)
        traced, _ = _run(workload, 1, seconds, 1)
        entry = {"end_to_end": {}, "per_layer": {m: v["value"] for m, v in traced["metrics"].items()}}
        for metric in bounds:
            xs = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = spread <= bounds[metric] / 3
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs,
            }
            print(f"  {workload} {metric}: median {med:.4f} spread {spread:.4f} "
                  f"(bound {bounds[metric]}){'' if steady else '  NOT STEADY'}")
        entry["ops_attempted"] = results[0]["attempted"]
        entry["ops_failed"] = sum(r["failed"] for r in results) + traced["failed"]
        doc["workloads"][workload] = entry
        if entry["ops_failed"] or not all(r["correct"] for r in results + [traced]):
            print(f"  {workload}: FAILED checks")
            ok = False
        if WORKLOADS[workload].seeded_counters:
            doc["counters"][workload] = {"seed": 1, **counters[0]}
        else:
            doc["counters"][workload] = {"seed": None, **counters[0]}
            if any(c != counters[0] for c in counters):
                print(f"  {workload}: counters differ between seeds")
                ok = False
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
