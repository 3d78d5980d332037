#!/usr/bin/env python3
"""Benchmark for cycle-ramsey: time to checked verdicts, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

`--workload` is certify, eg-sweep, hunt, analyze, or all (each workload
in its own process, one after the other).  The package is imported
from ./src of the checkout, never from an installed copy.  A run
measures set-up, then repeats passes of the workload until `--seconds`
have passed (at least two passes), checking every result.  The last
line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of a run whose odd
passes record spans.  Spans, counters and work files go to
./.perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from recorder import LAYERS, Recorder, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cycle_ramsey"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

WORKLOAD_NAMES = ("certify", "eg-sweep", "hunt", "analyze")
MIN_PASSES = 2
SETUP_SAMPLES = 16
SETUP_CODE = "import cycle_ramsey, cycle_ramsey.cli"

# What the primary and secondary sections time on each workload, under the
# names the human-readable report uses.
SECTION_NAMES = {
    "certify": ("certify_s", "resume_s"),
    "eg-sweep": ("sweep_s", "sweep_small_s"),
    "hunt": ("hunt_s", "probe_s"),
    "analyze": ("analyze_s", "cli_s"),
}

PER_LAYER = (
    ("search.nodes", "count"),
    ("search.cycle_prunes", "count"),
    ("search.symmetry_prunes", "count"),
    ("search.nodes_per_s", "1/ref"),
    ("search.resume_legs", "count"),
    ("search.resume_nodes_ratio", "ratio"),
    ("search.max_open_prefixes", "count"),
    ("search.checkpoint_io_s", "ref"),
    ("search.hunt_s", "ref"),
    ("search.hunt_steps", "count"),
    ("search.hunt_steps_per_s", "1/ref"),
    ("search.hunt_found", "count"),
    ("cycles.sweep_graphs_checked", "count"),
    ("cycles.sweep_graphs_per_s", "1/ref"),
    ("cycles.components_calls", "count"),
    ("cycles.components_s", "ref"),
    ("matching.max_matching_calls", "count"),
    ("matching.max_matching_s", "ref"),
    ("graphs.coloring_build_s", "ref"),
    ("graphs.color_class_s", "ref"),
    ("constructions.verify_calls", "count"),
    ("constructions.verify_s", "ref"),
    ("constructions.build_s", "ref"),
    ("decompose.fl_decompose_s", "ref"),
    ("decompose.peel_s", "ref"),
    ("engine.lemma4_s", "ref"),
    ("engine.even_s", "ref"),
    ("engine.witness_search_s", "ref"),
    ("engine.verify_witness_s", "ref"),
    ("engine.ineq_s", "ref"),
    ("formats.parse_s", "ref"),
    ("formats.serialize_s", "ref"),
    ("formats.bytes", "B"),
    ("cli.calls", "count"),
    ("cli.run_s", "ref"),
    ("self_s.graphs", "ref"),
    ("self_s.matching", "ref"),
    ("self_s.cycles", "ref"),
    ("self_s.decompose", "ref"),
    ("self_s.constructions", "ref"),
    ("self_s.engine", "ref"),
    ("self_s.search", "ref"),
    ("self_s.formats", "ref"),
    ("self_s.cli", "ref"),
    ("self_s.bench", "ref"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _package_env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


class SetupTimer:
    """Wall time of a fresh interpreter importing the package and its
    CLI.  The first start, which fills the bytecode cache, is untimed.
    Every run then times `SETUP_SAMPLES` starts, whatever its pass
    count, spread evenly over the run between timed sections, so that
    `median` sees more than one phase of the machine."""

    def __init__(self) -> None:
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.env = _package_env()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times: list[float] = []

    def sample_due(self, share: float) -> None:
        """Take the starts due once `share` of the run has passed:
        start i is due at share i / SETUP_SAMPLES."""
        due = min(SETUP_SAMPLES, int(SETUP_SAMPLES * share) + 1)
        while len(self.times) < due:
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
            self.times.append(time.perf_counter() - t0)

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def _fingerprint() -> str:
    h = hashlib.sha256(sys.version.encode())
    for path in sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_counter_record(rec, wl, seed: int, counters: dict) -> None:
    """Counters must repeat exactly between runs of the same code on the
    same inputs; compare with the last run's record, then replace it."""
    key = wl.name if not wl.seeded_counters else f"{wl.name}-seed{seed}"
    path = OUT / "counters" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fingerprint = _fingerprint()
    with rec.op("counters repeat across runs"):
        if path.exists():
            old = json.loads(path.read_text())
            if old.get("fingerprint") == fingerprint:
                rec.require(
                    old["counters"] == counters,
                    f"counters differ from the run recorded in {path}",
                )
        tmp = path.with_name(f"{path.name}.{os.getpid()}")
        tmp.write_text(json.dumps({"fingerprint": fingerprint, "counters": counters}, sort_keys=True))
        os.replace(tmp, path)


def _baseline_drift(wl_name: str, seed: int, counters: dict) -> list[str]:
    """Counters that differ from the committed baseline, for the report.
    A drift is not a failure: it says the search tree or the corpus
    changed, which a change must then state."""
    if not BASELINE.exists():
        return []
    base = json.loads(BASELINE.read_text()).get("counters", {}).get(wl_name)
    if base is None or (base.get("seed") is not None and base["seed"] != seed):
        return []
    lines = []
    for section in ("primary", "secondary"):
        old, new = base.get(section, {}), counters.get(section, {})
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                lines.append(f"counter drift {section}.{key}: baseline {old.get(key)} now {new.get(key)}")
    return lines


def _per_layer(wl_name: str, traced: list[dict], overhead: float, n_spans: int) -> dict:
    """Per-layer metrics: the median over traced passes of each value."""

    def per_pass(p: dict) -> dict:
        # Span times in reference-job units of their own section, like
        # the costs, so that machine drift cancels out of them too.
        s = summarize(p["spans"], {f"bench.{sec}": p[f"{sec}_job_s"]
                                   for sec in ("primary", "secondary")})
        calls, secs = s["calls"], s["time"]
        prim, sec = p["counters"]["primary"], p["counters"]["secondary"]

        def total(names, section=None, what=secs):
            return sum(
                v for (root, name), v in what.items()
                if name in names and (section is None or root == section)
            )

        m = {name: 0 for name, _ in PER_LAYER}
        if wl_name == "certify":
            one_shot = prim.values()
            m["search.nodes"] = sum(v[0] for v in one_shot)
            m["search.cycle_prunes"] = sum(v[1] for v in one_shot)
            m["search.symmetry_prunes"] = sum(v[2] for v in one_shot)
            search_s = total({"search.ramsey_check"}, "bench.primary")
            m["search.nodes_per_s"] = m["search.nodes"] / search_s if search_s else 0
            m["search.resume_legs"] = sec.get("legs", 0)
            m["search.max_open_prefixes"] = sec.get("max_open_prefixes", 0)
            ref = prim.get("5-9", [0])[0]
            m["search.resume_nodes_ratio"] = sec.get("nodes", 0) / ref if ref else 0
            m["search.checkpoint_io_s"] = total({"search.write_checkpoint", "search.read_checkpoint"})
        if wl_name == "eg-sweep":
            checked = prim.get("v7", [0, 0])[1]
            m["cycles.sweep_graphs_checked"] = checked
            sweep_s = total({"cycles.erdos_gallai_sweep"}, "bench.primary")
            m["cycles.sweep_graphs_per_s"] = checked / sweep_s if sweep_s else 0
        if wl_name == "hunt":
            m["search.hunt_s"] = total({"search.lower_bound_witness_search"})
            m["search.hunt_steps"] = sum(v[0] for v in prim.values())
            m["search.hunt_found"] = sum(1 for v in prim.values() if v[2] > 0)
            if m["search.hunt_s"]:
                m["search.hunt_steps_per_s"] = m["search.hunt_steps"] / m["search.hunt_s"]
        if wl_name == "analyze":
            m["formats.bytes"] = prim.get("bytes", 0)
        m["cycles.components_calls"] = total({"cycles.components"}, what=calls)
        m["cycles.components_s"] = total({"cycles.components"})
        m["matching.max_matching_calls"] = total({"matching.max_matching"}, what=calls)
        m["matching.max_matching_s"] = total({"matching.max_matching"})
        m["graphs.coloring_build_s"] = total({"graphs.build_coloring"})
        m["graphs.color_class_s"] = total({"graphs.color_class"})
        m["constructions.verify_calls"] = total({"constructions.verify_mono_cycle_free"}, what=calls)
        m["constructions.verify_s"] = total({"constructions.verify_mono_cycle_free"})
        m["constructions.build_s"] = total({"constructions.bondy_erdos_coloring"})
        m["decompose.fl_decompose_s"] = total({"decompose.fl_decompose"})
        m["decompose.peel_s"] = total({"decompose.min_degree_peel"})
        m["engine.lemma4_s"] = total({"engine.lemma4_execute"})
        m["engine.even_s"] = total({"engine.even_engine"})
        m["engine.witness_search_s"] = total({"engine.pk_witness_search"})
        m["engine.verify_witness_s"] = total({"engine.verify_witness"})
        m["engine.ineq_s"] = total({"engine.lemma4_inequality_check"})
        m["formats.parse_s"] = total({"formats.parse_coloring"})
        m["formats.serialize_s"] = sum(
            v for (_, name), v in secs.items()
            if name.startswith("formats.") and name != "formats.parse_coloring"
        )
        m["cli.calls"] = total({"cli.run"}, what=calls)
        m["cli.run_s"] = total({"cli.run"})
        for layer in LAYERS + ("bench",):
            m[f"self_s.{layer}"] = s["self"][layer]
        return m

    rows = [per_pass(p) for p in traced]
    out = {name: statistics.median(r[name] for r in rows) for name, _ in PER_LAYER}
    out["trace.overhead"] = overhead
    out["trace.spans"] = n_spans
    return out


def run_workload(args) -> int:
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cycle_ramsey

    if Path(cycle_ramsey.__file__).resolve().parent != PACKAGE:
        print(f"error: imported {cycle_ramsey.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2

    work_dir = OUT / "work" / str(os.getpid())  # one per run: runs may overlap
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, work_dir: Path) -> int:
    from workloads import WORKLOADS

    setup = SetupTimer()
    wl = WORKLOADS[args.workload](args.seed, work_dir, ROOT)
    rec = Recorder()
    passes = []
    start = time.perf_counter()
    deadline = start + args.seconds
    setup.sample_due(0.0)
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_span = len(rec.spans)
        row = {"traced": traced, "first_span": first_span, "counters": {}}
        for section in ("primary", "secondary"):
            rec.tracing = traced
            with reference.SpeedProbe() as probe:
                t0 = time.perf_counter()
                row["counters"][section] = rec.call(f"bench.{section}", getattr(wl, section), rec)
                wall = time.perf_counter() - t0
            rec.tracing = False
            row[f"{section}_s"] = wall - probe.busy_s
            row[f"{section}_cost"] = row[f"{section}_s"] / probe.job_s
            row[f"{section}_job_s"] = probe.job_s
            setup.sample_due((time.perf_counter() - start) / args.seconds)
        row["spans"] = rec.spans[first_span:]
        passes.append(row)
    setup.sample_due(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counters = passes[0]["counters"]
    with rec.op("counters repeat across passes"):
        rec.require(
            all(p["counters"] == counters for p in passes),
            "counters differ between passes of one run",
        )
    _check_counter_record(rec, wl, args.seed, counters)

    plain = [p for p in passes if not p["traced"]]
    med = {key: statistics.median(p[key] for p in plain)
           for key in ("primary_s", "secondary_s", "primary_cost", "secondary_cost", "primary_job_s")}
    name1, name2 = SECTION_NAMES[args.workload]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    print(f"setup_s {setup.median:.4f} s  (fresh interpreter importing cycle_ramsey and its CLI; "
          f"runs {' '.join(f'{t:.4f}' for t in setup.times)})")
    print(f"reference job {med['primary_job_s'] * 1000:.3f} ms  (median over passes, primary section)")
    for section, name in (("primary", name1), ("secondary", name2)):
        each = " ".join(f"{p[section + '_s']:.4f}" for p in plain)
        print(f"{name} {med[section + '_s']:.4f} s  (passes {each})")
        each = " ".join(f"{p[section + '_cost']:.2f}" for p in plain)
        print(f"{section}_cost {med[section + '_cost']:.2f} ref  ({name} / reference job; passes {each})")
    if args.workload == "hunt":
        steps = sum(v[0] for v in counters["primary"].values())
        found = sum(1 for v in counters["primary"].values() if v[2] > 0)
        print(f"hunt_steps_per_s {steps / med['primary_s']:.1f} steps/s  ({steps} steps per pass)")
        print(f"hunt_found {found} count  (rungs K_N with a re-verified witness)")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MiB")
    print(f"ops_failed {rec.failed / rec.attempted:.6f} fraction  ({rec.failed} of {rec.attempted} ops)")
    print("counters " + json.dumps(counters, sort_keys=True))
    for line in _baseline_drift(args.workload, args.seed, counters):
        print(line)

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        whole = statistics.median(p["primary_cost"] + p["secondary_cost"] for p in plain)
        whole_traced = statistics.median(p["primary_cost"] + p["secondary_cost"] for p in traced)
        overhead = whole_traced / whole - 1
        span_pass = {}
        for i, p in enumerate(passes):
            for j in range(len(p["spans"])):
                span_pass[p["first_span"] + j] = i
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        rec.write_spans(trace_dir / f"{stem}.jsonl", span_pass.__getitem__)
        spans_per_pass = statistics.median(len(p["spans"]) for p in traced)
        metrics = _per_layer(args.workload, traced, overhead, spans_per_pass)
        (trace_dir / f"{stem}-layers.json").write_text(json.dumps(metrics, indent=1, sort_keys=True))
        for layer in LAYERS + ("bench",):
            print(f"self_s.{layer} {metrics[f'self_s.{layer}']:.2f} ref")
        print(f"trace.overhead {overhead:+.4f} (traced pass cost / untraced - 1)")
        units = dict(PER_LAYER)
        result = {name: {"value": metrics[name], "unit": units[name]} for name, _ in PER_LAYER}
    else:
        result = {
            "setup_s": {"value": setup.median, "unit": "s"},
            "primary_cost": {"value": med["primary_cost"], "unit": "ref"},
            "secondary_cost": {"value": med["secondary_cost"], "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each report, then one
    JSON line whose metric names carry the workload as a prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
