#!/usr/bin/env python3
"""Time one leg at every extra caller depth over one period.

A call's time can swing with the depth of the stack it is called from.
On CPython 3.11 the frames live in data-stack chunks of about 16 KiB;
when a hot loop's frames straddle a chunk boundary, each push across it
allocates a chunk and each pop frees it.  The slow depths come in bands
about 150 small frames apart, so one timing may land in a fast band or
a slow one.  A speed claim should quote the median over a whole period.

For each extra depth 0, s, 2s, ... below --period (s is --step), the
leg runs under that many padding frames in the main thread (a new
thread would have a data stack of its own), and the best of --repeat
runs is kept.  The leg runs once untimed first.  One line per depth
gives its milliseconds; the last line gives the min, the median and the
max over the depths, and the max/min ratio.

    certify  the eight searches R_2(C_n) at R and at R-1 for n = 3..6,
             each verdict checked
    probes   `components`, each component's own matching and
             `max_matching` of its induced subgraph, for every colour
             class of 1,000 seeded random 3-colourings of K_10 and K_11
    sweep    `erdos_gallai_sweep(v)` for v = 1..7, each report clean and
             2,014,992 graphs checked at v = 7

    python scripts/depth_sweep.py --leg probes --period 150 --step 5 --repeat 3

At step 1 a probes sweep takes about a minute, a certify sweep about
10 s and a sweep sweep about 13 s (Python 3.11, one core of a 2-core
VM).  All three show slow bands: probes up to 3.7x its minimum at
depths 102-108, certify up to 2.4x at about 40-85, sweep up to 2.9x at
about 98-104.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from cycle_ramsey import (
    EdgeColoring,
    SearchVerdict,
    color_class,
    complete_graph,
    components,
    erdos_gallai_sweep,
    induced_subgraph,
    max_matching,
    ramsey_check,
)

# R_2(C_n) for n = 3..6
SMALL_VALUES = ((3, 6), (4, 6), (5, 9), (6, 8))
PROBE_ORDERS = (10, 11)
PROBES_PER_ORDER = 500
PROBE_COLORS = 3
PROBE_SEED = 1
SWEEP_MAX_ORDER = 7
SWEEP_CHECKED = 2_014_992  # graphs on 7 vertices that meet a threshold
# Leaves room below the default recursion limit of 1000 for the leg's
# own frames.
MAX_PERIOD = 600


def certify(_) -> None:
    for n, value in SMALL_VALUES:
        for N, want in ((value, SearchVerdict.ALL_CONTAIN),
                        (value - 1, SearchVerdict.COUNTEREXAMPLE)):
            got = ramsey_check(2, n, N).verdict
            if got is not want:
                raise AssertionError(f"R_2(C_{n}) on K_{N}: {got}, expected {want}")


def probe_colorings() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(PROBE_SEED)
    return [
        (v, tuple(rng.randint(1, PROBE_COLORS) for _ in range(v * (v - 1) // 2)))
        for v in PROBE_ORDERS
        for _ in range(PROBES_PER_ORDER)
    ]


def probes(colorings) -> None:
    """Every colouring is built anew, so no run reuses a cached report."""
    for v, colors in colorings:
        col = EdgeColoring(complete_graph(v), PROBE_COLORS, colors)
        for i in range(1, PROBE_COLORS + 1):
            G = color_class(col, i)
            for comp in components(G).components:
                if len(comp.vertices) < 2:
                    continue
                sub, _ = induced_subgraph(G, comp.vertices)
                if max_matching(sub).size != comp.matching_size:
                    raise AssertionError(f"matchings disagree on {comp.vertices}")


def sweep(_) -> None:
    for v in range(1, SWEEP_MAX_ORDER + 1):
        rep = erdos_gallai_sweep(v)
        if not rep.ok:
            raise AssertionError(f"sweep on {v} vertices: {rep.violation_count} violations")
    if rep.graphs_checked != SWEEP_CHECKED:
        raise AssertionError(f"sweep on {v} vertices checked {rep.graphs_checked} graphs")


LEGS = {
    "certify": (certify, lambda: None),
    "probes": (probes, probe_colorings),
    "sweep": (sweep, lambda: None),
}


def _at_depth(depth: int, leg, arg) -> float:
    """Run leg(arg) under `depth` extra frames; its seconds."""
    if depth:
        return _at_depth(depth - 1, leg, arg)
    t0 = time.perf_counter()
    leg(arg)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--leg", choices=sorted(LEGS), default="probes")
    ap.add_argument("--period", type=int, default=150,
                    help="sweep the extra depths below this (default 150)")
    ap.add_argument("--step", type=int, default=5, help="depth step (default 5)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per depth, best kept (default 3)")
    args = ap.parse_args(argv)
    if not 1 <= args.period <= MAX_PERIOD:
        ap.error(f"--period must be in 1..{MAX_PERIOD}")
    if args.step < 1:
        ap.error("--step must be at least 1")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    leg, make_input = LEGS[args.leg]
    arg = make_input()
    _at_depth(0, leg, arg)
    times = []
    for depth in range(0, args.period, args.step):
        best = min(_at_depth(depth, leg, arg) for _ in range(args.repeat))
        times.append(best * 1e3)
        print(f"depth {depth} ms {best * 1e3:.2f}", flush=True)
    lo, hi = min(times), max(times)
    print(
        f"min {lo:.2f} median {statistics.median(times):.2f} "
        f"max {hi:.2f} ratio {hi / lo:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
