#!/usr/bin/env python3
"""Exhaustively verify the Erdős–Gallai cycle threshold on small orders.

For every labeled graph on v vertices and every target length n: meeting
the edge threshold (n-1)(v-1)/2 + 1 must force a cycle of length at
least n.  The sweep walks the edge subsets in Gray-code order, 2^T
graphs at a time, the lane width T growing with the edge count: 2^11
graphs at v = 6, 2^14 at v = 7, 2^15 at v = 8 and 2^16 at v = 9.  The
graphs that share their high edge bits are the bits of one int, and the
cycles found so far (kept by their high edges, the last 32 high-edge
sets of each length) accept, in a few big-int ANDs, every one of them
that holds one and needs no longer cycle.  Only the graphs left get a
cycle search, on neighbour masks built for them alone.  v = 7 means
2^21 graphs, 2,014,992 of them checked with 1,388 cycle searches, in
0.017-0.026 s on one core (5 runs).  v = 8 means 2^28 graphs,
266,752,238 checked with 38,055 cycle searches, in 0.77-1.31 s (5 runs).
v = 9 means 2^36 graphs: one run (Python 3.11, one core of a 2-core VM,
peak RSS 26 MiB) printed

    graphs 68719476736 checked 68678477220
    violations 0
    elapsed 120.431s cycle-searches 1208062 checked/s 570,270,304

and two more runs took 104 s and 113 s.  Only this script runs v = 9;
the tests and CI stop at v = 8.

Each order's `elapsed` line gives its time, kernel calls and checked
graphs per second.  --max-vertices is 1..9 (default 7), and --lengths
takes at least one value, each at least 3.
"""

from __future__ import annotations

import argparse
import time

from cycle_ramsey import erdos_gallai_sweep
from cycle_ramsey.cycles import _SWEEP_MAX_VERTICES
from cycle_ramsey.formats import serialize_sweep_report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=7)
    ap.add_argument(
        "--lengths", type=int, nargs="*", default=None,
        help="target cycle lengths (default: 3..v per order)",
    )
    args = ap.parse_args(argv)
    if not 1 <= args.max_vertices <= _SWEEP_MAX_VERTICES:
        ap.error(f"--max-vertices must be in 1..{_SWEEP_MAX_VERTICES}")
    if args.lengths == []:
        ap.error("--lengths needs at least one value")
    if args.lengths and min(args.lengths) < 3:
        ap.error("--lengths must all be at least 3")
    clean = True
    for v in range(1, args.max_vertices + 1):
        t0 = time.perf_counter()
        rep = erdos_gallai_sweep(v, lengths=args.lengths)
        dt = time.perf_counter() - t0
        print(serialize_sweep_report(rep), end="")
        print(
            f"elapsed {dt:.3f}s cycle-searches {rep.cycle_searches} "
            f"checked/s {rep.graphs_checked / dt:,.0f}"
        )
        clean = clean and rep.ok
    print("sweep", "clean" if clean else "VIOLATIONS FOUND")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
