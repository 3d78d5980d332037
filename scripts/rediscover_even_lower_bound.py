#!/usr/bin/env python3
"""Probe how far randomized search carries the three-color C_6 lower bound.

Known constructions give a 3-coloring of K_9 with no monochromatic C_6
(so R_3(C_6) >= 10).  This experiment asks whether a plain local search
— recolor one edge of a currently-monochromatic cycle, repeat — can
rediscover such colorings, and at which host orders it stops working.
The ladder runs N = 9, 10, ..., 13; every found coloring is re-verified
exhaustively before being reported.

Typical outcome: a witness at N = 9 within a hundred steps; N = 10 needs
more than the default budget (seed 0 finds one after 17,485 steps);
nothing at N >= 11 within 100,000 steps per seed.  A miss proves
nothing — that is the nature of the randomized mode — but the gradient
is the point of the experiment.
"""

from __future__ import annotations

import argparse
import time

from cycle_ramsey import (
    LowerBoundResult,
    WitnessMode,
    lower_bound_witness_search,
    verify_mono_cycle_free,
)
from cycle_ramsey.formats import serialize_coloring

K, N_CYCLE = 3, 6


def hunt(N: int, seeds: int, budget: int) -> LowerBoundResult | None:
    """The first seed's witness on K_N, or None if every seed misses."""
    for seed in range(seeds):
        t0 = time.perf_counter()
        res = lower_bound_witness_search(
            K, N_CYCLE, N,
            mode=WitnessMode.RANDOMIZED, seed=seed, budget=budget,
        )
        elapsed = time.perf_counter() - t0
        if res.coloring is not None:
            assert verify_mono_cycle_free(res.coloring, N_CYCLE) is True
            print(
                f"N={N}: witness found (seed {seed}, {res.steps} steps, "
                f"{elapsed:.1f}s) -> R_{K}(C_{N_CYCLE}) >= {N + 1}"
            )
            return res
        print(
            f"N={N}: seed {seed} exhausted {budget} steps ({elapsed:.1f}s)"
        )
    print(f"N={N}: no witness found (inconclusive)")
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--budget", type=int, default=10000)
    ap.add_argument("--min-host", type=int, default=9)
    ap.add_argument("--max-host", type=int, default=13)
    ap.add_argument(
        "--emit-witness", action="store_true",
        help="print the witness of the largest host in file format",
    )
    args = ap.parse_args()

    best = None
    for N in range(args.min_host, args.max_host + 1):
        res = hunt(N, args.seeds, args.budget)
        if res is not None:
            best = res

    if best is None:
        print("no lower-bound witness at any attempted order")
        return 1
    N = best.coloring.base.vertex_count
    print(f"largest certified host: {N} (R_{K}(C_{N_CYCLE}) >= {N + 1})")
    if args.emit_witness:
        assert verify_mono_cycle_free(best.coloring, N_CYCLE) is True
        print(serialize_coloring(best.coloring), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
