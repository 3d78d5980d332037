"""Acceptance gate: the eight headline guarantees of this package.

Each test prints one `acceptance <i> <name>: PASS/FAIL` line directly to
the terminal (bypassing capture) with its wall time, then asserts.  These
are the claims the README advertises; everything else in the test suite
exists to make these eight hold.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from cycle_ramsey import (
    EdgeColoring,
    EvenCaseReport,
    Graph,
    SearchVerdict,
    StructureWitness,
    bondy_erdos_coloring,
    check_decomposition,
    complete_graph,
    erdos_gallai_sweep,
    even_engine,
    fl_decompose,
    lemma4_inequality_check,
    max_matching,
    min_degree_peel,
    ramsey_check,
    structural_certificate,
    verify_matching,
    verify_mono_cycle_free,
    verify_witness,
)

from strategies import all_pairs, brute_matching_number


def _report(capsys, idx: int, name: str, ok: bool, t0: float) -> None:
    line = (
        f"acceptance {idx} {name}: {'PASS' if ok else 'FAIL'} "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_graph(rng: random.Random, v: int, p: float) -> Graph:
    edges = frozenset(e for e in all_pairs(v) if rng.random() < p)
    return Graph(v, edges)


def test_criterion_1_erdos_gallai_oracle(capsys):
    """Every labeled graph on at most 7 vertices meeting the edge
    threshold for some length in 3..7 contains a cycle that long."""
    t0 = time.perf_counter()
    ok = True
    for v in range(1, 8):
        rep = erdos_gallai_sweep(v, lengths=range(3, 8))
        ok = ok and rep.ok and rep.graphs_enumerated == 1 << (v * (v - 1) // 2)
    ok = ok and rep.graphs_checked == 2_014_992  # v = 7
    ok = ok and (time.perf_counter() - t0) < 300
    _report(capsys, 1, "erdos-gallai oracle suite", ok, t0)


@pytest.mark.slow
def test_criterion_2_small_ramsey_numbers(capsys):
    """Exhaustive search pins R_2(C_3) = R_2(C_4) = 6, R_2(C_6) = 8 and
    R_2(C_5) = 9, with every below-threshold counterexample re-verified."""
    t0 = time.perf_counter()
    ok = True
    for n, value, limit in ((3, 6, 60), (4, 6, 60), (6, 8, 600), (5, 9, 3600)):
        t_case = time.perf_counter()
        upper = ramsey_check(2, n, value)
        below = ramsey_check(2, n, value - 1)
        ok = ok and upper.verdict is SearchVerdict.ALL_CONTAIN
        ok = ok and below.verdict is SearchVerdict.COUNTEREXAMPLE
        ok = ok and verify_mono_cycle_free(below.counterexample, n) is True
        ok = ok and below.counterexample.base.vertex_count == value - 1
        ok = ok and (time.perf_counter() - t_case) < limit
    _report(capsys, 2, "small Ramsey certification", ok, t0)


def test_criterion_3_lower_bound_constructions(capsys):
    """The doubling coloring on 2^(k-1)*(n-1) vertices is fully tagged
    and exhaustively monochromatic-C_n-free for the whole small suite."""
    t0 = time.perf_counter()
    ok = True
    for k, n in ((2, 5), (2, 7), (3, 5), (3, 7), (4, 5)):
        col = bondy_erdos_coloring(k, n)
        ok = ok and col.base.vertex_count == (1 << (k - 1)) * (n - 1) <= 32
        cert = structural_certificate(col, n)
        ok = ok and cert.all_tagged
        ok = ok and verify_mono_cycle_free(col, n) is True
    ok = ok and (time.perf_counter() - t0) < 300
    _report(capsys, 3, "lower-bound construction suite", ok, t0)


def test_criterion_4_decomposition_invariants(capsys):
    """1,000 random graphs (v <= 20, mixed density), each decomposed at
    n in {3,5,7}: partition, conditions (A)/(B), non-bipartite sparse
    components, and the conditional edge bound (C) all audit clean."""
    t0 = time.perf_counter()
    rng = random.Random(20240517)
    violations = 0
    for _ in range(1000):
        v = rng.randint(1, 20)
        p = rng.choice((0.05, 0.15, 0.3, 0.5, 0.7, 0.9))
        G = _random_graph(rng, v, p)
        for n in (3, 5, 7):
            dec = fl_decompose(G, n)
            chk = check_decomposition(G, n, dec)
            if not chk.all_ok:
                violations += 1
            if dec.hypothesis_holds and dec.V3:
                if dec.sparse_edge_count > dec.sparse_bound:
                    violations += 1
    _report(capsys, 4, "decomposition invariant suite", violations == 0, t0)


def test_criterion_5_peeling_density(capsys):
    """500 random (G, delta, target) instances: peeling a graph with
    e(G) >= (1-delta)*C(v,2) leaves at least (1-delta)*C(target,2)."""
    t0 = time.perf_counter()
    rng = random.Random(9182736)
    violations = 0
    for _ in range(500):
        v = rng.randint(2, 20)
        p = rng.choice((0.3, 0.5, 0.7, 0.9, 1.0))
        G = _random_graph(rng, v, p)
        full = v * (v - 1) // 2
        # the largest delta the instance satisfies, plus random slack
        base_delta = 1 - Fraction(G.edge_count, full)
        delta = base_delta + Fraction(rng.randint(0, 10), 100)
        target = rng.randint(0, v)
        assert Fraction(G.edge_count) >= (1 - delta) * full
        peeled = min_degree_peel(G, target)
        bound = (1 - delta) * Fraction(target * (target - 1), 2)
        if Fraction(peeled.graph.edge_count) < bound:
            violations += 1
    _report(capsys, 5, "peeling density invariant", violations == 0, t0)


def test_criterion_6_inequality_chain(capsys):
    """The odd-case chain closes, in exact rationals, on the whole
    parameter grid — reproducing (1+e)kn <= |X| <= kn + e*kn/2 as the
    final contradiction."""
    t0 = time.perf_counter()
    ok = True
    for k in range(4, 9):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for n in (5, 7, 101):
                rep = lemma4_inequality_check(k, eps, n)
                ok = ok and rep.holds
                ok = ok and rep.lower_interval == (1 + eps) * k * n
                ok = ok and rep.upper_interval == k * n + eps * k * n / 2
                ok = ok and rep.lower_interval > rep.upper_interval
    _report(capsys, 6, "lemma inequality chain", ok, t0)


def test_criterion_7_matching_oracle(capsys):
    """Blossom matching equals the brute-force optimum on every graph
    with at most 6 vertices and on 1,000 random graphs with v <= 8."""
    t0 = time.perf_counter()
    violations = 0
    for v in range(7):
        pairs = all_pairs(v)
        for mask in range(1 << len(pairs)):
            G = Graph(
                v, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            )
            cert = max_matching(G)
            if not verify_matching(G, cert):
                violations += 1
            elif cert.size != brute_matching_number(G):
                violations += 1
    rng = random.Random(424242)
    for _ in range(1000):
        v = rng.randint(1, 8)
        G = _random_graph(rng, v, rng.random())
        cert = max_matching(G)
        if not verify_matching(G, cert):
            violations += 1
        elif cert.size != brute_matching_number(G):
            violations += 1
    _report(capsys, 7, "matching oracle equivalence", violations == 0, t0)


def test_criterion_8_even_case_engine(capsys):
    """100 random 2-colorings of K_13 at n = 6: whenever the majority
    color meets the edge threshold, the engine hands back a verified
    matching of exactly 3 disjoint edges inside one monochromatic
    component."""
    t0 = time.perf_counter()
    rng = random.Random(13131313)
    base = complete_graph(13)
    ok = True
    witnesses = 0
    for _ in range(100):
        colors = tuple(rng.randint(1, 2) for _ in range(base.edge_count))
        col = EdgeColoring(base, 2, colors)
        out = even_engine(col, 6, Fraction(1, 12))
        if isinstance(out, StructureWitness):
            witnesses += 1
            ok = ok and out.matching is not None and out.matching.size == 3
            ok = ok and verify_witness(col, 6, out)
        else:
            # on K_13 the majority color always has >= 39 >= threshold
            # edges, so a report here would itself be a failure
            ok = ok and not isinstance(out, EvenCaseReport)
    ok = ok and witnesses == 100
    _report(capsys, 8, "even-case engine", ok, t0)
