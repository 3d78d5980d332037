"""Odd-case diagnostic executor, the exact inequality chain, and the
even-case pigeonhole engine."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    ChainReport,
    CycleTooShort,
    EdgeColoring,
    EvenCaseReport,
    EvenCycleLength,
    InvalidParams,
    Lemma4Trace,
    OddCycleLength,
    ParamOutOfRange,
    Parity,
    PkParameters,
    StructureWitness,
    TargetTooLarge,
    TraceVerdict,
    WitnessKind,
    bondy_erdos_coloring,
    build_graph,
    check_decomposition,
    color_class,
    complete_graph,
    components,
    even_engine,
    fl_decompose,
    lemma4_execute,
    lemma4_inequality_check,
    make_coloring,
    max_matching,
    min_degree_peel,
    pk_witness_search,
    structural_certificate,
    verify_mono_cycle_free,
    verify_witness,
)
from cycle_ramsey import cycles, decompose, engine, graphs, matching
from cycle_ramsey.formats import (
    parse_coloring,
    serialize_coloring,
    serialize_even_report,
    serialize_lemma4_trace,
    to_jsonable,
)

from strategies import colorings, constant_coloring, induced_coloring

DATA = Path(__file__).parent / "data"


def mono(G):
    return constant_coloring(G)


# --------------------------------------------------------------------------
# parameters


def test_for_lemma_instantiation():
    p = PkParameters.for_lemma(2, 5, 1)
    assert (p.c, p.delta, p.N) == (8, Fraction(1, 256), 80)
    q = PkParameters.for_lemma(4, 5, Fraction(1, 2))
    assert (q.c, q.delta, q.N) == (64, Fraction(1, 8192), 480)


def test_parameters_validation():
    with pytest.raises(InvalidParams):
        PkParameters.for_lemma(2, 5, 0.5)  # float refused
    with pytest.raises(ParamOutOfRange):
        PkParameters.for_lemma(2, 5, 0)
    with pytest.raises(ParamOutOfRange):
        PkParameters.for_lemma(0, 5, 1)
    with pytest.raises(TargetTooLarge):
        PkParameters.for_lemma(17, 5, 1)
    with pytest.raises(CycleTooShort):
        PkParameters.for_lemma(2, 2, 1)
    with pytest.raises(ParamOutOfRange):
        # N below ceil((1+eps)*c*n)
        PkParameters(2, 5, Fraction(8), Fraction(1), Fraction(1, 256), 79)


def test_parameters_refuse_values_that_are_not_int_or_fraction():
    # a str, a Decimal or a float reached `__post_init__`'s comparisons
    # and Fraction arithmetic, where the first two raised TypeError
    for eps in ("1/2", Decimal("0.5"), 0.5):
        with pytest.raises(InvalidParams, match="eps must be an int or a Fraction"):
            PkParameters(2, 5, Fraction(8), eps, Fraction(1, 64), 100)
    with pytest.raises(InvalidParams, match="c must be"):
        PkParameters(2, 5, Decimal(8), Fraction(1, 2), Fraction(1, 64), 100)
    with pytest.raises(InvalidParams, match="delta must be"):
        PkParameters(2, 5, Fraction(8), Fraction(1, 2), "1/64", 100)
    assert PkParameters(2, 5, 8, 1, Fraction(1, 64), 100).c == 8


def test_parameters_accept_string_rationals():
    p = PkParameters.for_lemma(3, 7, "2/3")
    assert p.eps == Fraction(2, 3)
    assert PkParameters.for_lemma(2, 5, "+2/6").eps == Fraction(1, 3)


# --------------------------------------------------------------------------
# witness search


def test_witness_search_on_mono_complete_graph():
    col = mono(complete_graph(9))
    w = pk_witness_search(col, 7)
    assert isinstance(w, StructureWitness)
    assert w.kind is WitnessKind.NONBIP_COMPONENT_MATCHING
    assert w.color == 1
    assert w.matching.size == 4
    assert w.odd_cycle is not None and w.odd_cycle.length % 2 == 1
    assert verify_witness(col, 7, w)


def test_witness_search_skips_bipartite_in_odd_mode():
    # K_{3,4}: matching 3 meets the n=6 threshold but only in EVEN mode
    edges = [(a, 3 + b) for a in range(3) for b in range(4)]
    col = mono(build_graph(7, edges))
    assert pk_witness_search(col, 6, Parity.ODD) is None
    w = pk_witness_search(col, 6, Parity.EVEN)
    assert w is not None and w.kind is WitnessKind.COMPONENT_MATCHING
    assert w.matching.size >= 3
    assert verify_witness(col, 6, w)


def test_witness_search_none_on_extremal_coloring():
    assert pk_witness_search(bondy_erdos_coloring(2, 5), 5) is None


def test_even_mode_sees_the_bipartite_class():
    col = bondy_erdos_coloring(2, 5)
    w = pk_witness_search(col, 5, Parity.EVEN)
    assert w is not None and w.color == 2
    assert w.kind is WitnessKind.COMPONENT_MATCHING
    assert w.matching.size >= 3
    assert verify_witness(col, 5, w)


# --------------------------------------------------------------------------
# odd-case executor


def test_executor_returns_witness_when_structure_exists():
    col = mono(complete_graph(9))
    out = lemma4_execute(col, 7, PkParameters.for_lemma(1, 7, 1))
    assert isinstance(out, StructureWitness)
    assert verify_witness(col, 7, out)


def test_executor_diagnostic_on_extremal_two_five():
    col = bondy_erdos_coloring(2, 5)
    params = PkParameters.for_lemma(2, 5, 1)
    trace = lemma4_execute(col, 5, params)
    assert isinstance(trace, Lemma4Trace)
    assert trace.precondition_failures == ("host order 8 < N = 80",)
    assert trace.peel.removals == ()  # host already below N: nothing to peel
    assert [c.signature for c in trace.cells] == [
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    assert trace.chosen.signature == (2, 1)
    assert trace.chosen.vertices == (0, 1, 2, 3)
    assert trace.color_edge_counts == (6, 0)
    assert _trace_line(trace, "eq2")[-1] == "ok" and trace.eq3_ok
    assert not trace.chain_ok  # N far above the cap for k = 2
    assert not trace.pigeonhole_ok
    assert trace.verdict is TraceVerdict.PIGEONHOLE_FAILS
    assert trace.lower_interval == 20 and trace.upper_interval == 15


def _trace_line(trace, head):
    """The words after `head` on the trace text's only line that starts
    with it."""
    (line,) = [
        l for l in serialize_lemma4_trace(trace).splitlines()
        if l.startswith(head + " ")
    ]
    return line[len(head) + 1:].split()


def _k66_trace(delta):
    # one-colour K_{6,6}: bipartite, so no witness; the chosen cell is a
    # side of 6 vertices with no edge inside, at least (1+eps)kn = 303/100
    K66 = build_graph(12, [(a, 6 + b) for a in range(6) for b in range(6)])
    params = PkParameters(1, 3, Fraction(1, 100), Fraction(1, 100), delta, 12)
    return lemma4_execute(constant_coloring(K66), 3, params)


def test_executor_eq3_fails_on_a_sparse_cell():
    # with delta = 10^-6 the bound x(x-1)/2 - delta*N(N-1)/2 is near 15
    trace = _k66_trace(Fraction(1, 10**6))
    assert trace.chosen.size == 6 and trace.color_edge_counts == (0,)
    assert trace.pigeonhole_ok and not trace.eq3_ok
    assert trace.verdict is TraceVerdict.EQ3_FAILS
    assert _trace_line(trace, "pigeonhole")[-1] == "ok"
    assert _trace_line(trace, "eq2")[-1] == "ok"
    assert _trace_line(trace, "eq3")[-1] == "fail"
    assert _trace_line(trace, "chain") == ["ok"]
    assert _trace_line(trace, "verdict") == ["eq3_fails"]


def test_executor_chain_fails_past_the_cap():
    # delta = 1 meets eq3 (bound 15 - 66) but puts chain-cap at 96,
    # far above eps*kn/2 = 3/200
    trace = _k66_trace(Fraction(1))
    assert trace.precondition_failures == ()
    assert trace.pigeonhole_ok and trace.eq3_ok
    assert _trace_line(trace, "eq2")[-1] == "ok"
    assert not trace.chain_ok and trace.chain_cap == 96
    assert trace.verdict is TraceVerdict.CHAIN_FAILS
    assert _trace_line(trace, "eq3")[-1] == "ok"
    assert _trace_line(trace, "chain") == ["fail"]
    assert _trace_line(trace, "verdict") == ["chain_fails"]


def test_executor_eq2_holds_under_a_palette_above_params_k():
    # With x >= 1, no witness bounds each colour's cell edges by n(x-1)/2
    # (a V3 component has matching number below n/2), so eq2, summed over
    # the colouring's own colours, cannot fail.  Here params.k = 1 on two
    # colours: colour 1 is a K_5 on 0..4 and a triangle 5, 8, 9, colour 2
    # a star from 5 to 0..4 and a triangle 5, 6, 7; both classes are
    # non-bipartite with matching number 2, and the cell 0..5 holds
    # 10 + 5 edges, above params.k's 25/2 but within 2·5·5/2 = 25.
    one = [(a, b) for a in range(5) for b in range(a + 1, 5)] + [(5, 8), (5, 9), (8, 9)]
    two = [(u, 5) for u in range(5)] + [(5, 6), (5, 7), (6, 7)]
    color = {**{e: 1 for e in one}, **{e: 2 for e in two}}
    col = make_coloring(build_graph(10, one + two), 2, color)
    params = PkParameters(1, 5, Fraction(1, 100), Fraction(1, 100), Fraction(1), 10)
    trace = lemma4_execute(col, 5, params)
    assert trace.precondition_failures == ("coloring has 2 colors but params.k = 1",)
    assert trace.chosen.vertices == (0, 1, 2, 3, 4, 5)
    assert trace.color_edge_counts == (10, 5) and trace.eq2_bound == 25
    assert _trace_line(trace, "eq2") == ["lhs", "15", "bound", "25", "ok"]
    assert "eq2_ok" not in to_jsonable(trace)
    assert not hasattr(TraceVerdict, "EQ2_FAILS")


def test_executor_eq2_over_its_bound_is_a_broken_invariant(monkeypatch):
    # eq2 rests on there being no witness; with the witness search patched
    # away, one-colour K_9 puts all 36 edges in a 9-vertex cell, over
    # 7·8/2 = 28 for n = 7
    monkeypatch.setattr(engine, "pk_witness_search", lambda *_: None)
    params = PkParameters(1, 7, Fraction(1, 100), Fraction(1, 100), Fraction(1), 9)
    with pytest.raises(AssertionError, match="36 cell edges over eq2's bound 28"):
        lemma4_execute(mono(complete_graph(9)), 7, params)


def test_executor_trace_golden_file():
    col = bondy_erdos_coloring(2, 5)
    trace = lemma4_execute(col, 5, PkParameters.for_lemma(2, 5, 1))
    expected = (DATA / "lemma4_be25_trace.txt").read_text()
    assert serialize_lemma4_trace(trace) == expected


def test_executor_slices_the_peeled_host_once(monkeypatch):
    # a real cut: K_8 peels to its last four vertices, and the peeled
    # colouring is lifted onto the peel's own slice, not sliced again
    col = bondy_erdos_coloring(2, 5)
    params = PkParameters(2, 5, Fraction(1, 10), Fraction(1), Fraction(1, 64), 4)
    slices = []
    real = graphs.induced_subgraph

    def spy(G, W):
        sub, kept = real(G, W)
        slices.append(kept)
        return sub, kept

    monkeypatch.setattr(graphs, "induced_subgraph", spy)
    monkeypatch.setattr(decompose, "induced_subgraph", spy)
    trace = lemma4_execute(col, 5, params)
    assert trace.peel.kept == (4, 5, 6, 7)
    assert slices.count((4, 5, 6, 7)) == 1
    monkeypatch.setattr(
        "cycle_ramsey.engine._coloring_on_slice",
        lambda c, sub, kept: induced_coloring(c, kept)[0],
    )
    assert lemma4_execute(col, 5, params) == trace
    assert slices.count((4, 5, 6, 7)) == 3


def test_executor_records_a_cycle_length_that_params_do_not_share():
    # params for n = 5 put N at 80; n = 7 would need 112
    col = bondy_erdos_coloring(2, 5)
    trace = lemma4_execute(col, 7, PkParameters.for_lemma(2, 5, 1))
    assert isinstance(trace, Lemma4Trace)
    assert trace.precondition_failures == (
        "cycle length 7 but params.n = 5",
        "host order 8 < N = 80",
    )


# copies of other fields, no longer stored in a trace
_TRACE_REMOVED = {"color_count", "cell_edge_count", "n_cap_ok"}


def _cells_by_frozensets(col, trace):
    """The cells, chosen cell and per-colour cell edges by set algebra
    over the decomposition sides and a loop over every peeled edge."""
    peeled, _ = induced_coloring(col, trace.peel.kept)
    sides = [
        (frozenset(d.V1), frozenset(d.V2) | frozenset(d.V3))
        for d in trace.decompositions
    ]
    cells = []
    for sig in itertools.product((1, 2), repeat=len(sides)):
        cur = frozenset(range(peeled.base.vertex_count))
        for side, j in zip(sides, sig):
            cur &= side[j - 1]
        cells.append((sig, tuple(sorted(cur))))
    best = max(len(verts) for _, verts in cells)
    chosen = next(cell for cell in cells if len(cell[1]) == best)
    inside = set(chosen[1])
    per_color = [0] * col.color_count
    for (a, b), c in zip(peeled.base.sorted_edges, peeled.colors):
        if a in inside and b in inside:
            per_color[c - 1] += 1
    return cells, chosen, tuple(per_color)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_executor_cells_match_the_set_algebra(k):
    # n = 13 wants a matching of 7 edges, more than K_12 holds, so every
    # run traces; N = v - 3 makes the peel cut three vertices
    rng = random.Random(k)
    for v in range(6, 13):
        for _ in range(3):
            base = complete_graph(v)
            col = EdgeColoring(
                base, k, tuple(rng.randint(1, k) for _ in range(base.edge_count))
            )
            params = PkParameters(
                k, 13, Fraction(1, 10), Fraction(1), Fraction(1, 64), v - 3
            )
            trace = lemma4_execute(col, 13, params)
            assert len(trace.peel.kept) == v - 3
            cells, chosen, per_color = _cells_by_frozensets(col, trace)
            assert [(c.signature, c.vertices) for c in trace.cells] == cells
            assert (trace.chosen.signature, trace.chosen.vertices) == chosen
            assert trace.color_edge_counts == per_color
            assert _trace_line(trace, "cell-edges total") == [str(sum(per_color))]
            assert _trace_line(trace, "n-cap") == [
                str(trace.n_cap), "ok" if params.N <= trace.n_cap else "fail"
            ]
            assert _TRACE_REMOVED.isdisjoint(to_jsonable(trace))


def test_executor_refuses_a_palette_over_the_cap():
    # 2^k cells: at k = 17 the executor would build 131,072 of them for
    # a single edge, so the palette is capped before any is built
    col = EdgeColoring(complete_graph(2), 17, (1,))
    with pytest.raises(TargetTooLarge, match=r"^color count 17 > 16$"):
        lemma4_execute(col, 5, PkParameters.for_lemma(1, 5, 1))


@given(colorings(max_vertices=8), st.sampled_from([3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_executor_never_establishes_the_contradiction(col, n):
    """All four inequality groups holding at once would contradict
    arithmetic itself; any run must end in a witness or a failed step."""
    params = PkParameters.for_lemma(col.color_count, n, 1)
    out = lemma4_execute(col, n, params)
    if isinstance(out, StructureWitness):
        assert verify_witness(col, n, out)
    else:
        assert out.verdict is not TraceVerdict.CONTRADICTION_ESTABLISHED


# --------------------------------------------------------------------------
# inequality chain


def test_chain_known_instance():
    rep = lemma4_inequality_check(4, Fraction(1, 2), 5)
    assert rep.delta == Fraction(1, 8192)
    assert rep.N == 480
    assert rep.n_cap == 640 and rep.n_cap_ok
    assert rep.x_boundary == 21
    assert rep.link_a_at_boundary == Fraction(1437, 1024)
    assert rep.link_b_at_boundary == Fraction(75, 28)
    assert rep.link_b_sup == Fraction(45, 16)
    assert rep.link_c_value == 5 == rep.eps_half_term
    assert rep.link_c_exact
    assert rep.lower_interval == 30 and rep.upper_interval == 25
    assert rep.contradiction and rep.holds
    assert {
        "link_a_ok", "link_b_ok", "n_cap_ok", "link_c_exact", "contradiction"
    }.isdisjoint(to_jsonable(rep))


def test_chain_parameter_validation():
    with pytest.raises(ParamOutOfRange):
        lemma4_inequality_check(3, Fraction(1, 2), 5)
    with pytest.raises(TargetTooLarge):
        lemma4_inequality_check(17, Fraction(1, 2), 5)
    with pytest.raises(ParamOutOfRange):
        lemma4_inequality_check(4, Fraction(1), 5)
    with pytest.raises(ParamOutOfRange):
        lemma4_inequality_check(4, Fraction(0), 5)
    with pytest.raises(EvenCycleLength):
        lemma4_inequality_check(4, Fraction(1, 2), 6)
    with pytest.raises(CycleTooShort):
        lemma4_inequality_check(4, Fraction(1, 2), 2)
    with pytest.raises(InvalidParams):
        lemma4_inequality_check(4, 0.5, 5)


@given(
    st.integers(4, 9),
    st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64)),
    st.sampled_from([3, 5, 7, 9, 101]),
)
@settings(max_examples=80)
def test_chain_holds_for_all_valid_parameters(k, eps, n):
    rep = lemma4_inequality_check(k, eps, n)
    assert rep.holds
    # link c is an exact identity, never an approximation
    assert rep.link_c_value == rep.eps_half_term
    # the boundary spot-values respect the chain ordering
    assert rep.link_a_at_boundary <= rep.link_b_at_boundary <= rep.link_b_sup
    # the contradiction margin is exactly eps*kn/2
    assert rep.lower_interval - rep.upper_interval == rep.eps * k * n / 2


def test_chain_links_are_theorems_on_the_whole_grid():
    """n_cap_ok (eps <= 1), link_c_exact (delta = eps/2^(2k+4)) and
    contradiction (eps > 0) hold on every valid input, as the ChainReport
    docstring proves; each is still read off the report's exact terms."""
    grid = [Fraction(p, q) for p, q in
            [(1, 1000), (1, 64), (1, 3), (1, 2), (2, 3), (63, 64), (999, 1000)]]
    calls = 0
    for k in range(4, 17):
        for eps in grid:
            for n in range(3, 402, 2):
                rep = lemma4_inequality_check(k, eps, n)
                assert rep.n_cap_ok and rep.link_c_exact and rep.contradiction
                assert rep.holds
                calls += 1
    assert calls == 18_200


# --------------------------------------------------------------------------
# even-case engine


def test_even_engine_parameter_validation():
    col = mono(complete_graph(4))
    with pytest.raises(OddCycleLength):
        even_engine(col, 5, 1)
    with pytest.raises(CycleTooShort):
        even_engine(col, 2, 1)
    with pytest.raises(ParamOutOfRange):
        even_engine(col, 4, 0)
    with pytest.raises(InvalidParams):
        even_engine(col, 4, 0.25)


def test_even_engine_extracts_cycle_matching():
    col = mono(complete_graph(13))
    out = even_engine(col, 6, Fraction(1, 12))
    assert isinstance(out, StructureWitness)
    assert out.kind is WitnessKind.COMPONENT_MATCHING
    assert out.matching.size == 3  # exactly n/2 edges
    assert out.cycle is not None and out.cycle.length >= 7
    assert verify_witness(col, 6, out)
    # the matching is alternating edges of the extracted cycle
    cyc = out.cycle.vertices
    expected = {
        tuple(sorted((cyc[2 * t], cyc[2 * t + 1]))) for t in range(3)
    }
    assert set(out.matching.edges) == expected


# constant or copied facts, no longer stored in an even report
_EVEN_REMOVED = {"threshold_met", "color_count", "majority_count", "pigeonhole_ok"}


def test_even_engine_balanced_k8_report():
    """A 14/14 split of K_8 at n = 6: the majority color misses the
    edge threshold for a C_7, so the engine reports instead of extracting."""
    base = complete_graph(8)
    colors = tuple(1 if i < 14 else 2 for i in range(28))
    col = make_coloring(
        base, 2, dict(zip(base.sorted_edges, colors))
    )
    out = even_engine(col, 6, Fraction(1, 12))
    assert isinstance(out, EvenCaseReport)
    assert out.color_edge_counts == (14, 14)
    assert out.majority_color == 1  # tie breaks to the smallest id
    assert out.pigeonhole_lhs == Fraction(245, 18)
    assert out.pigeonhole_rhs == 22
    assert not out.pigeonhole_lhs > out.pigeonhole_rhs
    assert out.threshold == 22 and max(out.color_edge_counts) < out.threshold
    assert any("host order 8" in f for f in out.precondition_failures)
    assert _EVEN_REMOVED.isdisjoint(to_jsonable(out))


def test_even_engine_reports_on_an_empty_host():
    # K_0 takes K_1's threshold, which its 0 edges miss, so the engine
    # measures it like any other short host instead of refusing it
    out = even_engine(constant_coloring(complete_graph(0)), 4, 1)
    assert isinstance(out, EvenCaseReport)
    assert out.host_order == out.edge_count == 0
    assert out.precondition_failures == ("host order 0 <= (1+eps)*n*k = 8",)
    assert out.color_edge_counts == (0,) and out.majority_color == 1
    assert out.threshold == 1 and max(out.color_edge_counts) < out.threshold
    assert _EVEN_REMOVED.isdisjoint(to_jsonable(out))
    assert even_engine(constant_coloring(complete_graph(1)), 4, 1).threshold == 1


def test_even_engine_majority_tie_prefers_color_one():
    base = complete_graph(13)
    colors = tuple(1 if i < 39 else 2 for i in range(78))
    col = make_coloring(base, 2, dict(zip(base.sorted_edges, colors)))
    out = even_engine(col, 6, Fraction(1, 12))
    # 39 >= eg_threshold(7, 13) = 37, and the tie goes to color 1
    assert isinstance(out, StructureWitness)
    assert out.color == 1


def test_even_engine_majority_tie_across_a_huge_palette():
    # colours 3 and 99,999 tie with 14 edges each across 99,998 empty
    # classes: one tally of the 28 edges, and the smaller id wins
    colors = tuple(3 if i < 14 else 99_999 for i in range(28))
    col = EdgeColoring(complete_graph(8), 100_000, colors)
    out = even_engine(col, 6, Fraction(1, 12))
    assert isinstance(out, EvenCaseReport)
    counts = out.color_edge_counts
    assert len(counts) == 100_000 and sum(counts) == 28
    assert counts[2] == counts[99_998] == 14
    assert out.majority_color == 3 and counts[out.majority_color - 1] == 14
    assert max(counts) < out.threshold == 22
    assert _EVEN_REMOVED.isdisjoint(to_jsonable(out))


@given(colorings(min_vertices=3, max_vertices=9, complete=True))
@settings(max_examples=60, deadline=None)
def test_even_engine_random_runs_are_coherent(col):
    out = even_engine(col, 4, Fraction(1, 3))
    if isinstance(out, StructureWitness):
        assert out.matching.size == 2
        assert verify_witness(col, 4, out)
    else:
        counts = out.color_edge_counts
        assert counts.index(max(counts)) + 1 == out.majority_color
        assert sum(counts) == col.base.edge_count
        assert max(counts) < out.threshold
        assert _EVEN_REMOVED.isdisjoint(to_jsonable(out))


def test_even_report_text_lines_read_the_kept_fields():
    # seeded hosts of every density: a complete host whose pigeonhole
    # inequality holds has a majority over the threshold, so the "ok"
    # reports come from sparse hosts
    rng = random.Random(6)
    words = set()
    for _ in range(300):
        v = rng.randint(0, 16)
        k = rng.randint(1, 3)
        pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
        base = build_graph(v, [e for e in pairs if rng.random() < rng.random()])
        col = EdgeColoring(
            base, k, tuple(rng.randint(1, k) for _ in range(base.edge_count))
        )
        out = even_engine(col, rng.choice([4, 6]), Fraction(1, 100))
        if isinstance(out, StructureWitness):
            continue
        lines = serialize_even_report(out).splitlines()
        counts = out.color_edge_counts
        assert f"colors {len(counts)}" in lines
        assert (
            f"majority {out.majority_color} "
            f"count {counts[out.majority_color - 1]}"
        ) in lines
        (pigeon,) = [l for l in lines if l.startswith("pigeonhole ")]
        word = "ok" if out.pigeonhole_lhs > out.pigeonhole_rhs else "fail"
        assert pigeon.endswith(" " + word)
        words.add(word)
    assert words == {"ok", "fail"}


# --------------------------------------------------------------------------
# witness verification is adversarial


def test_verify_witness_rejects_tampering():
    col = mono(complete_graph(9))
    w = pk_witness_search(col, 7)
    assert verify_witness(col, 7, w)
    # color out of range
    assert not verify_witness(col, 7, dataclasses.replace(w, color=2))
    # component not the true component of its anchor
    assert not verify_witness(
        col, 7, dataclasses.replace(w, component=(0, 1, 2))
    )
    # matching below the threshold
    small = dataclasses.replace(
        w,
        matching=dataclasses.replace(
            w.matching, edges=frozenset(list(w.matching.edges)[:2])
        ),
    )
    assert not verify_witness(col, 7, small)
    # even "odd cycle"
    from cycle_ramsey import CycleCertificate

    bad_oc = dataclasses.replace(w, odd_cycle=CycleCertificate((0, 1, 2, 3)))
    assert not verify_witness(col, 7, bad_oc)


def test_verify_witness_does_not_trust_the_component_scan(monkeypatch):
    from types import SimpleNamespace

    from cycle_ramsey import CycleCertificate, MatchingCertificate

    # (0, 1, 2, 3) is no component of K_6, whatever a scan says
    col = mono(complete_graph(6))
    claim = StructureWitness(
        WitnessKind.NONBIP_COMPONENT_MATCHING,
        1,
        (0, 1, 2, 3),
        matching=MatchingCertificate(frozenset({(0, 1), (2, 3)})),
        odd_cycle=CycleCertificate((0, 1, 2)),
    )
    lying = SimpleNamespace(
        component_id=(0,) * 6,
        components=(SimpleNamespace(vertices=(0, 1, 2, 3)),),
    )
    monkeypatch.setattr(engine, "components", lambda G: lying)
    assert not verify_witness(col, 3, claim)
    # and the true component passes, whatever the scan says
    assert verify_witness(col, 3, dataclasses.replace(claim, component=tuple(range(6))))
    # the two triangles of colour 1 are closed under neighbours, not connected
    base = complete_graph(6)
    triangles = {e: 1 if (e[0] < 3) == (e[1] < 3) else 2 for e in base.sorted_edges}
    two = make_coloring(base, 2, triangles)
    lying.components = (SimpleNamespace(vertices=tuple(range(6))),)
    union = dataclasses.replace(
        claim,
        component=tuple(range(6)),
        matching=MatchingCertificate(frozenset({(0, 1), (3, 4)})),
    )
    assert not verify_witness(two, 3, union)


def test_verify_witness_rejects_a_component_that_repeats_a_vertex():
    col = mono(complete_graph(6))
    w = pk_witness_search(col, 5)
    assert verify_witness(col, 5, w)
    repeated = dataclasses.replace(w, component=(0, 0, 1, 2, 3, 4, 5))
    assert not verify_witness(col, 5, repeated)


@pytest.mark.parametrize("n", [2, 1, 0])
def test_witness_functions_refuse_cycles_shorter_than_three(n):
    col = mono(complete_graph(6))
    w = pk_witness_search(col, 5)
    with pytest.raises(CycleTooShort, match=f"cycle length {n} < 3"):
        pk_witness_search(col, n)
    with pytest.raises(CycleTooShort, match=f"cycle length {n} < 3"):
        verify_witness(col, n, w)


def test_verify_witness_checks_cycle_length():
    from cycle_ramsey import CycleCertificate

    col = mono(complete_graph(6))
    comp = tuple(range(6))
    w = StructureWitness(
        WitnessKind.MONO_CYCLE, 1, comp, cycle=CycleCertificate((0, 1, 2, 3))
    )
    assert verify_witness(col, 4, w)
    assert not verify_witness(col, 5, w)  # wrong length for the target


def _count_blossoms(monkeypatch, blossoms):
    """Record (host masks, first vertex) for each blossom run, whether by
    `max_matching` or by a component's `matching`."""
    real = matching._mask_matching

    def blossom(masks, verts, inside):
        blossoms.append((masks, verts[0] if verts else None))
        return real(masks, verts, inside)

    monkeypatch.setattr(matching, "_mask_matching", blossom)
    monkeypatch.setattr(cycles, "_mask_matching", blossom)


@pytest.mark.parametrize("k,n", [(3, 5), (2, 6)])
def test_coloring_pipeline_scans_each_graph_once(monkeypatch, k, n):
    # every layer reads the same colour classes: each Graph is scanned
    # once, and each component's blossom runs at most once
    scanned, blossoms = [], []
    real_scan = cycles._scan

    def scan(G):
        scanned.append(G)
        return real_scan(G)

    _count_blossoms(monkeypatch, blossoms)
    monkeypatch.setattr(cycles, "_scan", scan)
    col = parse_coloring(serialize_coloring(bondy_erdos_coloring(k, n)))
    verify_mono_cycle_free(col, n)
    if n % 2:
        structural_certificate(col, n)
    for i in range(1, col.color_count + 1):
        G = color_class(col, i)
        assert check_decomposition(G, n, fl_decompose(G, n)).all_ok
    parity = Parity.ODD if n % 2 else Parity.EVEN
    w = pk_witness_search(col, n, parity)
    assert w is None or verify_witness(col, n, w)
    if n % 2:
        engine = lemma4_execute(col, n, PkParameters.for_lemma(k, n, 1))
    else:
        engine = even_engine(col, n, Fraction(1, 2))
    if isinstance(engine, StructureWitness):
        assert verify_witness(col, n, engine)

    assert all(color_class(col, i) in scanned for i in range(1, k + 1))
    assert len({id(G) for G in scanned}) == len(scanned)
    # the hook holds each host's masks, so their ids stay distinct
    assert len({(id(masks), first) for masks, first in blossoms}) == len(blossoms) > 0


def test_spanning_component_matching_is_computed_apart_from_max_matching(monkeypatch):
    # `comp.matching` and `max_matching(G)` agree but never share a
    # result, so a caller that checks one against the other checks two
    # blossom runs, even for a component that spans G
    blossoms = []
    _count_blossoms(monkeypatch, blossoms)
    G = color_class(constant_coloring(complete_graph(7), 2), 1)
    (comp,) = components(G).components
    assert comp.matching is components(G).components[0].matching
    assert max_matching(G) == comp.matching and comp.matching_size == 3
    assert len(blossoms) == 2


def test_coloring_pipeline_leaves_no_reference_cycles():
    # Shared classes and slices must not tie objects into cycles that only
    # the cyclic collector can free (a cached component report that
    # referred back to its Graph would).
    texts = [
        (serialize_coloring(bondy_erdos_coloring(3, 5)), 5),
        (serialize_coloring(bondy_erdos_coloring(2, 6)), 6),
    ]
    gc.collect()
    gc.disable()
    try:
        for text, n in texts:
            col = parse_coloring(text)
            verify_mono_cycle_free(col, n)
            for i in range(1, col.color_count + 1):
                G = color_class(col, i)
                fl_decompose(G, n)
                for comp in components(G).components:
                    comp.matching
                max_matching(G)
                min_degree_peel(G, G.vertex_count // 2)
            if n % 2:
                lemma4_execute(col, n, PkParameters.for_lemma(col.color_count, n, 1))
                pk_witness_search(col, n, Parity.ODD)
            else:
                even_engine(col, n, Fraction(1, 2))
                pk_witness_search(col, n, Parity.EVEN)
            del col, G, comp
        assert gc.collect() == 0
    finally:
        gc.enable()
