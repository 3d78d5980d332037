"""Odd-case diagnostic executor, the exact inequality chain, and the
even-case pigeonhole engine."""

from __future__ import annotations

import dataclasses
import gc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    ChainReport,
    CycleTooShort,
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
    constant_coloring,
    even_engine,
    fl_decompose,
    lemma4_execute,
    lemma4_inequality_check,
    make_coloring,
    min_degree_peel,
    pk_witness_search,
    structural_certificate,
    verify_mono_cycle_free,
    verify_witness,
)
from cycle_ramsey import cycles
from cycle_ramsey.formats import (
    parse_coloring,
    serialize_coloring,
    serialize_lemma4_trace,
)

from strategies import colorings

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
    assert trace.eq2_ok and trace.eq3_ok
    assert not trace.chain_ok  # N far above the cap for k = 2
    assert not trace.pigeonhole_ok
    assert trace.verdict is TraceVerdict.PIGEONHOLE_FAILS
    assert trace.lower_interval == 20 and trace.upper_interval == 15


def test_executor_trace_golden_file():
    col = bondy_erdos_coloring(2, 5)
    trace = lemma4_execute(col, 5, PkParameters.for_lemma(2, 5, 1))
    expected = (DATA / "lemma4_be25_trace.txt").read_text()
    assert serialize_lemma4_trace(trace) == expected


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
    assert not out.pigeonhole_ok
    assert out.threshold == 22 and not out.threshold_met
    assert any("host order 8" in f for f in out.precondition_failures)


def test_even_engine_majority_tie_prefers_color_one():
    base = complete_graph(13)
    colors = tuple(1 if i < 39 else 2 for i in range(78))
    col = make_coloring(base, 2, dict(zip(base.sorted_edges, colors)))
    out = even_engine(col, 6, Fraction(1, 12))
    # 39 >= eg_threshold(7, 13) = 37, and the tie goes to color 1
    assert isinstance(out, StructureWitness)
    assert out.color == 1


@given(colorings(min_vertices=3, max_vertices=9, complete=True))
@settings(max_examples=60, deadline=None)
def test_even_engine_random_runs_are_coherent(col):
    out = even_engine(col, 4, Fraction(1, 3))
    if isinstance(out, StructureWitness):
        assert out.matching.size == 2
        assert verify_witness(col, 4, out)
    else:
        assert out.majority_count == max(out.color_edge_counts)
        assert sum(out.color_edge_counts) == col.base.edge_count
        assert not out.threshold_met


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


@pytest.mark.parametrize("k,n", [(3, 5), (2, 6)])
def test_coloring_pipeline_scans_each_graph_once(monkeypatch, k, n):
    # every layer reads the same colour classes: each Graph is scanned
    # once, and each component's blossom runs at most once
    scanned, lifted = [], []
    real_scan, real_induced, real_matching = (
        cycles._scan, cycles.induced_subgraph, cycles.max_matching
    )
    blossoms = 0

    def scan(G):
        scanned.append(G)
        return real_scan(G)

    def induced(G, W):  # in `cycles`, only a component's matching lifts
        lifted.append((G, W))
        return real_induced(G, W)

    def matching(G):
        nonlocal blossoms
        blossoms += 1
        return real_matching(G)

    monkeypatch.setattr(cycles, "_scan", scan)
    monkeypatch.setattr(cycles, "induced_subgraph", induced)
    monkeypatch.setattr(cycles, "max_matching", matching)
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
    assert blossoms == len(lifted) > 0
    assert len({(id(G), W[0]) for G, W in lifted}) == len(lifted)


def test_coloring_pipeline_leaves_no_reference_cycles():
    # Shared classes and slices must not tie objects into cycles that only
    # the cyclic collector can free (a components() cache on Graph would).
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
