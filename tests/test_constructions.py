"""The doubling coloring and monochromatic-cycle-freeness certification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    ComponentTag,
    CycleTooShort,
    EvenCycleLength,
    InvalidParams,
    StructureWitness,
    TargetTooLarge,
    WitnessKind,
    bondy_erdos_coloring,
    build_graph,
    color_class,
    components,
    constant_coloring,
    complete_graph,
    make_coloring,
    structural_certificate,
    verify_cycle,
    verify_mono_cycle_free,
)

from strategies import brute_cycle_lengths, colorings


def test_bondy_erdos_rejects_bad_params():
    with pytest.raises(InvalidParams):
        bondy_erdos_coloring(1, 5)
    with pytest.raises(InvalidParams):
        bondy_erdos_coloring(2, 3)


def test_bondy_erdos_caps_the_order_at_512():
    assert bondy_erdos_coloring(8, 5).base.vertex_count == 512
    for k, n in [(2, 258), (9, 4), (10**9, 5)]:
        with pytest.raises(TargetTooLarge):
            bondy_erdos_coloring(k, n)


def test_bondy_erdos_two_five_shape():
    col = bondy_erdos_coloring(2, 5)
    assert col.base.vertex_count == 8
    assert col.base.edge_count == 28
    c1 = color_class(col, 1)
    rep = components(c1)
    assert [c.vertices for c in rep.components] == [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert all(len(c.vertices) == 4 for c in rep.components)
    assert c1.edge_count == 12  # two K_4s
    c2 = color_class(col, 2)
    assert c2.edge_count == 16  # one K_{4,4}
    comp2 = components(c2).components
    assert len(comp2) == 1 and comp2[0].is_bipartite
    assert comp2[0].parts == ((0, 1, 2, 3), (4, 5, 6, 7))


@pytest.mark.parametrize("k,n", [(2, 5), (2, 7), (3, 5), (3, 6), (4, 5)])
def test_bondy_erdos_color_class_structure(k, n):
    """Color 1 is 2^(k-1) disjoint (n-1)-cliques; color i >= 2 is 2^(k-i)
    disjoint balanced complete bipartite graphs on 2^(i-1)*(n-1) vertices."""
    col = bondy_erdos_coloring(k, n)
    m = n - 1
    assert col.base.vertex_count == (1 << (k - 1)) * m

    rep1 = components(color_class(col, 1))
    assert len(rep1.components) == 1 << (k - 1)
    for comp in rep1.components:
        assert len(comp.vertices) == m
        # a clique on m vertices
        sub_edges = sum(
            1
            for i, u in enumerate(comp.vertices)
            for v in comp.vertices[i + 1 :]
            if color_class(col, 1).has_edge(u, v)
        )
        assert sub_edges == m * (m - 1) // 2

    for i in range(2, k + 1):
        gi = color_class(col, i)
        repi = components(gi)
        assert len(repi.components) == 1 << (k - i)
        half = (1 << (i - 2)) * m
        for comp in repi.components:
            assert len(comp.vertices) == 2 * half
            assert comp.is_bipartite
            a, b = comp.parts
            assert {len(a), len(b)} == {half}
        assert gi.edge_count == (1 << (k - i)) * half * half


def test_structural_certificate_tags_two_five():
    col = bondy_erdos_coloring(2, 5)
    cert = structural_certificate(col, 5)
    assert cert.all_tagged and not cert.untagged()
    tags = {(t.color, t.tag) for t in cert.tagged}
    # color-1 cliques have order 4 = n-1: SMALL; color 2 is bipartite
    assert tags == {(1, ComponentTag.SMALL), (2, ComponentTag.BIPARTITE)}


def test_structural_certificate_small_takes_priority():
    # a single colored edge is both small and bipartite; SMALL wins
    G = build_graph(2, [(0, 1)])
    cert = structural_certificate(constant_coloring(G), 5)
    assert [t.tag for t in cert.tagged] == [ComponentTag.SMALL]
    assert cert.tagged[0].parts is None


def test_structural_certificate_rejects_even_and_short():
    col = bondy_erdos_coloring(2, 5)
    with pytest.raises(EvenCycleLength):
        structural_certificate(col, 6)
    with pytest.raises(CycleTooShort):
        structural_certificate(col, 2)


def test_untagged_component_reported():
    # one triangle colored 1: order 3 > n-1 = 2 and non-bipartite
    cert = structural_certificate(constant_coloring(complete_graph(3)), 3)
    assert not cert.all_tagged
    assert [t.tag for t in cert.untagged()] == [ComponentTag.UNTAGGED]


@pytest.mark.parametrize("k,n", [(2, 5), (2, 7), (3, 5)])
def test_bondy_erdos_is_mono_cycle_free(k, n):
    assert verify_mono_cycle_free(bondy_erdos_coloring(k, n), n) is True


def test_recolored_edge_creates_witness():
    """Moving one clique edge of the (2,5) coloring into color 2 closes a
    monochromatic C_5 through the bipartite class."""
    col = bondy_erdos_coloring(2, 5)
    assignment = dict(col.assignment)
    assignment[(0, 1)] = 2
    moved = make_coloring(col.base, 2, assignment)
    w = verify_mono_cycle_free(moved, 5)
    assert isinstance(w, StructureWitness)
    assert w.kind is WitnessKind.MONO_CYCLE
    assert w.color == 2
    assert w.cycle is not None and w.cycle.length == 5
    assert verify_cycle(color_class(moved, 2), w.cycle)
    assert set(w.cycle.vertices) <= set(w.component)


def test_witness_scan_order_prefers_lowest_color():
    # disjoint triangles in colors 1 and 2; the color-1 one is reported
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    col = make_coloring(
        build_graph(6, edges),
        2,
        {e: (1 if max(e) <= 2 else 2) for e in edges},
    )
    w = verify_mono_cycle_free(col, 3)
    assert isinstance(w, StructureWitness) and w.color == 1


def test_even_cycle_search_path():
    # all of K_6 in one color: a C_4 exists
    w = verify_mono_cycle_free(constant_coloring(complete_graph(6)), 4)
    assert isinstance(w, StructureWitness)
    assert w.kind is WitnessKind.MONO_CYCLE and w.cycle.length == 4
    # a star has no cycles at all
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert verify_mono_cycle_free(constant_coloring(star), 4) is True


@given(colorings(max_vertices=7), st.integers(3, 7))
@settings(max_examples=120, deadline=None)
def test_freeness_matches_oracle(col, n):
    truth_free = all(
        n not in brute_cycle_lengths(color_class(col, i))
        for i in range(1, col.color_count + 1)
    )
    result = verify_mono_cycle_free(col, n)
    if truth_free:
        assert result is True
    else:
        assert isinstance(result, StructureWitness)
        assert result.kind is WitnessKind.MONO_CYCLE
        assert result.cycle.length == n
        assert verify_cycle(color_class(col, result.color), result.cycle)
