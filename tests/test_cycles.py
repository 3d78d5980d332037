"""Components, cycle searches, and the Erdős–Gallai machinery."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    CycleCertificate,
    CycleTooShort,
    ParamOutOfRange,
    TargetTooLarge,
    build_graph,
    complete_graph,
    components,
    contains_cycle_of_length,
    cycle_graph,
    eg_threshold,
    erdos_gallai_sweep,
    induced_subgraph,
    longest_cycle,
    verify_cycle,
)

from strategies import (
    brute_cycle_lengths,
    brute_is_bipartite,
    brute_matching_number,
    graphs,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


# --------------------------------------------------------------------------
# threshold


def test_eg_threshold_values():
    assert eg_threshold(5, 10) == 19
    assert eg_threshold(3, 7) == 7
    assert eg_threshold(6, 8) == 18
    # v vertices, target 3: any v edges force a cycle
    for v in range(1, 12):
        assert eg_threshold(3, v) == v


def test_eg_threshold_rejects_bad_params():
    with pytest.raises(CycleTooShort):
        eg_threshold(2, 5)
    with pytest.raises(ParamOutOfRange):
        eg_threshold(4, 0)


# --------------------------------------------------------------------------
# certificates


def test_cycle_certificate_minimum_length():
    with pytest.raises(CycleTooShort):
        CycleCertificate((0, 1))
    assert CycleCertificate((0, 1, 2)).length == 3


def test_verify_cycle_rejections():
    C5 = cycle_graph(5)
    assert verify_cycle(C5, CycleCertificate((0, 1, 2, 3, 4)))
    assert not verify_cycle(C5, CycleCertificate((0, 1, 3)))  # chord missing
    assert not verify_cycle(C5, CycleCertificate((0, 1, 2, 1)))  # repeat
    assert not verify_cycle(C5, CycleCertificate((0, 1, 5)))  # out of range


# --------------------------------------------------------------------------
# components


def test_components_concrete_example():
    # triangle + one edge + isolated vertex
    G = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    rep = components(G)
    assert rep.component_id == (0, 0, 0, 1, 1, 2)
    tri, edge, single = rep.components
    assert tri.vertices == (0, 1, 2) and not tri.is_bipartite
    assert tri.matching_size == 1
    assert tri.odd_cycle is not None and tri.odd_cycle.length == 3
    assert edge.vertices == (3, 4) and edge.is_bipartite
    assert edge.parts == ((3,), (4,)) and edge.matching_size == 1
    assert single.vertices == (5,) and single.parts == ((5,), ())
    assert rep.non_bipartite_components == (tri,)
    assert rep.bipartite_components == (edge, single)


@given(graphs(max_vertices=9))
@settings(max_examples=120)
def test_components_invariants(G):
    rep = components(G)
    assert len(rep.component_id) == G.vertex_count
    covered = [v for c in rep.components for v in c.vertices]
    assert sorted(covered) == list(range(G.vertex_count))
    for cid, comp in enumerate(rep.components):
        assert all(rep.component_id[v] == cid for v in comp.vertices)
        sub, kept = induced_subgraph(G, comp.vertices)
        assert comp.is_bipartite == brute_is_bipartite(sub)
        assert comp.matching_size == brute_matching_number(sub)
        if comp.is_bipartite:
            a, b = comp.parts
            assert tuple(sorted(a + b)) == comp.vertices
            assert comp.vertices[0] in a
            for side in (a, b):
                inside = set(side)
                assert not any(
                    G.has_edge(u, v)
                    for i, u in enumerate(side)
                    for v in side[i + 1 :]
                    if v in inside
                )
        else:
            oc = comp.odd_cycle
            assert oc is not None and oc.length % 2 == 1
            assert verify_cycle(G, oc)
            assert set(oc.vertices) <= set(comp.vertices)


@given(graphs(max_vertices=9))
@settings(max_examples=60)
def test_edges_never_cross_components(G):
    rep = components(G)
    for u, v in G.edges:
        assert rep.component_id[u] == rep.component_id[v]


# --------------------------------------------------------------------------
# fixed-length and longest cycle


def test_contains_cycle_rejects_short_targets():
    with pytest.raises(CycleTooShort):
        contains_cycle_of_length(complete_graph(4), 2)


def test_contains_cycle_on_petersen_girth():
    P = petersen()
    assert contains_cycle_of_length(P, 3) is None
    assert contains_cycle_of_length(P, 4) is None
    cert = contains_cycle_of_length(P, 5)
    assert cert is not None and cert.length == 5 and verify_cycle(P, cert)


def test_longest_cycle_on_petersen_is_nine():
    P = petersen()
    cert = longest_cycle(P)
    assert cert is not None and cert.length == 9
    assert verify_cycle(P, cert)


def test_longest_cycle_none_on_forest():
    assert longest_cycle(build_graph(5, [(0, 1), (1, 2), (3, 4)])) is None
    assert longest_cycle(build_graph(3, [])) is None


@given(graphs(max_vertices=8), st.integers(3, 8))
@settings(max_examples=150)
def test_contains_cycle_matches_oracle(G, n):
    truth = brute_cycle_lengths(G)
    cert = contains_cycle_of_length(G, n)
    if n in truth:
        assert cert is not None
        assert cert.length == n
        assert verify_cycle(G, cert)
    else:
        assert cert is None


@given(graphs(max_vertices=8))
@settings(max_examples=120)
def test_longest_cycle_matches_oracle(G):
    truth = brute_cycle_lengths(G)
    cert = longest_cycle(G)
    if truth:
        assert cert is not None
        assert cert.length == max(truth)
        assert verify_cycle(G, cert)
    else:
        assert cert is None


@given(graphs(max_vertices=8), st.integers(3, 8))
@settings(max_examples=100)
def test_longest_cycle_stop_at_semantics(G, stop_at):
    truth = brute_cycle_lengths(G)
    cert = longest_cycle(G, stop_at=stop_at)
    if truth and max(truth) >= stop_at:
        assert cert is not None and cert.length >= stop_at
        assert verify_cycle(G, cert)
    elif truth:
        # nothing at or above the cutoff: falls back to a true longest cycle
        assert cert is not None and cert.length == max(truth)
    else:
        assert cert is None


def brute_cycle_sequences(G):
    """Every cycle of G as a vertex sequence starting at its minimum
    vertex, once per direction, by trying every ordering of every subset."""
    found = []
    for size in range(3, G.vertex_count + 1):
        for sub in itertools.combinations(range(G.vertex_count), size):
            for perm in itertools.permutations(sub[1:]):
                cyc = (sub[0],) + perm
                if all(G.has_edge(cyc[i - 1], cyc[i]) for i in range(size)):
                    found.append(cyc)
    return found


@given(graphs(max_vertices=7), st.integers(3, 8))
@settings(max_examples=150)
def test_certificates_are_lexicographically_least(G, n):
    # The returned cycle is fixed by the graph alone: the lexicographically
    # least min-vertex-first sequence.  Hunt trajectories and witness
    # output depend on this choice.
    cycles = brute_cycle_sequences(G)
    exact = [c for c in cycles if len(c) == n]
    cert = contains_cycle_of_length(G, n)
    assert (cert and cert.vertices) == (min(exact) if exact else None)
    at_least = [c for c in cycles if len(c) >= n]
    if at_least:
        assert longest_cycle(G, stop_at=n).vertices == min(at_least)


# --------------------------------------------------------------------------
# Erdős–Gallai sweep


def test_sweep_small_orders_clean():
    for v in (1, 2, 3, 4, 5):
        rep = erdos_gallai_sweep(v)
        assert rep.ok
        assert rep.violation_count == 0
        assert rep.graphs_enumerated == 1 << (v * (v - 1) // 2)


def test_sweep_checked_count_v4():
    # thresholds on 4 vertices: length 3 needs 4 edges, length 4 needs 5.
    # Graphs on >= 4 of the 6 possible edges: C(6,4)+C(6,5)+C(6,6) = 22.
    rep = erdos_gallai_sweep(4)
    assert rep.graphs_checked == 22


def test_sweep_respects_length_subset():
    rep = erdos_gallai_sweep(5, lengths=[4])
    assert rep.lengths == (4,)
    assert rep.ok


def test_sweep_rejects_bad_params():
    with pytest.raises(TargetTooLarge):
        erdos_gallai_sweep(9)
    with pytest.raises(ParamOutOfRange):
        erdos_gallai_sweep(0)
    with pytest.raises(CycleTooShort):
        erdos_gallai_sweep(5, lengths=[2])
