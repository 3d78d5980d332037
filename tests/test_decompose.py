"""Decomposition into bipartite + sparse parts, and min-degree peeling."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    CycleTooShort,
    FLDecomposition,
    ParamOutOfRange,
    TargetTooLarge,
    build_graph,
    check_decomposition,
    complete_graph,
    fl_decompose,
    induced_subgraph,
    matching_threshold,
    min_degree_peel,
)

from strategies import edge_pairs, graphs, graphs_of_density


def test_matching_threshold_is_ceiling_of_half():
    assert matching_threshold(5) == 3
    assert matching_threshold(6) == 3
    assert matching_threshold(7) == 4
    with pytest.raises(ParamOutOfRange):
        matching_threshold(0)


# --------------------------------------------------------------------------
# fl_decompose


def test_decompose_bipartite_graph_has_empty_sparse_part():
    # forest: two disjoint paths
    G = build_graph(6, [(0, 1), (1, 2), (3, 4)])
    dec = fl_decompose(G, 5)
    assert dec.V3 == ()
    assert dec.hypothesis_holds
    assert dec.sparse_edge_count == 0
    assert dec.sparse_bound == 0
    assert set(dec.V1) | set(dec.V2) == set(range(6))


def test_decompose_mixed_example():
    # K_4 on {0..3} (non-bipartite, matching 2) + C_6 on {4..9}
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(4 + i, 4 + (i + 1) % 6) for i in range(6)]
    G = build_graph(10, edges)
    dec = fl_decompose(G, 5)
    assert dec.V3 == (0, 1, 2, 3)
    assert set(dec.V1) | set(dec.V2) == {4, 5, 6, 7, 8, 9}
    # K_4 has a perfect matching of size 2 < threshold(5) = 3
    assert dec.hypothesis_holds
    assert dec.sparse_edge_count == 6
    assert dec.sparse_bound == Fraction(15, 2)


def test_decompose_hypothesis_fails_on_large_odd_component():
    # K_7 has matching 3 >= threshold(5); hypothesis must be reported false
    dec = fl_decompose(complete_graph(7), 5)
    assert dec.V3 == tuple(range(7))
    assert not dec.hypothesis_holds
    # edge count is still recorded faithfully
    assert dec.sparse_edge_count == 21


def test_decompose_rejects_short_cycle_length():
    with pytest.raises(CycleTooShort):
        fl_decompose(complete_graph(3), 2)


@given(graphs(max_vertices=12), st.sampled_from([3, 5, 7]))
@settings(max_examples=150)
def test_decompose_random_invariants(G, n):
    dec = fl_decompose(G, n)
    s1, s2, s3 = set(dec.V1), set(dec.V2), set(dec.V3)
    # partition
    assert len(s1) + len(s2) + len(s3) == G.vertex_count
    assert s1 | s2 | s3 == set(range(G.vertex_count))
    # (A) no edge between the bipartite union and the sparse part
    # (B) the bipartite union really is bipartite with parts (V1, V2)
    for u, v in G.sorted_edges:
        in1_u, in1_v = u in s3, v in s3
        assert in1_u == in1_v
        if not in1_u:
            assert (u in s1) != (v in s1)
    # V3 components are exactly the non-bipartite components
    sub3, _ = induced_subgraph(G, sorted(s3))
    from strategies import brute_is_bipartite

    if s3:
        assert not brute_is_bipartite(sub3) or sub3.vertex_count == 0
    # (C) under the hypothesis
    if dec.hypothesis_holds and s3:
        assert dec.sparse_edge_count <= dec.sparse_bound
    # the independent auditor agrees
    assert check_decomposition(G, n, dec).all_ok


def test_check_decomposition_catches_planted_errors():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C_4
    good = fl_decompose(G, 5)
    assert check_decomposition(G, 5, good).all_ok
    # move a vertex across the bipartition: condition (B) must fail
    bad_b = FLDecomposition(
        (0, 1, 2), (3,), (), True, 0, Fraction(0)
    )
    chk = check_decomposition(G, 5, bad_b)
    assert not chk.condition_b_ok and not chk.all_ok
    # drop a vertex entirely: the partition check must fail
    bad_p = FLDecomposition((0, 2), (1,), (), True, 0, Fraction(0))
    assert not check_decomposition(G, 5, bad_p).partition_ok
    # claim a triangle is part of the bipartite side
    T = complete_graph(3)
    bad_a = FLDecomposition((0, 2), (1,), (), True, 0, Fraction(0))
    chk = check_decomposition(T, 5, bad_a)
    assert not chk.condition_b_ok
    # put a bipartite component into V3
    P = build_graph(2, [(0, 1)])
    bad_v3 = FLDecomposition((), (), (0, 1), True, 1, Fraction(5, 2))
    assert not check_decomposition(P, 5, bad_v3).v3_components_nonbipartite


@pytest.mark.parametrize(
    "sets",
    [
        ((), (), (0, 1, 2, 3, 9)),
        ((), (), (0, 1, 2, 3, -1)),
        ((0,), (1, 2), (3, 9)),
        ((0, -1), (1, 2), (3,)),
        ((0,), (1, 2, 4), (3,)),
    ],
)
def test_check_decomposition_reports_vertices_outside_the_graph(sets):
    # a claim naming a vertex outside V(G) fails the partition and is
    # audited on its vertices inside V(G); it never raises
    G = complete_graph(4)
    dec = dataclasses.replace(fl_decompose(G, 5), V1=sets[0], V2=sets[1], V3=sets[2])
    inside = [tuple(v for v in s if 0 <= v < 4) for s in sets]
    trimmed = dataclasses.replace(dec, V1=inside[0], V2=inside[1], V3=inside[2])
    chk = check_decomposition(G, 5, dec)
    assert not chk.partition_ok
    assert dataclasses.replace(chk, partition_ok=True) == dataclasses.replace(
        check_decomposition(G, 5, trimmed), partition_ok=True
    )


@given(graphs(max_vertices=9), st.data())
@settings(max_examples=150)
def test_check_decomposition_matches_the_edge_audit(G, data):
    # conditions (A) and (B) against a direct pass over the edges, on
    # claims that may overlap, miss vertices or name ones outside V(G)
    label = st.integers(-1, G.vertex_count + 1)
    s1, s2, s3 = (set(data.draw(st.lists(label, max_size=6))) for _ in range(3))
    dec = FLDecomposition(tuple(s1), tuple(s2), tuple(s3), False, 0, Fraction(0))
    bip = s1 | s2
    a_ok = all((u in bip) == (v in bip) for u, v in G.sorted_edges)
    b_ok = not any(
        u in bip and v in bip and (u in s1) == (v in s1) for u, v in G.sorted_edges
    )
    chk = check_decomposition(G, 3, dec)
    assert (chk.condition_a_ok, chk.condition_b_ok) == (a_ok, b_ok)


# --------------------------------------------------------------------------
# min-degree peel


def test_peel_complete_graph_removes_smallest_ids():
    res = min_degree_peel(complete_graph(5), 3)
    # all degrees equal, so ties break to the smallest id each round;
    # after removing 0, vertex 1 has minimum degree again
    assert [v for v, _ in res.removals] == [0, 1]
    assert res.removals[0] == (0, 4)
    assert res.removals[1] == (1, 3)
    assert res.kept == (2, 3, 4)
    assert res.graph.edge_count == 3


def test_peel_prefers_low_degree():
    # star plus pendant: vertex 4 is the unique min-degree leaf... all
    # leaves tie, so the smallest leaf goes first.
    G = build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    res = min_degree_peel(G, 4)
    assert res.removals == ((1, 1),)


def test_peel_edge_cases_and_errors():
    G = complete_graph(4)
    assert min_degree_peel(G, 4).removals == ()
    assert min_degree_peel(G, 0).graph.vertex_count == 0
    with pytest.raises(ParamOutOfRange):
        min_degree_peel(G, -1)
    with pytest.raises(TargetTooLarge):
        min_degree_peel(G, 5)


def assert_peel_follows_reference(G, target, res):
    """The peel's shape, and each removal checked against the rule itself:
    a vertex of least live degree, smallest id on ties, recounted from
    the edge set at every step."""
    assert res.graph.vertex_count == target
    assert len(res.kept) == target
    assert len(res.removals) == G.vertex_count - target
    removed = {v for v, _ in res.removals}
    assert removed.isdisjoint(res.kept)
    assert removed | set(res.kept) == set(range(G.vertex_count))
    alive = set(range(G.vertex_count))
    adjacent = edge_pairs(G)
    for victim, deg in res.removals:
        live_deg = {v: sum(1 for w in alive if (v, w) in adjacent) for v in alive}
        assert live_deg[victim] == deg
        best = min(alive, key=lambda v: (live_deg[v], v))
        assert victim == best
        alive.remove(victim)
    assert res.kept == tuple(sorted(alive))
    assert (res.graph, res.kept) == induced_subgraph(G, alive)


@given(
    st.one_of(
        graphs(min_vertices=1, max_vertices=12),
        graphs_of_density(min_vertices=1, max_vertices=16),
    ),
    st.data(),
)
@settings(max_examples=150)
def test_peel_random_invariants(G, data):
    target = data.draw(st.integers(0, G.vertex_count))
    assert_peel_follows_reference(G, target, min_degree_peel(G, target))


@pytest.mark.parametrize("v", [1, 2, 3, 9, 24, 40])
def test_peel_of_a_complete_graph_steps_the_least_degree_down(v):
    # every removal lowers each live degree by one, so the least live
    # degree falls at every step, down to 0
    G = complete_graph(v)
    res = min_degree_peel(G, 0)
    assert res.removals == tuple((i, v - 1 - i) for i in range(v))
    assert_peel_follows_reference(G, 0, res)
    half = min_degree_peel(G, v // 2)
    assert half.kept == tuple(range(v - v // 2, v))
    assert_peel_follows_reference(G, v // 2, half)


@given(graphs(min_vertices=2, max_vertices=12), st.data())
@settings(max_examples=150)
def test_peel_preserves_relative_density(G, data):
    """If e(G) >= (1-d) * C(v,2), the peel to N keeps >= (1-d) * C(N,2)."""
    v = G.vertex_count
    target = data.draw(st.integers(2, v))
    full = v * (v - 1) // 2
    if full == 0:
        return
    density = Fraction(G.edge_count, full)  # = 1 - d
    res = min_degree_peel(G, target)
    assert res.graph.edge_count >= density * Fraction(
        target * (target - 1), 2
    )
