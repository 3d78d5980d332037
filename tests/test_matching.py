"""Maximum matching: blossom implementation versus the exhaustive oracle."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    Graph,
    build_graph,
    complete_graph,
    induced_subgraph,
    max_matching,
    normalize_edge,
    verify_matching,
)
from cycle_ramsey import matching

from strategies import (
    all_pairs,
    brute_matching_number,
    cycle_graph,
    edge_pairs,
    graphs,
    graphs_of_density,
)


def test_empty_and_single_edge():
    assert max_matching(Graph(0, frozenset())).size == 0
    assert max_matching(Graph(5, frozenset())).size == 0
    assert max_matching(build_graph(2, [(0, 1)])).size == 1


def test_known_small_values():
    assert max_matching(complete_graph(6)).size == 3
    assert max_matching(complete_graph(7)).size == 3
    assert max_matching(cycle_graph(5)).size == 2
    assert max_matching(cycle_graph(6)).size == 3
    # star K_{1,4}: one edge no matter the degree
    assert max_matching(build_graph(5, [(0, i) for i in range(1, 5)])).size == 1


def test_odd_blossom_forcing_case():
    # Triangle with two pendant edges: the augmenting path must pass
    # through a contracted odd cycle.
    G = build_graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
    cert = max_matching(G)
    assert cert.size == 2
    assert verify_matching(G, cert)


def test_petersen_graph_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    G = build_graph(10, outer + spokes + inner)
    cert = max_matching(G)
    assert cert.size == 5
    assert verify_matching(G, cert)


def test_all_graphs_up_to_six_vertices():
    """Exhaustive agreement with the brute-force oracle on every graph
    with at most six vertices (one representative per edge set)."""
    for v in range(7):
        pairs = all_pairs(v)
        for mask in range(1 << len(pairs)):
            G = Graph(
                v, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            )
            cert = max_matching(G)
            assert verify_matching(G, cert)
            assert cert.size == brute_matching_number(G)


@given(graphs(max_vertices=9))
@settings(max_examples=150)
def test_matching_matches_oracle_random(G):
    cert = max_matching(G)
    assert verify_matching(G, cert)
    assert cert.size == brute_matching_number(G)


@given(graphs(max_vertices=9))
@settings(max_examples=80)
def test_matching_edges_are_disjoint_and_present(G):
    cert = max_matching(G)
    used = list(itertools.chain.from_iterable(cert.edges))
    assert len(used) == len(set(used))
    assert cert.edges <= edge_pairs(G)


def test_verify_matching_rejects_bad_certificates():
    from cycle_ramsey import MatchingCertificate

    # the path 0-1-2-3 as `Graph(v, edges)`, and born from masks as a
    # slice of C_5; adjacency is a bit test on the masks, where vertex -1
    # would index vertex 3, a neighbour of 2, and vertex 4 would be past
    # the end
    P = Graph(4, {(0, 1), (1, 2), (2, 3)})
    sliced, _ = induced_subgraph(cycle_graph(5), range(4))
    for G in (P, sliced):
        assert G == P
        assert verify_matching(G, max_matching(G))
        refused = [
            {(0, 3)},  # a non-edge
            {(0, 1), (1, 2)},  # a repeated vertex
            {(1, 1)},  # a pair (u, u)
            {(-1, 2)},  # a vertex below 0
            {(2, -1)},
            {(4, 3)},  # a vertex at n
            {(3, 4)},
            {(2, 7)},  # and above
        ]
        for edges in refused:
            assert not verify_matching(G, MatchingCertificate(frozenset(edges))), edges
    assert "edges" not in sliced.__dict__


def _matching_trying_every_root(G):
    """Reference: `max_matching` as it was before it stopped early, with
    every vertex still exposed after the greedy seed tried as a root."""
    n = G.vertex_count
    match = [-1] * n
    for u, v in G.sorted_edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    for v in range(n):
        if match[v] == -1:
            matching._find_augmenting_path(
                G.neighbor_masks, range(n), (1 << n) - 1, match, v
            )
    return frozenset(normalize_edge(v, match[v]) for v in range(n) if match[v] > v)


@given(st.one_of(graphs(max_vertices=10), graphs_of_density(min_vertices=2)))
@settings(max_examples=150)
def test_early_stop_returns_the_same_matching(G):
    # The roots skipped once at most one live vertex is exposed could
    # not augment (a failed root is dead for good), so the matching is
    # edge for edge the same.
    assert max_matching(G).edges == _matching_trying_every_root(G)


@pytest.mark.parametrize(
    "v,edges,calls",
    [
        (4, [(0, 1), (1, 2), (2, 3)], 0),  # greedy seed is perfect
        (3, [(0, 1), (1, 2)], 0),  # one vertex left exposed: no path exists
        (7, all_pairs(7), 0),  # K_7: greedy leaves vertex 6 alone
        (4, [(0, 1), (0, 2), (1, 3)], 1),  # 2 and 3 exposed: one augmentation
        (5, [(0, 1), (0, 2), (1, 3)], 1),  # and isolated 4 is never tried
        (4, [(0, 1), (0, 2), (0, 3)], 1),  # K_1,3: dead root 2 leaves only 3
    ],
)
def test_no_root_is_tried_once_one_vertex_is_exposed(monkeypatch, v, edges, calls):
    made = []
    real = matching._find_augmenting_path

    def counted(masks, verts, inside, match, root):
        made.append(root)
        return real(masks, verts, inside, match, root)

    monkeypatch.setattr(matching, "_find_augmenting_path", counted)
    G = build_graph(v, edges)
    cert = max_matching(G)
    assert len(made) == calls
    assert cert.size == brute_matching_number(G)


@given(st.one_of(graphs(max_vertices=10), graphs_of_density(min_vertices=2)), st.data())
@settings(max_examples=200)
def test_mask_matching_on_a_vertex_set_is_the_lifted_subgraph_matching(G, data):
    # Every walk of the blossom takes vertices ascending, and relabelling
    # in ascending order keeps that order, so running it on the host's
    # masks restricted to W gives the induced subgraph's matching, lifted
    # back through `kept`, edge for edge.
    W = data.draw(st.sets(st.integers(0, G.vertex_count - 1))) if G.vertex_count else ()
    sub, kept = induced_subgraph(G, W)
    lifted = frozenset((kept[a], kept[b]) for a, b in max_matching(sub).edges)
    inside = sum(1 << v for v in kept)
    assert matching._mask_matching(G.neighbor_masks, kept, inside).edges == lifted
