"""Maximum matching: blossom implementation versus the exhaustive oracle."""

from __future__ import annotations

import itertools

from hypothesis import given, settings

from cycle_ramsey import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    max_matching,
    verify_matching,
)

from strategies import all_pairs, brute_matching_number, graphs


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
    for u, v in cert.edges:
        assert G.has_edge(u, v)


def test_verify_matching_rejects_bad_certificates():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    good = max_matching(G)
    from cycle_ramsey import MatchingCertificate

    assert not verify_matching(G, MatchingCertificate(frozenset({(0, 3)})))
    assert not verify_matching(
        G, MatchingCertificate(frozenset({(0, 1), (1, 2)}))
    )
    assert verify_matching(G, good)
