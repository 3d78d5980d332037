"""Graph and edge-coloring primitives: validation, canonical form, restriction."""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    ColorOutOfRange,
    CycleRamseyError,
    CycleTooShort,
    DuplicateEdge,
    EdgeColoring,
    Graph,
    LoopEdge,
    VertexOutOfRange,
    build_graph,
    color_class,
    complete_graph,
    components,
    constant_coloring,
    cycle_graph,
    induced_coloring,
    induced_subgraph,
    make_coloring,
    normalize_edge,
    verify_cycle,
    verify_matching,
)
from cycle_ramsey.formats import (
    parse_coloring,
    parse_graph,
    serialize_coloring,
    serialize_graph,
)

from strategies import colorings, graphs


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


def _fault(make):
    with pytest.raises(CycleRamseyError) as info:
        make()
    return type(info.value), str(info.value)


def test_graph_rejects_loop():
    assert _fault(lambda: Graph(3, frozenset({(1, 1)}))) == (
        LoopEdge, "self-loop at vertex 1"
    )
    with pytest.raises(LoopEdge):
        build_graph(3, [(2, 2)])


def test_graph_rejects_out_of_range_and_unnormalized():
    out_of_range = [
        ((0, 3), "edge (0,3) outside vertex range 0..2"),
        ((-1, 2), "edge (-1,2) outside vertex range 0..2"),
        ((2, 0), "edge (2,0) is not normalized (u < v)"),  # stored u < v
    ]
    for edge, message in out_of_range:
        fault = _fault(lambda: Graph(3, frozenset({edge})))
        assert fault == (VertexOutOfRange, message)
    assert _fault(lambda: Graph(0, frozenset({(0, 1)}))) == (
        VertexOutOfRange, "edge (0,1) outside vertex range 0..-1"
    )
    with pytest.raises(VertexOutOfRange):
        build_graph(2, [(-1, 0)])


def test_constructors_refuse_a_negative_count_before_any_edge():
    # the count is checked first, so an edge cannot name a range 0..-2
    for edges in ([], [(0, 1)], [(1, 1)], [(0, 1), (0, 1)]):
        for make in (Graph, build_graph):
            assert _fault(lambda: make(-1, edges)) == (
                VertexOutOfRange, "vertex_count must be non-negative"
            )


def test_graph_freezes_its_edges():
    # a repeated edge is one edge, as it is in the masks
    G = Graph(3, [(0, 1), (0, 1)])
    assert G.edge_count == 1
    assert G.edges == frozenset({(0, 1)})


def test_graph_from_an_edge_list_is_hashable():
    assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, frozenset({(0, 1)})))


def test_graph_from_an_edge_list_equals_graph_from_its_set():
    assert Graph(3, [(0, 1)]) == Graph(3, frozenset({(0, 1)}))
    assert Graph(3, iter([(1, 2)])) == build_graph(3, [(2, 1)])


def _checked_edges(n, edges):
    """The edge checks of `Graph` as one test per fault, in set order."""
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"self-loop at vertex {u}")
        if u > v:
            raise VertexOutOfRange(f"edge ({u},{v}) is not normalized (u < v)")
        if u < 0 or v >= n:
            raise VertexOutOfRange(f"edge ({u},{v}) outside vertex range 0..{n - 1}")


@given(
    st.integers(0, 4),
    st.frozensets(st.tuples(st.integers(-2, 5), st.integers(-2, 5)), max_size=6),
)
@settings(max_examples=200)
def test_graph_checks_match_one_test_per_fault(n, edges):
    try:
        _checked_edges(n, edges)
    except CycleRamseyError as exc:
        assert _fault(lambda: Graph(n, edges)) == (type(exc), str(exc))
    else:
        assert Graph(n, edges).edges == edges


def _unchecked_constructors_agree(col, data):
    # `build_graph`, `complete_graph` and the internal constructor behind
    # induced subgraphs, color classes and both parser paths skip the
    # per-edge checks of `Graph(v, edges)`: each graph they build must
    # pass them, hold the neighbour masks its edges give, count, compare,
    # hash and answer `has_edge` as the checked graph does, either way
    # round, and give its edges in ascending order, seeded or not.
    def same(H, edges):
        n = H.vertex_count
        checked = Graph(n, frozenset(edges))
        # counted from the masks, or from the view the graph was born with
        assert H.edge_count == checked.edge_count
        assert H == checked and checked == H and hash(H) == hash(checked)
        if n >= 2:
            other = Graph(n, checked.edges ^ {(0, 1)})
            assert H != other and other != H
        for u, v in itertools.product(range(n), repeat=2):
            assert H.has_edge(u, v) == checked.has_edge(u, v)
        assert H.sorted_edges == checked.sorted_edges
        assert H.neighbor_masks == checked.neighbor_masks
        assert H.edge_count == len(H.edges) == len(H.sorted_edges)

    G = col.base
    n = G.vertex_count
    same(build_graph(n, [(v, u) for u, v in G.sorted_edges]), G.edges)
    same(complete_graph(n), itertools.combinations(range(n), 2))
    kept = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    inner = itertools.combinations(range(len(kept)), 2)
    same(
        induced_subgraph(G, kept)[0],
        [(a, b) for a, b in inner if G.has_edge(kept[a], kept[b])],
    )
    for i in range(1, col.color_count + 1):
        same(color_class(col, i), [e for e in G.edges if col.color_of(*e) == i])
    for text in (serialize_graph(G), "# not canonical\n" + serialize_graph(G)):
        same(parse_graph(text), G.edges)
    for text in (serialize_coloring(col), "\n" + serialize_coloring(col)):
        assert parse_coloring(text) == col
        same(parse_coloring(text).base, G.edges)


@given(colorings(max_vertices=8), st.data())
@settings(max_examples=150)
def test_unchecked_constructors_build_what_graph_validates(col, data):
    _unchecked_constructors_agree(col, data)


@given(colorings(max_vertices=8, complete=True), st.data())
@settings(max_examples=40)
def test_unchecked_constructors_on_a_complete_host(col, data):
    # the host is `complete_graph(n)`, born with seeded masks, and its
    # canonical files are read by the bulk reader's complete branch
    _unchecked_constructors_agree(col, data)


def test_build_graph_rejects_duplicates_in_either_orientation():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_accepts_reversed_input():
    G = build_graph(4, [(3, 0), (2, 1)])
    assert G.edges == frozenset({(0, 3), (1, 2)})


def test_complete_graph_counts():
    K5 = complete_graph(5)
    assert K5.edge_count == 10
    assert all(K5.degree(v) == 4 for v in range(5))
    assert complete_graph(0).edge_count == 0


def test_complete_graph_is_shared_while_held_and_freed_after():
    # an order no other test holds, so the last user here is the last one
    K = complete_graph(23)
    assert complete_graph(23) is K
    col = constant_coloring(complete_graph(23), 2)
    assert col.base is K
    assert parse_coloring(serialize_coloring(col)).base is K
    assert parse_graph(serialize_graph(K)) is K
    # every per-graph slot filled: views, component report, matching
    assert components(K).components[0].matching.size == 11
    gone = weakref.ref(K)
    gc.collect()
    gc.disable()
    try:
        del K, col
        # freed by reference counting alone: no K_n outlives its users,
        # and nothing it caches refers back to it
        assert gone() is None
    finally:
        gc.enable()
    assert complete_graph(23) == Graph(23, frozenset(itertools.combinations(range(23), 2)))


def test_mask_born_graphs_build_no_edge_view_until_one_is_read():
    # an order no other test holds, so K_V is born in this parse
    v = 31
    text = f"coloring {v} 3\n" + "".join(
        f"e {a} {b} {1 + (a * b + a) % 3}\n" for a, b in itertools.combinations(range(v), 2)
    )
    col = parse_coloring(text)
    K = col.base
    assert K is complete_graph(v)
    classes = [color_class(col, i) for i in (1, 2, 3)]
    sub, _ = induced_subgraph(classes[0], range(0, v, 2))
    born = [*classes, sub]
    # counting and walking read the masks alone
    for H in (K, *born):
        assert H.degree(0) <= H.edge_count
    for H in born:
        for comp in components(H).components:
            assert verify_matching(H, comp.matching)
            assert comp.odd_cycle is None or verify_cycle(H, comp.odd_cycle)
    assert "edges" not in K.__dict__
    for H in born:
        assert "edges" not in H.__dict__ and "sorted_edges" not in H.__dict__
    # the first read builds the view, and the graph keeps it
    for H in (K, *born):
        assert H.edges == frozenset(H.sorted_edges) == H.__dict__["edges"]
        assert H.edge_count == len(H.edges)
    assert sum(H.edge_count for H in classes) == K.edge_count


def test_cycle_graph_structure():
    C5 = cycle_graph(5)
    assert C5.edge_count == 5
    assert all(C5.degree(v) == 2 for v in range(5))
    with pytest.raises(CycleTooShort):
        cycle_graph(2)


def test_masks_and_has_edge_agree():
    G = build_graph(5, [(0, 1), (0, 4), (2, 3)])
    assert G.neighbor_masks == ((1 << 1) | (1 << 4), 1, 1 << 3, 1 << 2, 1)
    assert G.has_edge(4, 0) and not G.has_edge(1, 2)


def test_degree_refuses_vertices_outside_the_graph():
    C5 = cycle_graph(5)
    assert C5.degree(4) == 2
    for v in (-1, 5):
        with pytest.raises(VertexOutOfRange):
            C5.degree(v)


def test_induced_subgraph_relabels_ascending():
    G = build_graph(6, [(0, 5), (2, 5), (1, 3)])
    sub, kept = induced_subgraph(G, [5, 0, 2])
    assert kept == (0, 2, 5)
    assert sub.vertex_count == 3
    assert sub.edges == frozenset({(0, 2), (1, 2)})
    with pytest.raises(VertexOutOfRange):
        induced_subgraph(G, [0, 6])


@given(graphs(max_vertices=8), st.data())
@settings(max_examples=60)
def test_induced_subgraph_keeps_exactly_inner_edges(G, data):
    W = data.draw(
        st.lists(
            st.integers(0, max(G.vertex_count - 1, 0)), unique=True, max_size=G.vertex_count
        )
        if G.vertex_count
        else st.just([])
    )
    sub, kept = induced_subgraph(G, W)
    assert kept == tuple(sorted(set(W)))
    inside = set(kept)
    expected = sum(1 for u, v in G.edges if u in inside and v in inside)
    assert sub.edge_count == expected
    # every subgraph edge maps back to a real edge of G
    for u, v in sub.edges:
        assert G.has_edge(kept[u], kept[v])
    # and the slice equals the edge-scan definition, sorted view included
    index = {w: i for i, w in enumerate(kept)}
    scanned = frozenset(
        normalize_edge(index[u], index[v])
        for u, v in G.edges
        if u in inside and v in inside
    )
    assert sub == Graph(len(kept), scanned)
    assert sub.sorted_edges == tuple(sorted(scanned))
    assert sub.neighbor_masks == Graph(sub.vertex_count, sub.edges).neighbor_masks


@given(graphs(max_vertices=9))
@settings(max_examples=60)
def test_masks_are_symmetric_loop_free_and_match_has_edge(G):
    n = G.vertex_count
    masks = G.neighbor_masks
    assert len(masks) == n
    for v in range(n):
        assert masks[v] >> n == 0 and not masks[v] >> v & 1
        for w in range(n):
            assert (masks[v] >> w & 1) == (masks[w] >> v & 1)
            assert bool(masks[v] >> w & 1) == (v != w and G.has_edge(v, w))
        assert G.degree(v) == sum(1 for u, w in G.edges if v in (u, w))


@given(colorings(max_vertices=7))
@settings(max_examples=60)
def test_whole_vertex_slices_are_the_object_itself(col):
    G = col.base
    everyone = list(range(G.vertex_count))[::-1]
    sub, kept = induced_subgraph(G, everyone)
    assert sub is G and kept == tuple(range(G.vertex_count))
    sub_col, kept = induced_coloring(col, everyone)
    assert sub_col is col and kept == tuple(range(G.vertex_count))


def test_coloring_validation():
    G = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ColorOutOfRange):
        EdgeColoring(G, 0, ())
    with pytest.raises(ColorOutOfRange):
        EdgeColoring(G, 2, (1,))  # wrong arity
    for colors, bad in [((0, 1), 0), ((1, 3), 3), ((2, 0), 0)]:
        assert _fault(lambda: EdgeColoring(G, 2, colors)) == (
            ColorOutOfRange, f"color {bad} outside 1..2"
        )
    # several bad colours: the first in edge order is named, not the
    # smallest or the largest
    K4 = complete_graph(4)
    for colors, bad in [((1, 5, 2, 0, 1, 1), 5), ((1, 0, 2, 5, 1, 1), 0)]:
        assert _fault(lambda: EdgeColoring(K4, 2, colors)) == (
            ColorOutOfRange, f"color {bad} outside 1..2"
        )
    assert EdgeColoring(K4, 2, (1, 2, 2, 1, 1, 2)).colors == (1, 2, 2, 1, 1, 2)


def test_make_coloring_requires_exact_cover():
    G = build_graph(3, [(0, 1), (1, 2)])
    col = make_coloring(G, 2, {(1, 0): 2, (1, 2): 1})
    assert col.color_of(0, 1) == 2
    assert col.color_of(2, 1) == 1
    with pytest.raises(VertexOutOfRange):
        make_coloring(G, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    with pytest.raises(ColorOutOfRange):
        make_coloring(G, 2, {(0, 1): 1})


def test_constant_coloring_and_color_class():
    G = complete_graph(4)
    col = constant_coloring(G, color_count=2, color=2)
    assert color_class(col, 2).edges == G.edges
    assert color_class(col, 1).edge_count == 0
    with pytest.raises(ColorOutOfRange):
        color_class(col, 3)
    with pytest.raises(ColorOutOfRange):
        constant_coloring(G, 1, 2)


@given(colorings(max_vertices=7))
@settings(max_examples=60)
def test_color_class_is_shared_and_matches_the_filter(col):
    v = col.base.vertex_count
    for i in range(1, col.color_count + 1):
        G = color_class(col, i)
        assert color_class(col, i) is G
        filtered = frozenset(
            e for e, c in zip(col.base.sorted_edges, col.colors) if c == i
        )
        assert G == Graph(v, filtered)
        assert G.sorted_edges == tuple(sorted(filtered))


def test_empty_classes_of_a_huge_palette_cost_nothing():
    # one shared edgeless graph stands for every unused colour
    col = EdgeColoring(build_graph(3, [(0, 1)]), 10**9, (1,))
    assert color_class(col, 1).edges == frozenset({(0, 1)})
    empty = color_class(col, 10**9)
    assert empty == Graph(3, frozenset()) and color_class(col, 2) is empty


@given(colorings(max_vertices=7))
@settings(max_examples=60)
def test_color_classes_partition_edges(col):
    classes = [color_class(col, i) for i in range(1, col.color_count + 1)]
    assert sum(g.edge_count for g in classes) == col.base.edge_count
    union = frozenset().union(*(g.edges for g in classes))
    assert union == col.base.edges


@given(colorings(max_vertices=7), st.data())
@settings(max_examples=60)
def test_induced_coloring_preserves_colors(col, data):
    v = col.base.vertex_count
    W = data.draw(st.lists(st.integers(0, v - 1), unique=True, max_size=v))
    sub, kept = induced_coloring(col, W)
    for u, w in sub.base.edges:
        assert sub.color_of(u, w) == col.color_of(kept[u], kept[w])


def test_coloring_equality_is_canonical():
    G = build_graph(3, [(0, 1), (0, 2)])
    a = make_coloring(G, 2, {(0, 1): 1, (0, 2): 2})
    b = make_coloring(G, 2, {(0, 2): 2, (1, 0): 1})
    assert a == b
