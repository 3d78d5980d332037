"""Components, cycle searches, and the Erdős–Gallai machinery."""

from __future__ import annotations

import importlib.util
import itertools
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    CycleCertificate,
    CycleTooShort,
    EdgeColoring,
    Graph,
    ParamOutOfRange,
    StructureWitness,
    TargetTooLarge,
    build_graph,
    check_decomposition,
    color_class,
    complete_graph,
    components,
    constant_coloring,
    contains_cycle_of_length,
    cycle_graph,
    eg_threshold,
    erdos_gallai_sweep,
    even_engine,
    fl_decompose,
    induced_subgraph,
    longest_cycle,
    structural_certificate,
    verify_cycle,
    verify_matching,
    verify_mono_cycle_free,
    verify_witness,
)
from cycle_ramsey import cycles, matching
from cycle_ramsey.cycles import _closes, _least_tail
from cycle_ramsey.graphs import _MAX_ORDER

from strategies import (
    all_pairs,
    brute_cycle_lengths,
    brute_is_bipartite,
    brute_matching_number,
    graphs,
    graphs_of_density,
    plain_dfs_cycle,
    reference_scan,
    sparse_graphs,
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
    assert single.vertices == (5,) and single.is_bipartite
    assert single.parts == ((5,), ())


def test_component_scans_run_no_matching(monkeypatch):
    # Only a read of `matching` may run blossom; these callers never do.
    col = constant_coloring(complete_graph(8), 2)
    G = color_class(col, 1)
    dec = fl_decompose(G, 5)  # reads matchings, so it runs before the patch

    def no_blossom(*_):
        raise AssertionError("blossom matching ran")

    monkeypatch.setattr(cycles, "_mask_matching", no_blossom)
    monkeypatch.setattr(matching, "_mask_matching", no_blossom)
    assert len(components(G).components) == 1
    assert not structural_certificate(col, 5).all_tagged
    odd = verify_mono_cycle_free(col, 5)
    assert odd.cycle.length == 5
    assert verify_mono_cycle_free(col, 6).cycle.length == 6
    assert check_decomposition(G, 5, dec).all_ok
    assert isinstance(even_engine(col, 4, 1), StructureWitness)
    assert verify_witness(col, 5, odd)


@given(st.one_of(graphs(), sparse_graphs(max_vertices=12)))
@settings(max_examples=300)
@example(Graph(0, frozenset()))
@example(Graph(6, frozenset()))
@example(build_graph(7, [(1, 2), (2, 3), (1, 3), (3, 5)]))  # isolated 0, 4, 6
@example(build_graph(8, [(0, 5), (5, 2), (2, 7), (7, 0), (3, 6)]))  # 4-cycle, 2 isolated
def test_component_scan_matches_the_reference_scan(G):
    # the BFS tie-breaking (neighbours ascending, first clash in BFS
    # order) fixes every row, so the one-pass scan must reproduce it
    comp_id, rows = reference_scan(G)
    rep = components(G)
    assert rep.component_id == comp_id
    assert len(rep.components) == len(rows)
    for comp, (verts, bipartite, parts, odd) in zip(rep.components, rows):
        assert comp.vertices == verts
        assert comp.is_bipartite == bipartite
        assert comp.parts == parts
        assert (comp.odd_cycle.vertices if comp.odd_cycle else None) == odd


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
        assert verify_matching(G, comp.matching)
        assert all(set(e) <= set(comp.vertices) for e in comp.matching.edges)
        assert comp.matching_size == comp.matching.size == brute_matching_number(sub)
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
    # a second call returns the same report, whose matchings are kept
    assert components(G) is rep

    def no_blossom(*_):
        raise AssertionError("a matching read twice ran blossom twice")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycles, "_mask_matching", no_blossom)
        again = [comp.matching for comp in rep.components]
    fresh = components(Graph(G.vertex_count, G.edges))
    assert fresh == rep
    for comp, twin, other in zip(rep.components, again, fresh.components):
        assert twin is comp.matching
        assert other.matching == comp.matching


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


@given(st.one_of(graphs(max_vertices=7), sparse_graphs(max_vertices=7)))
@settings(max_examples=150, deadline=None)
def test_kernel_windows_match_brute_force(G):
    # Every window 3 <= lo <= v+1, lo-1 <= hi <= v+1, the empty ones
    # (hi = lo - 1, lo = v + 1) included: the kernel's cuts must leave the
    # least cycle of the window, or None, exactly as brute force finds it.
    v = G.vertex_count
    masks = list(G.neighbor_masks)
    seqs = brute_cycle_sequences(G)
    for lo in range(3, v + 2):
        for hi in range(lo - 1, v + 2):
            inside = [c for c in seqs if lo <= len(c) <= hi]
            want = list(min(inside)) if inside else None
            assert cycles._mask_cycle(masks, v, lo, hi) == want, (lo, hi)


@given(graphs_of_density(8, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_plain_dfs_on_larger_graphs(G, data):
    # Hunt components have 9-11 vertices, beyond brute force; there the
    # DFS without cuts is the oracle, on sparse and dense graphs, for the
    # hunt's window [n, n], the sweep's [n, v] and one arbitrary window.
    v = G.vertex_count
    masks = list(G.neighbor_masks)
    n = data.draw(st.integers(3, v))
    lo = data.draw(st.integers(3, v + 1))
    hi = data.draw(st.integers(lo - 1, v + 1))
    for window in ((n, n), (n, v), (lo, hi)):
        want = plain_dfs_cycle(masks, v, *window)
        assert cycles._mask_cycle(masks, v, *window) == want, window


@st.composite
def near_trees(draw):
    """A graph on 12-16 vertices with v to 5v/4 edges: enough first steps
    and short cycles, few cycles of any one longer length."""
    v = draw(st.integers(12, 16))
    edges = draw(st.lists(st.sampled_from(all_pairs(v)), min_size=v,
                          max_size=5 * v // 4, unique=True))
    return build_graph(v, edges)


@given(near_trees())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_plain_dfs_on_sparse_graphs_with_exact_windows(G):
    # Such graphs hold no C_n for most exact windows n = 4..9, so the
    # least-path walk finds no path from most first steps: whatever it
    # drops must hold no cycle of the window.
    v = G.vertex_count
    masks = list(G.neighbor_masks)
    for n in range(4, 10):
        assert cycles._mask_cycle(masks, v, n, n) == plain_dfs_cycle(masks, v, n, n), n


def first_step_asks(H, s_top: int, short: int, long: int):
    """Each start s < s_top with the helper call the kernel makes for
    each of its first steps e1, in order: a tail above s from e1,
    avoiding s and e1, to an end of s above e1.  The last end has none
    above it and is not tried."""
    v = H.vertex_count
    asks = []
    for s in range(s_top):
        ends = [e for e in range(s + 1, v) if H.has_edge(s, e)]
        for i, e1 in enumerate(ends[:-1]):
            free = ((1 << v) - 1) & -(1 << s) & ~(1 << s | 1 << e1)
            asks.append((s, (e1, free, sum(1 << e for e in ends[i + 1:]), short, long)))
    return asks


def test_kernel_pre_tests_each_first_step_against_the_ends_above_it(monkeypatch):
    # The Petersen graph holds no C_7, so every first step e1 of the
    # exact window [7, 7] is ruled out by one helper call: a tail of 5
    # vertices from e1 to an end of s above e1.
    G = petersen()
    masks = list(G.neighbor_masks)
    asked = []
    answers = []
    nested = [0]
    real = cycles._least_tail

    def spy(neigh, cur, free, ends, short, long):
        top = not nested[0]
        if top:
            asked.append((cur, free & ((1 << len(neigh)) - 1), ends, short, long))
        nested[0] += 1
        try:
            found = real(neigh, cur, free, ends, short, long)
        finally:
            nested[0] -= 1
        if top:
            answers.append(found)
        return found

    monkeypatch.setattr(cycles, "_least_tail", spy)
    assert cycles._mask_cycle(masks, 10, 7, 7) is None
    assert asked == [ask for _, ask in first_step_asks(G, 4, 5, 5)]

    # Beside it, the C_7 10-13-11-15-12-16-14 with the chord 10-11.  The
    # helper is asked once per first step, the Petersen ones and then
    # (10, 11), which reaches no end, and (10, 13), whose least tail is
    # the cycle: the kernel returns it and walks no first step again.
    ring = [10, 13, 11, 15, 12, 16, 14]
    H = build_graph(17, [*G.sorted_edges, (10, 11),
                         *zip(ring, ring[1:] + ring[:1])])
    hmasks = list(H.neighbor_masks)
    asked.clear()
    answers.clear()
    found = cycles._mask_cycle(hmasks, 17, 7, 7)
    assert asked == [ask for _, ask in first_step_asks(H, 11, 5, 5)]  # s = 10: 11, 13
    assert answers[:-1] == [None] * (len(asked) - 1)
    assert found == [10, 13] + answers[-1] == ring
    assert found == plain_dfs_cycle(hmasks, 17, 7, 7)

    # A range window asks the same one call per first step, with the
    # window's tail lengths, until a tail is found.  The Petersen graph
    # holds a C_9 but no C_10: [7, 10] is answered at the first step,
    # and [10, 16] asks every first step of every start in vain.
    for graph, gmasks in ((G, masks), (H, hmasks)):
        v = graph.vertex_count
        for lo, hi, size in ((7, 10, 9), (10, 16, None)):
            asked.clear()
            answers.clear()
            found = cycles._mask_cycle(gmasks, v, lo, hi)
            want = first_step_asks(graph, v - lo + 1, lo - 2, hi - 2)
            if found is None:
                assert size is None and answers == [None] * len(want)
            else:
                assert len(found) == size
                want = want[: len(asked)]
                s, (e1, *_) = want[-1]
                assert found == [s, e1, *answers[-1]]
            assert asked == [ask for _, ask in want]
            assert answers[:-1] == [None] * (len(asked) - 1)
            assert found == plain_dfs_cycle(gmasks, v, lo, hi)


@st.composite
def split_colorings(draw, max_vertices: int = 9, max_colors: int = 3):
    """A coloring of a random graph whose edges stay inside up to three
    random vertex blocks, so every color class splits into components."""
    v = draw(st.integers(min_value=1, max_value=max_vertices))
    block = draw(st.lists(st.integers(0, 2), min_size=v, max_size=v))
    pairs = [(a, b) for a, b in itertools.combinations(range(v), 2)
             if block[a] == block[b]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = build_graph(v, [p for p, kept in zip(pairs, keep) if kept])
    k = draw(st.integers(min_value=1, max_value=max_colors))
    colors = draw(st.lists(st.integers(1, k), min_size=G.edge_count,
                           max_size=G.edge_count))
    return EdgeColoring(G, k, tuple(colors))


@given(split_colorings(), st.integers(3, 7))
@settings(max_examples=200)
def test_checker_witness_is_the_least_cycle_of_the_first_class(col, n):
    # The checker's witness is the kernel's least C_n of the first color
    # class that holds one, for odd and even n alike, and its component
    # is the scan row of the cycle's first vertex.
    witness = verify_mono_cycle_free(col, n)
    for i in range(1, col.color_count + 1):
        Gi = color_class(col, i)
        cert = contains_cycle_of_length(Gi, n)
        if cert is not None:
            break
    else:
        assert witness is True
        return
    assert (witness.color, witness.cycle) == (i, cert)
    rep = components(Gi)
    assert witness.component == rep.components[rep.component_id[cert.vertices[0]]].vertices


def test_checker_witness_ignores_the_component_order():
    # Component (0, 5..10) comes first in the scan and holds the C_6
    # 5..10, but the class's least C_6 runs from vertex 1 in the other
    # component, and that is the witness.
    ring = [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (5, 10)]
    other = [(1, 2), (2, 3), (3, 4), (4, 11), (11, 12), (1, 12)]
    col = constant_coloring(build_graph(13, [(0, 5), *ring, *other]))
    witness = verify_mono_cycle_free(col, 6)
    assert witness.color == 1
    assert witness.cycle.vertices == (1, 2, 3, 4, 11, 12)
    assert witness.component == (1, 2, 3, 4, 11, 12)


def brute_path_ends(G, length: int) -> set[tuple[int, int]]:
    """Every ordered (a, b) joined by a simple path of exactly `length`
    edges, from the permutations of its length - 1 interior vertices."""
    v = G.vertex_count
    ends = set()
    for inner in itertools.permutations(range(v), length - 1):
        if not all(G.has_edge(p, q) for p, q in zip(inner, inner[1:])):
            continue
        rest = [w for w in range(v) if w not in inner]
        for a, b in itertools.permutations(rest, 2):
            if (G.has_edge(a, b) if not inner else
                    G.has_edge(a, inner[0]) and G.has_edge(inner[-1], b)):
                ends.add((a, b))
    return ends


@given(sparse_graphs(2, 9), st.integers(2, 8))
@settings(max_examples=200, deadline=None)
def test_closure_test_matches_path_oracle(G, length):
    # The search's closure test against brute force on every ordered
    # pair a != b, at lengths with no DFS level (2, 3) and with several.
    masks = list(G.neighbor_masks)
    ends = brute_path_ends(G, length)
    for a, b in itertools.permutations(range(G.vertex_count), 2):
        assert _closes(masks, a, b, length) == ((a, b) in ends), (a, b)


def brute_least_tails(G, cur: int, free: set[int], ends: set[int], longest: int):
    """For each t = 1..longest, the least tail [w_1..w_t] of a simple
    path cur, w_1..w_t inside `free` with w_t in `ends`, or None: the
    first hit among the permutations of t free vertices, which come in
    lexicographic order."""
    least = dict.fromkeys(range(1, longest + 1))
    for t in least:
        for walk in itertools.permutations(sorted(free), t):
            if walk[-1] in ends and all(
                G.has_edge(p, q) for p, q in zip((cur,) + walk, walk)
            ):
                least[t] = list(walk)
                break
    return least


@given(st.one_of(sparse_graphs(2, 8), graphs(2, 8)), st.data())
@settings(max_examples=150, deadline=None)
def test_least_tail_matches_path_oracle(G, data):
    # The one path helper of the kernel and the closure test, against
    # brute force over every window 1 <= short <= long <= 5: the least
    # tail of the window, where a list sorts before every longer list it
    # is a prefix of, or None.  cur lies outside `free`, the ends may
    # hold cur or vertices that are not free, and `free` is given as a
    # finite mask or, as its callers build it, as one with every bit
    # above the graph set.
    v = G.vertex_count
    masks = list(G.neighbor_masks)
    cur = data.draw(st.integers(0, v - 1))
    others = [w for w in range(v) if w != cur]
    free = set(data.draw(st.lists(st.sampled_from(others), unique=True)))
    ends = set(data.draw(st.lists(st.integers(0, v - 1), unique=True)))
    free_mask = sum(1 << w for w in free)
    if data.draw(st.booleans()):
        free_mask |= -1 << v
    ends_mask = sum(1 << w for w in ends)
    least = brute_least_tails(G, cur, free, ends, 5)
    for long in range(1, 6):
        for short in range(1, long + 1):
            found = [least[t] for t in range(short, long + 1) if least[t]]
            want = min(found) if found else None
            got = _least_tail(masks, cur, free_mask, ends_mask, short, long)
            assert got == want, (short, long)


def test_cycles_at_the_vertex_cap():
    # A window as long as the graph walks one vertex per helper level,
    # about _MAX_ORDER frames deep, for the exact window and for the
    # range windows of `longest_cycle` with and without `stop_at`.
    ring = cycle_graph(_MAX_ORDER)
    whole = tuple(range(_MAX_ORDER))
    assert contains_cycle_of_length(ring, _MAX_ORDER).vertices == whole
    assert longest_cycle(ring).vertices == whole
    assert longest_cycle(ring, stop_at=_MAX_ORDER - 10).vertices == whole


# --------------------------------------------------------------------------
# Erdős–Gallai sweep


def test_sweep_small_orders_clean():
    for v in (1, 2, 3, 4, 5):
        rep = erdos_gallai_sweep(v)
        assert rep.ok
        assert rep.violation_count == 0
        assert rep.graphs_enumerated == 1 << (v * (v - 1) // 2)


@pytest.mark.parametrize(
    "v,checked,searches",
    [
        (1, 0, 0), (2, 0, 0), (3, 1, 1), (4, 22, 7), (5, 638, 37), (6, 27824, 246),
        pytest.param(7, 2014992, 4285, marks=pytest.mark.slow),
    ],
)
def test_sweep_checked_count(v, checked, searches):
    # thresholds on 4 vertices: length 3 needs 4 edges, length 4 needs 5.
    # Graphs on >= 4 of the 6 possible edges: C(6,4)+C(6,5)+C(6,6) = 22.
    # Most checked graphs contain a cycle found earlier, so the kernel
    # runs far less often than once per checked graph.
    rep = erdos_gallai_sweep(v)
    assert (rep.graphs_checked, rep.cycle_searches) == (checked, searches)


def _sweep_by_fresh_search(v, lengths):
    """Reference sweep: the same Gray-code walk in natural labels, with
    one kernel call on every checked graph."""
    lengths = tuple(range(3, v + 1)) if lengths is None else lengths
    edges = list(itertools.combinations(range(v), 2))
    binding = [
        max([n for n in lengths if e >= cycles.eg_threshold(n, v)], default=0)
        for e in range(len(edges) + 1)
    ]
    neigh = [0] * v
    checked = count = 0
    kept = []
    for i in range(1, 1 << len(edges)):
        a, b = edges[(i & -i).bit_length() - 1]
        neigh[a] ^= 1 << b
        neigh[b] ^= 1 << a
        graph = i ^ (i >> 1)
        n = binding[graph.bit_count()]
        if n == 0:
            continue
        checked += 1
        if cycles._mask_cycle(neigh, v, n, v) is None:
            count += 1
            if len(kept) < 20:
                edge_list = tuple(e for j, e in enumerate(edges) if graph >> j & 1)
                kept.append((n, edge_list))
    total = 1 << len(edges)
    return cycles.SweepReport(v, lengths, total, checked, count, tuple(kept), checked)


@pytest.mark.parametrize("lengths", [None, (4,), (3, 6)], ids=["all", "4", "3-6"])
@pytest.mark.parametrize("v", [3, 4, 5, 6])
def test_sweep_matches_fresh_search_below_threshold(monkeypatch, v, lengths):
    # One below the real thresholds, graphs without a long enough cycle
    # get checked, so a kept cycle that outlived one of its edges would
    # hide a violation; the real thresholds never show one.
    real = cycles.eg_threshold
    monkeypatch.setattr(cycles, "eg_threshold", lambda n, v: max(1, real(n, v) - 1))
    want = _sweep_by_fresh_search(v, lengths)
    rep = erdos_gallai_sweep(v, lengths)
    assert replace(rep, cycle_searches=want.cycle_searches) == want
    assert rep.cycle_searches <= want.cycle_searches
    assert rep.violation_count > 0


@pytest.mark.parametrize("lowered", [False, True], ids=["real", "lowered"])
@pytest.mark.parametrize("v", [3, 4, 5, 6])
def test_sweep_matches_fresh_search_at_every_lane_width(monkeypatch, v, lowered):
    # Lane widths 0..ne: one graph per block, partial lanes with many odd
    # blocks (walked from their highest slot down), and one block for all.
    if lowered:
        real = cycles.eg_threshold
        monkeypatch.setattr(cycles, "eg_threshold", lambda n, v: max(1, real(n, v) - 1))
    for lengths in (None, (4,), (3, 6)):
        want = _sweep_by_fresh_search(v, lengths)
        for lane in range(v * (v - 1) // 2 + 1):
            monkeypatch.setattr(cycles, "_SWEEP_LANE", lane)
            rep = erdos_gallai_sweep(v, lengths)
            assert replace(rep, cycle_searches=want.cycle_searches) == want, (lengths, lane)


@pytest.mark.parametrize(
    "v", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)]
)
def test_sweep_checked_count_matches_binomial_oracle(v):
    # Independent of the walk: a graph is checked iff its edge count
    # meets the threshold of some requested length.
    ne = v * (v - 1) // 2
    for lengths in (None, (4,), (3, 6), (max(v, 3),)):
        targets = range(3, v + 1) if lengths is None else lengths
        want = sum(
            math.comb(ne, e)
            for e in range(ne + 1)
            if any(e >= eg_threshold(n, v) for n in targets)
        )
        assert erdos_gallai_sweep(v, lengths).graphs_checked == want, lengths


@pytest.mark.parametrize("lowered", [False, True], ids=["real", "lowered"])
@pytest.mark.parametrize("lengths", [None, (4,), (3, 6)], ids=["all", "4", "3-6"])
@pytest.mark.parametrize("v", [3, 4, 5, 6])
def test_sweep_kernel_sees_the_current_graph(monkeypatch, v, lengths, lowered):
    # The walk tracks only the Gray code's edge bits and brings the masks
    # up to date right before each kernel call: every call must get the
    # masks of the graph the walk is on, in the sweep's reversed labels
    # (vertex x stored as v-1-x).
    if lowered:
        real = cycles.eg_threshold
        monkeypatch.setattr(cycles, "eg_threshold", lambda n, v: max(1, real(n, v) - 1))
    edges = list(itertools.combinations(range(v), 2))
    kernel = cycles._mask_cycle
    seen = []

    def checked_kernel(neigh, nverts, lo, hi):
        graph = sys._getframe(1).f_locals["graph"]
        want = [0] * v
        for j, (a, b) in enumerate(edges):
            if graph >> j & 1:
                want[v - 1 - a] |= 1 << (v - 1 - b)
                want[v - 1 - b] |= 1 << (v - 1 - a)
        assert neigh == want, (graph, neigh, want)
        seen.append(graph)
        return kernel(neigh, nverts, lo, hi)

    monkeypatch.setattr(cycles, "_mask_cycle", checked_kernel)
    rep = erdos_gallai_sweep(v, lengths)
    assert len(seen) == rep.cycle_searches


def test_sweep_respects_length_subset():
    rep = erdos_gallai_sweep(5, lengths=[4])
    assert rep.lengths == (4,)
    assert rep.ok


def test_sweep_memory_does_not_grow_with_an_unreachable_length():
    # no graph on 4 vertices can meet the threshold of a C_1000000
    tracemalloc.start()
    try:
        rep = erdos_gallai_sweep(4, lengths=[10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.ok and rep.lengths == (10**6,) and rep.graphs_checked == 0


def test_sweep_rejects_bad_params():
    with pytest.raises(TargetTooLarge):
        erdos_gallai_sweep(9)
    with pytest.raises(ParamOutOfRange):
        erdos_gallai_sweep(0)
    with pytest.raises(CycleTooShort):
        erdos_gallai_sweep(5, lengths=[2])


def test_sweep_rejects_an_empty_length_list():
    # an explicit empty list would check no graph and read as clean
    with pytest.raises(ParamOutOfRange):
        erdos_gallai_sweep(5, lengths=[])
    assert erdos_gallai_sweep(2).lengths == ()  # the default 3..v may be empty


def _sweep_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "erdos_gallai_sweep.py"
    spec = importlib.util.spec_from_file_location("erdos_gallai_sweep_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-vertices", "9"], ["--max-vertices", "0"], ["--lengths", "4", "2"],
        ["--lengths"],
    ],
)
def test_sweep_script_rejects_bad_args_before_sweeping(monkeypatch, argv):
    script = _sweep_script()

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(script, "erdos_gallai_sweep", no_sweep)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-vertices", "5"],
        ["--max-vertices", "5", "--lengths", "4"],
        # a length no graph can bind is passed straight to the sweep
        ["--max-vertices", "5", "--lengths", "4", "1000000"],
    ],
)
def test_sweep_script_reports_a_clean_sweep(capsys, argv):
    assert _sweep_script().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "sweep clean"
    orders = [line.split()[2] for line in lines if line.startswith("eg-sweep v ")]
    timed = [line for line in lines if line.startswith("elapsed ")]
    assert orders == ["1", "2", "3", "4", "5"]
    assert len(timed) == 5
    for line in timed:
        assert re.fullmatch(r"elapsed \d+\.\d{3}s cycle-searches \d+ checked/s [\d,]+", line)
