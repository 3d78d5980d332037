"""Components, cycle searches, and the Erdős–Gallai machinery."""

from __future__ import annotations

import importlib.util
import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from cycle_ramsey import cycles
from cycle_ramsey.cycles import _closes, _mask_component_cycle

from strategies import (
    brute_cycle_lengths,
    brute_is_bipartite,
    brute_matching_number,
    graphs,
    graphs_of_density,
    plain_dfs_cycle,
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

    def no_blossom(_):
        raise AssertionError("blossom matching ran")

    monkeypatch.setattr(cycles, "max_matching", no_blossom)
    assert len(components(G).components) == 1
    assert not structural_certificate(col, 5).all_tagged
    odd = verify_mono_cycle_free(col, 5)
    assert odd.cycle.length == 5
    assert verify_mono_cycle_free(col, 6).cycle.length == 6
    assert check_decomposition(G, 5, dec).all_ok
    assert isinstance(even_engine(col, 4, 1), StructureWitness)
    assert verify_witness(col, 5, odd)


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
    # a second call shares the first scan and its matchings
    again = components(G)
    fresh = components(Graph(G.vertex_count, G.edges))
    assert again == rep == fresh
    for comp, twin, other in zip(rep.components, again.components, fresh.components):
        assert twin.matching is comp.matching
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
def test_component_cycle_matches_checker_witness(col, n):
    # The hunt's mask helper, run over the colors ascending, must name the
    # same (color, component, cycle) as the independent checker, for odd
    # and even n alike.
    v = col.base.vertex_count
    got = None
    for i in range(1, col.color_count + 1):
        found = _mask_component_cycle(list(color_class(col, i).neighbor_masks), v, n)
        if found is not None:
            comp, cycle = found
            got = (i, tuple(w for w in range(v) if comp >> w & 1), tuple(cycle))
            break
    witness = verify_mono_cycle_free(col, n)
    if witness is True:
        assert got is None
    else:
        assert got == (witness.color, witness.component, witness.cycle.vertices)


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
        (1, 0, 0), (2, 0, 0), (3, 1, 1), (4, 22, 13), (5, 638, 171), (6, 27824, 3529),
        pytest.param(7, 2014992, 77948, marks=pytest.mark.slow),
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


@pytest.mark.parametrize(
    "argv",
    [["--max-vertices", "9"], ["--max-vertices", "0"], ["--lengths", "4", "2"]],
)
def test_sweep_script_rejects_bad_args_before_sweeping(monkeypatch, argv):
    path = Path(__file__).resolve().parent.parent / "scripts" / "erdos_gallai_sweep.py"
    spec = importlib.util.spec_from_file_location("erdos_gallai_sweep_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(script, "erdos_gallai_sweep", no_sweep)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
