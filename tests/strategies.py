"""Shared hypothesis strategies and brute-force oracles for the test suite.

The oracles here are deliberately naive (subset / permutation / edge-subset
enumeration).  They are slow but obviously correct, which is the point:
every clever algorithm in the package is checked against one of these on
small instances.
"""

from __future__ import annotations

import itertools
from collections import deque

from hypothesis import strategies as st

from cycle_ramsey import EdgeColoring, Graph, build_graph, complete_graph, normalize_edge
from cycle_ramsey import graphs as graph_module
from cycle_ramsey.search import _orbit_closure


def all_pairs(v: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(v), 2))


# --------------------------------------------------------------------------
# small builders
# --------------------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    """The cycle 0, 1, .., n-1, built by the checked `Graph(v, edges)`."""
    return Graph(n, [normalize_edge(i, (i + 1) % n) for i in range(n)])


def constant_coloring(base: Graph, color_count: int = 1, color: int = 1) -> EdgeColoring:
    """Every edge of `base` in `color`, out of `color_count` colours."""
    return EdgeColoring(base, color_count, (color,) * base.edge_count)


def induced_coloring(col: EdgeColoring, W) -> tuple[EdgeColoring, tuple[int, ...]]:
    """`col` on the subgraph induced on W, relabelled as
    `induced_subgraph` relabels it; `col` itself when W covers every
    vertex.  Both helpers are looked up on `graphs` at each call, so a
    spy patched in there sees this slice too."""
    sub, kept = graph_module.induced_subgraph(col.base, W)
    return graph_module._coloring_on_slice(col, sub, kept), kept


def edge_pairs(G: Graph) -> set[tuple[int, int]]:
    """Every edge of G in both orientations, read off `sorted_edges`, so
    an oracle that asks it about adjacency never reads the masks."""
    pairs = set(G.sorted_edges)
    pairs.update((v, u) for u, v in G.sorted_edges)
    return pairs


@st.composite
def graphs(draw, min_vertices: int = 0, max_vertices: int = 10):
    """An arbitrary simple graph; edge subsets drawn as a bitmask so
    shrinking moves toward the empty graph."""
    v = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = all_pairs(v)
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return build_graph(v, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def sparse_graphs(draw, min_vertices: int = 2, max_vertices: int = 9):
    """A graph with up to 2v edges, so that sparse graphs (pendant paths,
    vertices with one neighbour above them) come up as often as dense.
    The edge count is drawn first, uniformly up to that cap: a list
    drawn with only a maximum size would stay far below it."""
    v = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = all_pairs(v)
    size = draw(st.integers(min_value=0, max_value=min(2 * v, len(pairs))))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=size, max_size=size, unique=True))
    return build_graph(v, edges)


@st.composite
def graphs_of_density(draw, min_vertices: int = 8, max_vertices: int = 12):
    """A graph whose edge density is drawn first, from nearly empty to
    nearly complete; each pair is then kept with that chance.  Unlike
    `graphs`, whose bitmasks shrink toward few edges, this reaches dense
    and sparse graphs on a dozen vertices alike."""
    v = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    percent = draw(st.integers(min_value=5, max_value=95))
    pairs = all_pairs(v)
    rolls = draw(st.lists(st.integers(0, 99), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(v, [p for p, roll in zip(pairs, rolls) if roll < percent])


@st.composite
def colorings(
    draw,
    min_vertices: int = 1,
    max_vertices: int = 8,
    max_colors: int = 3,
    complete: bool = False,
):
    """A k-edge-coloring of a random (or complete) host graph."""
    if complete:
        v = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
        base = complete_graph(v)
    else:
        base = draw(graphs(min_vertices=min_vertices, max_vertices=max_vertices))
    k = draw(st.integers(min_value=1, max_value=max_colors))
    m = base.edge_count
    colors = draw(
        st.lists(st.integers(min_value=1, max_value=k), min_size=m, max_size=m)
    )
    return EdgeColoring(base, k, tuple(colors))


@st.composite
def symmetric_strings(draw, max_order: int = 9, max_colors: int = 3):
    """(k, m, string): the colex string of a k-coloring of K_m with a large
    automorphism group, colors numbered by first appearance: a circulant
    (the color of uv depends only on v - u mod m, up to sign), a blow-up
    of a coloring of K_b, b <= 3, on consecutive blocks with one color
    inside each block, or a coloring with at most three edges off color
    1.  The vertices are then relabelled at random or by at most two
    transpositions; the latter keep a string near its least one, so a
    smaller string, if any, lies deep in the canonicity test's search."""
    k = draw(st.integers(1, max_colors))
    m = draw(st.integers(3, max_order))
    colors = st.integers(1, k)
    family = draw(st.sampled_from(["circulant", "blow-up", "nearly monochromatic"]))
    if family == "circulant":
        by_gap = draw(st.lists(colors, min_size=m // 2 + 1, max_size=m // 2 + 1))
        color = {(u, v): by_gap[min(v - u, m - v + u)] for u, v in all_pairs(m)}
    elif family == "blow-up":
        b = draw(st.integers(1, 3))
        cuts = sorted(draw(st.lists(st.integers(0, m), min_size=b - 1, max_size=b - 1)))
        block = [sum(v >= c for c in cuts) for v in range(m)]
        inner = draw(st.lists(colors, min_size=b, max_size=b))
        cross = draw(st.lists(colors, min_size=3, max_size=3))  # blocks 01, 02, 12
        color = {
            (u, v): inner[block[u]] if block[u] == block[v]
            else cross[block[u] + block[v] - 1]
            for u, v in all_pairs(m)
        }
    else:
        color = dict.fromkeys(all_pairs(m), 1)
        off = draw(st.lists(st.sampled_from(all_pairs(m)), max_size=3, unique=True))
        for e in off:
            color[e] = draw(colors)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(m)))
    else:
        perm = list(range(m))
        for _ in range(draw(st.integers(0, 2))):
            pair = st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)
            a, b = draw(pair)
            perm[a], perm[b] = perm[b], perm[a]
    names: dict[int, int] = {}
    string = tuple(
        names.setdefault(color[min(x, y), max(x, y)], len(names) + 1)
        for x, y in ((perm[u], perm[v]) for v in range(m) for u in range(v))
    )
    return k, m, string


# --------------------------------------------------------------------------
# brute-force oracles
# --------------------------------------------------------------------------


def brute_matching_number(G: Graph) -> int:
    """Maximum matching size by exhaustive branch over the edge list."""
    edges = G.sorted_edges
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + (len(edges) - i) <= best:
            return
        for j in range(i, len(edges)):
            u, v = edges[j]
            if not (used >> u & 1) and not (used >> v & 1):
                rec(j + 1, used | 1 << u | 1 << v, size + 1)

    rec(0, 0, 0)
    return best


def brute_cycle_lengths(G: Graph) -> set[int]:
    """Every length n for which G contains a cycle C_n, by trying all
    vertex subsets and all cyclic orders.  Only sane for <= 8 vertices."""
    found: set[int] = set()
    adjacent = edge_pairs(G)
    verts = range(G.vertex_count)
    for n in range(3, G.vertex_count + 1):
        hit = False
        for sub in itertools.combinations(verts, n):
            first, rest = sub[0], sub[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # each cycle counted in one direction only
                cyc = (first,) + perm
                if all((cyc[i], cyc[(i + 1) % n]) in adjacent for i in range(n)):
                    hit = True
                    break
            if hit:
                break
        if hit:
            found.add(n)
    return found


def plain_dfs_cycle(neigh: list[int], nverts: int, lo: int, hi: int) -> list[int] | None:
    """The first cycle with lo <= length <= hi by a DFS with no cuts:
    start vertices ascending, only vertices >= the start, neighbours
    ascending, every path grown until it closes or reaches length hi.
    This is the lexicographically least min-vertex-first qualifying
    cycle, the cycle kernel's contract, on graphs too large for
    `brute_cycle_lengths`.  The empty window hi < lo holds no cycle, so
    it is None at once, as the kernel's contract has it, rather than
    after walking every path that could never close."""
    if hi < lo:
        return None
    for s in range(nverts - lo + 1):
        start = 1 << s
        above = -start
        path = [s]
        visited = start
        stack = [neigh[s] & above & ~start]
        while stack:
            cand = stack[-1]
            if not cand:
                stack.pop()
                visited ^= 1 << path.pop()
                continue
            low = cand & -cand
            stack[-1] = cand ^ low
            w = low.bit_length() - 1
            path.append(w)
            depth = len(path)
            if depth >= lo and neigh[w] & start:
                return path
            if depth == hi:
                path.pop()
                continue
            visited |= low
            stack.append(neigh[w] & above & ~visited)
    return None


def brute_is_bipartite(G: Graph) -> bool:
    """Two-colorability by propagating sides per component, asking the
    edge list about every vertex pair."""
    adjacent = edge_pairs(G)
    color = [-1] * G.vertex_count
    for root in range(G.vertex_count):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for w in range(G.vertex_count):
                if (u, w) not in adjacent:
                    continue
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def reference_scan(G: Graph) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The component scan in its plain two-loop form, for comparison with
    `cycles._scan`: neighbour lists from `G.sorted_edges`, a deque BFS per
    component, then a second walk in BFS order for the first edge xy,
    y > x ascending, whose ends have the same depth parity.  Returns the
    component ids and, per component, (vertices, is_bipartite, parts,
    odd-cycle vertex sequence or None)."""
    n = G.vertex_count
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in G.sorted_edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    comp_id = [-1] * n
    rows: list[tuple] = []
    for root in range(n):
        if comp_id[root] != -1:
            continue
        cid = len(rows)
        parent = {root: -1}
        depth = {root: 0}
        order = [root]
        comp_id[root] = cid
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    comp_id[y] = cid
                    order.append(y)
                    queue.append(y)
        odd_cycle = None
        for x in order:
            for y in adjacency[x]:
                if y > x and depth[x] % 2 == depth[y] % 2:
                    # tree paths from x and y up to their lowest common
                    # ancestor, joined with the ancestor listed once
                    up_x, up_y = [x], [y]
                    while up_x[-1] != up_y[-1]:
                        a, b = up_x[-1], up_y[-1]
                        if depth[a] >= depth[b]:
                            up_x.append(parent[a])
                        if depth[b] >= depth[a]:
                            up_y.append(parent[b])
                    odd_cycle = tuple(up_x + up_y[-2::-1])
                    break
            if odd_cycle is not None:
                break
        verts = tuple(sorted(order))
        if odd_cycle is None:
            side_a = tuple(v for v in verts if depth[v] % 2 == 0)
            side_b = tuple(v for v in verts if depth[v] % 2 == 1)
            rows.append((verts, True, (side_a, side_b), None))
        else:
            rows.append((verts, False, None, odd_cycle))
    return tuple(comp_id), tuple(rows)


def reference_canonical(neigh: list[list[int]], m: int, path) -> bool:
    """The orderly canonicity test without the return to the first label
    an automorphism moves, for comparison with `search._canonical` (same
    arguments and answer): every tie leaf returns to its parent, and only
    the orbit prune skips candidates."""
    k = len(neigh)
    full = (1 << m) - 1
    sigma: list[int] = []
    autos: list[tuple[list[int], int]] = []
    bases = [j * (j - 1) // 2 for j in range(m)]
    tables: dict[tuple[int, ...], tuple[list, list]] = {}

    def table(named: tuple[int, ...]) -> tuple[list, list]:
        if named in tables:
            return tables[named]
        eq = [None] + [neigh[c] for c in named]
        lt = [None, [0] * m] + eq[1:2]
        for row in eq[2:]:
            lt.append([x | y for x, y in zip(lt[-1], row)])
        tables[named] = eq, lt
        return eq, lt

    def smaller(j, a, cand, used, named, eq, lt) -> bool:
        base = bases[j]
        nnamed = len(named)
        while a < j:
            s = sigma[a]
            t = path[base + a]
            if cand & lt[t][s]:
                return True
            if t <= nnamed:
                cand &= eq[t][s]
                if not cand:
                    return False
                a += 1
                continue
            for c in range(k):
                sub = cand & neigh[c][s]
                if sub and c not in named:
                    more = named + (c,)
                    if smaller(j, a + 1, sub, used, more, *table(more)):
                        return True
            return False
        if j + 1 == m:
            g = sigma + [cand.bit_length() - 1]
            fixed = sum(1 << x for x in range(m) if g[x] == x)
            if fixed != full:
                autos.append((g, fixed))
            return False
        gens: list[list[int]] = []
        known = seen = 0
        while cand:
            b = cand & -cand
            cand ^= b
            if seen & b:
                continue
            sigma.append(b.bit_length() - 1)
            found = smaller(j + 1, 0, full & ~(used | b), used | b, named, eq, lt)
            sigma.pop()
            if found:
                return True
            if not cand:
                return False
            todo = b
            if len(autos) > known:
                gens += [g for g, fixed in autos[known:] if not used & ~fixed]
                known = len(autos)
                todo |= seen
            seen = _orbit_closure(seen | b, todo, gens) if gens else seen | b
        return False

    return not smaller(0, 0, full, 0, (), *table(()))
