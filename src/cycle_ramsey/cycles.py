"""Structural oracles: components, bipartiteness, cycles, and the
Erdős–Gallai threshold.

`components` finds each component's bipartition or odd cycle by one
BFS scan per graph, which every later call shares.  A component's
maximum matching is computed on the first read of its `matching`, once
per graph, so callers that need only the structure run no blossom.

Everything here is exact, and all bitmask cycle code lives here, over
per-vertex neighbour masks, for graphs of a few dozen vertices.  One
kernel, `_mask_cycle`, finds cycles: it returns the first cycle with
length in [lo, hi] with start vertex s ascending, only vertices >= s,
neighbours ascending.  That is the lexicographically least qualifying
cycle listed from its minimum vertex, and it is the certificate
contract: `contains_cycle_of_length`, `longest_cycle` and the sweep wrap
the kernel, so every returned cycle (hence every witness and hunt
trajectory) depends on the graph alone.  The kernel cuts three kinds of
branch, each holding no qualifying cycle, so the least cycle is still
the first one found.  A cycle whose minimum vertex is s leaves s and
returns to it through two distinct neighbours of s above s (its
`ends`).  So a start with fewer than two such neighbours is skipped,
and a path is cut once all of them lie on it.  At length hi - 1 the
only children left are closing ones, and the least is the lowest unused
end next to the path's last vertex, one intersection.  The kernel
assumes symmetric, loop-free masks, as every caller builds them: the
ends are read from s's own mask.  `_mask_component_cycle` adds
the component rule of `verify_mono_cycle_free` for one colour class:
components ordered by smallest vertex, the first one that holds a C_n,
and the kernel's cycle within it.  The randomized hunt uses it on its
incremental per-colour masks, so it recolours exactly the cycle the
checker would report.  One narrower test stays separate from the
kernel: the search's closure test `_closes(neigh, a, b, length)` asks
whether a simple a..b path of exactly `length` edges exists, which is
whether colouring the edge ab closes a C_(length+1).  One rule serves
every length >= 3: a DFS from a places the first length - 3 interior
vertices, and the last two, x and y, come from intersecting masks, with
y a neighbour of b and x a common neighbour of y and the DFS's last
vertex, both unused.  Length 2 is the one intersection of a's and b's
masks.  The test assumes symmetric, loop-free masks and a != b, which
the search guarantees.

The Erdős–Gallai sweep uses no theorem to skip a graph.  It accepts a
checked graph only when a mask test shows that the graph holds every
edge of a cycle of length >= n that the kernel found on an earlier
graph.  A block of Gray-code steps is skipped only when it cannot
toggle any edge of such a cycle (or holds no graph that meets a
threshold), so every graph in it is accepted by the same test.  Every
violation is decided by the kernel on the current graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import comb

from .certificates import CycleCertificate, MatchingCertificate
from .errors import CycleTooShort, ParamOutOfRange, TargetTooLarge
from .graphs import Edge, Graph, induced_subgraph
from .matching import max_matching


def eg_threshold(n: int, v: int) -> int:
    """Smallest edge count that forces a cycle of length >= n on v vertices.

    The real-valued bound (n-1)(v-1)/2 + 1 becomes floor((n-1)(v-1)/2) + 1,
    the least integer strictly exceeding (n-1)(v-1)/2.
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if v < 1:
        raise ParamOutOfRange(f"vertex count {v} < 1")
    return (n - 1) * (v - 1) // 2 + 1


# ---------------------------------------------------------------------------
# Components and bipartiteness


@dataclass(frozen=True)
class ComponentInfo:
    """One connected component, with its bipartite structure if any.

    `parts` is a bipartition (A, B) with the component's smallest vertex
    in A, or None for non-bipartite components; `odd_cycle` certifies
    non-bipartiteness when the flag is False.  `graph` is the graph the
    component came from; `matching` is computed from it on the first
    read through any report of that graph.
    """

    vertices: tuple[int, ...]
    is_bipartite: bool
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: CycleCertificate | None
    graph: Graph = field(compare=False, repr=False)

    @property
    def matching(self) -> MatchingCertificate:
        """A maximum matching of the component, in the host graph's labels."""
        found = self.graph.__dict__.setdefault(_MATCHINGS, {})
        m = found.get(self.vertices[0])
        if m is None:
            sub, kept = induced_subgraph(self.graph, self.vertices)
            # kept is ascending, so lifted edges stay normalized (u < v)
            m = found[self.vertices[0]] = MatchingCertificate(
                frozenset((kept[a], kept[b]) for a, b in max_matching(sub).edges)
            )
        return m

    @property
    def matching_size(self) -> int:
        return self.matching.size


@dataclass(frozen=True)
class ComponentReport:
    """Connectivity decomposition of a graph.

    `component_id[v]` indexes into `components`; ids follow discovery
    order from the smallest vertex, so component 0 contains vertex 0.
    """

    component_id: tuple[int, ...]
    components: tuple[ComponentInfo, ...]


# Per-graph slots in `Graph.__dict__`, beside its cached views: the scan
# rows and the matchings by smallest vertex.  Neither refers back to the
# graph, so they tie no reference cycle; only the `ComponentInfo`
# wrappers, made per call, hold the graph.
_SCAN = "_component_scan"
_MATCHINGS = "_component_matchings"


def _odd_cycle_from_conflict(
    parent: dict[int, int], depth: dict[int, int], u: int, v: int
) -> CycleCertificate:
    """Close the BFS-tree paths of a same-parity edge (u, v) into an odd cycle."""
    up_u, up_v = [u], [v]
    a, b = u, v
    while depth[a] > depth[b]:
        a = parent[a]
        up_u.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        up_v.append(b)
    while a != b:
        a = parent[a]
        up_u.append(a)
        b = parent[b]
        up_v.append(b)
    # up_u runs u..lca, up_v runs v..lca; drop the duplicate lca and
    # reverse the v side so consecutive entries stay adjacent.
    return CycleCertificate(tuple(up_u + up_v[-2::-1]))


def _scan(G: Graph) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """BFS every component of G: the component ids and, per component,
    (vertices, is_bipartite, parts, odd_cycle)."""
    n = G.vertex_count
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
            for y in G.adjacency[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    comp_id[y] = cid
                    order.append(y)
                    queue.append(y)
        odd_cycle = None
        for x in order:
            for y in G.adjacency[x]:
                if y > x and depth[x] % 2 == depth[y] % 2:
                    odd_cycle = _odd_cycle_from_conflict(parent, depth, x, y)
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


def components(G: Graph) -> ComponentReport:
    """Connected components with bipartiteness and a bipartition or
    odd-cycle witness, from one scan of G that every call shares; no
    matching is computed until one is read."""
    scan = G.__dict__.get(_SCAN)
    if scan is None:
        scan = G.__dict__[_SCAN] = _scan(G)
    comp_id, rows = scan
    return ComponentReport(comp_id, tuple(ComponentInfo(*row, G) for row in rows))


# ---------------------------------------------------------------------------
# Bitmask cycle kernels (mask-level, no Graph objects)


def _mask_cycle(neigh: list[int], nverts: int, lo: int, hi: int) -> list[int] | None:
    """The first cycle with lo <= length <= hi (lo >= 3), or None; None
    for the empty window hi = lo - 1.  Masks must be symmetric and
    loop-free.

    Iterative DFS from each start vertex s ascending, over vertices >= s
    only, neighbours ascending; paths stop growing at length hi.  The
    first closing path in this order is the lexicographically least
    min-vertex-first vertex sequence among all qualifying cycles.  Three
    cuts drop only subtrees that hold no qualifying cycle, so the first
    one found is unchanged.  A cycle leaves s and returns to it through
    two distinct members of `ends`, the neighbours of s above s: a start
    with fewer than two is skipped, and a path is not extended once
    every member of `ends` lies on it.  At length hi - 1 the children
    can only close the cycle, so the least of them that does, the lowest
    bit of the unused `ends` next to the path's last vertex, is taken by
    one intersection instead of a stack frame.
    """
    if hi < lo:
        return None
    last = hi - 1
    for s in range(nverts - lo + 1):
        start = 1 << s
        above = -start  # every vertex >= s
        ends = neigh[s] & above
        if not ends & (ends - 1):
            continue
        path = [s]
        visited = start
        stack = [ends]
        depth = 2  # the path's length once a candidate from stack[-1] joins
        while True:
            cand = stack[-1]
            if not cand:
                stack.pop()
                if not stack:
                    break
                visited ^= 1 << path.pop()
                depth -= 1
                continue
            low = cand & -cand
            stack[-1] = cand ^ low
            if depth >= lo and low & ends:
                path.append(low.bit_length() - 1)
                return path
            open_ends = ends & ~(visited | low)
            if open_ends:
                w = low.bit_length() - 1
                if depth < last:
                    visited |= low
                    path.append(w)
                    stack.append(neigh[w] & above & ~visited)
                    depth += 1
                else:
                    close = neigh[w] & open_ends
                    if close:
                        path += (w, (close & -close).bit_length() - 1)
                        return path
    return None


def _mask_component_cycle(
    neigh: list[int], nverts: int, n: int
) -> tuple[int, list[int]] | None:
    """(component mask, C_n) for the first component, by smallest vertex,
    that holds a C_n, with its lexicographically least min-vertex-first
    C_n; None if no component holds one.

    Components come from a bitmask BFS; each one with at least n
    vertices is searched by `_mask_cycle` over its own masks only.
    """
    unseen = (1 << nverts) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= neigh[low.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        if comp.bit_count() >= n:
            found = _mask_cycle([m & comp for m in neigh], nverts, n, n)
            if found is not None:
                return comp, found
    return None


def _closes(neigh: list[int], a: int, b: int, length: int) -> bool:
    """True iff the mask graph has a simple a..b path of exactly `length`
    >= 2 edges, that is, whether colouring ab closes a C_(length+1).
    Masks must be symmetric and loop-free, and a != b."""
    ends = neigh[b] & ~(1 << a)
    if not ends:
        return False
    if length == 2:
        return neigh[a] & ends != 0
    return _reaches_ends(neigh, a, ~(1 << a | 1 << b), ends, length - 3)


def _reaches_ends(neigh: list[int], cur: int, free: int, ends: int, depth: int) -> bool:
    """Is there a path cur, v_1..v_depth, x, y with every v, x and y in
    `free` and y in `ends`?  Loop-free masks keep x != y."""
    xs = neigh[cur] & free
    if depth > 1:
        while xs:
            low = xs & -xs
            xs ^= low
            if _reaches_ends(neigh, low.bit_length() - 1, free ^ low, ends, depth - 1):
                return True
        return False
    if depth:
        # the depth-0 case below, inline for each v_1: a call per v_1
        # cost the certify benchmark (C_5, C_6) 2-3% of its time
        while xs:
            low = xs & -xs
            xs ^= low
            rest = free ^ low
            ms = neigh[low.bit_length() - 1] & rest
            ys = ends & rest
            while ys:
                yl = ys & -ys
                ys ^= yl
                if neigh[yl.bit_length() - 1] & ms:
                    return True
        return False
    ys = ends & free
    while ys:
        low = ys & -ys
        ys ^= low
        if neigh[low.bit_length() - 1] & xs:
            return True
    return False


# ---------------------------------------------------------------------------
# Cycle searches on Graph objects


def contains_cycle_of_length(G: Graph, n: int) -> CycleCertificate | None:
    """A cycle on exactly n vertices, or None if there is none.

    The certificate is the lexicographically least one, listed from its
    minimum vertex (see `_mask_cycle`).
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    found = _mask_cycle(G.neighbor_masks, G.vertex_count, n, n)
    return None if found is None else CycleCertificate(tuple(found))


def longest_cycle(G: Graph, stop_at: int | None = None) -> CycleCertificate | None:
    """A longest cycle of G, or None if G is a forest.

    With `stop_at` set, returns the lexicographically least cycle of
    length at least `stop_at` (not necessarily a longest one), which is
    the fast path the Erdős–Gallai checks use; without one, or when no
    such cycle exists, the lexicographically least longest cycle.
    Exhaustive, intended for graphs up to ~20 vertices.
    """
    if stop_at is not None and stop_at < 3:
        raise CycleTooShort(f"cycle length {stop_at} < 3")
    nv = G.vertex_count
    masks = G.neighbor_masks
    found = None if stop_at is None else _mask_cycle(masks, nv, stop_at, nv)
    if found is None:
        lo = 3
        while (longer := _mask_cycle(masks, nv, lo, nv)) is not None:
            found, lo = longer, len(longer) + 1
    return None if found is None else CycleCertificate(tuple(found))


# ---------------------------------------------------------------------------
# Exhaustive Erdős–Gallai verification


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive Erdős–Gallai sweep on one vertex count.

    A violation is a labeled graph whose edge count meets the threshold
    for some target length yet has no cycle that long; `violations`
    keeps at most the first few offending (length, edge list) pairs
    while `violation_count` is the full tally (expected: zero).
    `cycle_searches` counts the kernel calls the sweep made.
    """

    vertex_count: int
    lengths: tuple[int, ...]
    graphs_enumerated: int
    graphs_checked: int
    violation_count: int
    violations: tuple[tuple[int, tuple[Edge, ...]], ...]
    cycle_searches: int

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


_SWEEP_MAX_VERTICES = 8
_SWEEP_KEEP_VIOLATIONS = 20


def erdos_gallai_sweep(vertex_count: int, lengths=None) -> SweepReport:
    """Check the Erdős–Gallai implication on every labeled graph with
    `vertex_count` vertices.

    For each graph G and each target n in `lengths` (default 3..v):
    e(G) >= eg_threshold(n, v) must imply a cycle of length >= n.  Only
    the largest applicable n is searched per graph — a cycle that long
    witnesses every smaller target too.  Enumeration walks a Gray code
    over edge subsets so each step toggles one adjacency bit.  The sweep
    keeps a pool: the last cycle the kernel found of each length, as a
    mask over the Gray code's edge bits.  A checked graph needs no
    search when a pool cycle of length >= n lies inside it, one mask
    test per cycle; at v = 7 the kernel runs 77,948 times for 2,014,992
    checked graphs.  After a step with t >= 2 trailing zeros, the next
    2^t - 1 steps toggle only the t lowest edge bits.  If a pool cycle
    on the fixed higher bits is long enough for the block's densest
    graph, or that graph meets no threshold, the block is skipped: its
    checked graphs are counted from a binomial table and one toggle of
    edge t - 1 lands on its last graph.  The masks store vertex x as
    v-1-x, so the kernel's least cycle runs through high-index edges,
    which the Gray code toggles rarely; natural labels need 210,741
    searches at v = 7.
    """
    v = vertex_count
    if v < 1:
        raise ParamOutOfRange(f"vertex count {v} < 1")
    if v > _SWEEP_MAX_VERTICES:
        raise TargetTooLarge(
            f"sweep on {v} vertices means 2^{v * (v - 1) // 2} graphs; "
            f"capped at {_SWEEP_MAX_VERTICES}"
        )
    if lengths is None:
        lengths = range(3, v + 1)
    lengths = tuple(sorted(set(lengths)))
    for n in lengths:
        if n < 3:
            raise CycleTooShort(f"cycle length {n} < 3")

    edges = [(a, b) for a in range(v) for b in range(a + 1, v)]
    ne = len(edges)
    # binding[e] = largest target whose threshold e meets (0 if none):
    # one cycle search per graph covers all smaller targets.
    binding = [0] * (ne + 1)
    for e in range(ne + 1):
        for n in lengths:
            if e >= eg_threshold(n, v):
                binding[e] = max(binding[e], n)
    # block_checked[h][t]: checked graphs among the 2^t - 1 steps after a
    # step with t trailing zeros whose graph has h edges on bits >= t.
    # Those steps visit every t-bit low pattern but 1 << (t-1), the one
    # the step itself left.
    block_checked = [
        [
            sum(comb(t, k) for k in range(t + 1) if binding[h + k])
            - (t > 0 and binding[h + 1] > 0)
            for t in range(ne + 1 - h)
        ]
        for h in range(ne + 1)
    ]

    flips = []  # per edge bit: its reversed labels p, q and their masks
    edge_bit = {}
    for j, (a, b) in enumerate(edges):
        p, q = v - 1 - a, v - 1 - b
        flips.append((p, q, 1 << p, 1 << q))
        edge_bit[p, q] = edge_bit[q, p] = 1 << j
    neigh = [0] * v
    checked = searches = violation_count = 0
    kept: list[tuple[int, tuple[Edge, ...]]] = []
    # pool[L]: edge bits of the last cycle of length L the kernel found;
    # -1, which no graph contains, until one is found.
    pool = [-1] * (v + 1)
    total = 1 << ne
    # Gray code: graph after step i is i ^ (i >> 1); the flipped edge at
    # step i is the lowest set bit of i.  Step 0, the empty graph, never
    # meets a threshold (they are all >= 1).
    i = 1
    while i < total:
        low = i & -i
        t = low.bit_length() - 1
        p, q, pm, qm = flips[t]
        neigh[p] ^= qm
        neigh[q] ^= pm
        graph = i ^ (i >> 1)
        n = binding[graph.bit_count()]
        if n:
            checked += 1
            missing = ~graph
            for w in pool[n:]:
                if not w & missing:
                    break
            else:
                searches += 1
                found = _mask_cycle(neigh, v, n, v)
                if found is None:
                    violation_count += 1
                    if len(kept) < _SWEEP_KEEP_VIOLATIONS:
                        edge_list = tuple(
                            e for j, e in enumerate(edges) if graph >> j & 1
                        )
                        kept.append((n, edge_list))
                else:
                    w = edge_bit[found[-1], found[0]]
                    for x, y in zip(found, found[1:]):
                        w |= edge_bit[x, y]
                    pool[len(found)] = w
        i += 1
        if t < 2:  # a one-graph block costs as much to test as to check
            continue
        # Steps i..i + 2^t - 2 toggle only bits below t.  Skip them when
        # their densest graph meets no threshold or a pool cycle on the
        # fixed high bits is long enough for it.
        high = graph & -low
        h = high.bit_count()
        n = binding[h + t]
        if n:
            missing = ~high
            for w in pool[n:]:
                if not w & missing:
                    break
            else:
                continue
        checked += block_checked[h][t]
        # the block ends one toggle of edge t - 1 from step i's graph
        p, q, pm, qm = flips[t - 1]
        neigh[p] ^= qm
        neigh[q] ^= pm
        i += low - 1
    return SweepReport(
        v, lengths, total, checked, violation_count, tuple(kept), searches
    )
