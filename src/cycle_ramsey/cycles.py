"""Structural oracles: components, bipartiteness, cycles, and the
Erdős–Gallai threshold.

Everything here is exact, and all bitmask cycle code lives here, over
per-vertex neighbour masks, for graphs of a few dozen vertices.  One
kernel, `_mask_cycle`, finds cycles: it returns the first cycle with
length in [lo, hi] with start vertex s ascending, only vertices >= s,
neighbours ascending.  That is the lexicographically least qualifying
cycle listed from its minimum vertex, and it is the certificate
contract: `contains_cycle_of_length`, `longest_cycle` and the sweep wrap
the kernel, so every returned cycle (hence every witness and hunt
trajectory) depends on the graph alone.  Two narrower tests stay
separate because folding them into the kernel measured slower
(perfbench, reference-normalised cost): the search's closure test
`_has_path_exact`, ~85% of search self-time, where a path-tracking
variant took `R_2(C_5) <= 9` from 7,129 to 7,709 ref (+8%); and the
n = 3 forest test `_mask_has_cycle`, which the DFS made 8–15% slower on
the v = 1..6 sweep.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .certificates import CycleCertificate
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
    non-bipartiteness when the flag is False.
    """

    vertices: tuple[int, ...]
    is_bipartite: bool
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    matching_size: int
    odd_cycle: CycleCertificate | None


@dataclass(frozen=True)
class ComponentReport:
    """Connectivity decomposition of a graph.

    `component_id[v]` indexes into `components`; ids follow discovery
    order from the smallest vertex, so component 0 contains vertex 0.
    """

    component_id: tuple[int, ...]
    components: tuple[ComponentInfo, ...]

    @property
    def bipartite_components(self) -> tuple[ComponentInfo, ...]:
        return tuple(c for c in self.components if c.is_bipartite)

    @property
    def non_bipartite_components(self) -> tuple[ComponentInfo, ...]:
        return tuple(c for c in self.components if not c.is_bipartite)


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


def components(G: Graph) -> ComponentReport:
    """Connected components with bipartiteness, bipartition or odd-cycle
    witness, and the maximum matching size of each component."""
    n = G.vertex_count
    comp_id = [-1] * n
    infos: list[ComponentInfo] = []
    for root in range(n):
        if comp_id[root] != -1:
            continue
        cid = len(infos)
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
        sub, _ = induced_subgraph(G, verts)
        msize = max_matching(sub).size
        if odd_cycle is None:
            side_a = tuple(v for v in verts if depth[v] % 2 == 0)
            side_b = tuple(v for v in verts if depth[v] % 2 == 1)
            infos.append(ComponentInfo(verts, True, (side_a, side_b), msize, None))
        else:
            infos.append(ComponentInfo(verts, False, None, msize, odd_cycle))
    return ComponentReport(tuple(comp_id), tuple(infos))


# ---------------------------------------------------------------------------
# Bitmask cycle kernels (mask-level, no Graph objects)


def _mask_cycle(neigh: list[int], nverts: int, lo: int, hi: int) -> list[int] | None:
    """The first cycle with lo <= length <= hi (lo >= 3), or None.

    Iterative DFS from each start vertex s ascending, over vertices >= s
    only, neighbours ascending; paths stop growing at length hi.  The
    first closing path in this order is the lexicographically least
    min-vertex-first vertex sequence among all qualifying cycles.
    """
    for s in range(nverts - lo + 1):
        start = 1 << s
        above = -start  # every vertex >= s
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


def _has_path_exact(neigh: list[int], a: int, b: int, length: int) -> bool:
    """True iff the mask graph has a simple a..b path of exactly `length`
    edges avoiding b internally."""
    if length == 1:
        return bool(neigh[a] >> b & 1)
    not_b = ~(1 << b)
    stack = [(a, 1 << a, length)]
    while stack:
        cur, mask, rem = stack.pop()
        if rem == 1:
            if neigh[cur] >> b & 1:
                return True
            continue
        cand = neigh[cur] & ~mask & not_b
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append((low.bit_length() - 1, mask | low, rem - 1))
    return False


def _mask_has_cycle(neigh: list[int], nverts: int) -> bool:
    """Forest test by iterative leaf stripping; True iff a cycle survives."""
    adj = list(neigh)
    deg = [m.bit_count() for m in adj]
    stack = [v for v in range(nverts) if deg[v] == 1]
    alive = (1 << nverts) - 1
    while stack:
        v = stack.pop()
        if not alive >> v & 1 or deg[v] != 1:
            continue
        alive &= ~(1 << v)
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            adj[w] &= ~(1 << v)
            deg[w] -= 1
            if deg[w] == 1:
                stack.append(w)
    while alive:
        low = alive & -alive
        alive ^= low
        if deg[low.bit_length() - 1] >= 2:
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
    """

    vertex_count: int
    lengths: tuple[int, ...]
    graphs_enumerated: int
    graphs_checked: int
    violation_count: int
    violations: tuple[tuple[int, tuple[Edge, ...]], ...]

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
    over edge subsets so each step toggles one adjacency bit.
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

    neigh = [0] * v
    ecount = 0
    checked = 0
    violation_count = 0
    kept: list[tuple[int, tuple[Edge, ...]]] = []
    total = 1 << ne
    # Gray code: graph after step i is i ^ (i >> 1); the flipped edge at
    # step i is the lowest set bit of i.  Step 0, the empty graph, never
    # meets a threshold (they are all >= 1).
    for i in range(1, total):
        a, b = edges[(i & -i).bit_length() - 1]
        if neigh[a] >> b & 1:
            neigh[a] &= ~(1 << b)
            neigh[b] &= ~(1 << a)
            ecount -= 1
        else:
            neigh[a] |= 1 << b
            neigh[b] |= 1 << a
            ecount += 1
        n = binding[ecount]
        if n == 0:
            continue
        checked += 1
        if n == 3:
            ok = _mask_has_cycle(neigh, v)
        else:
            ok = _mask_cycle(neigh, v, n, v) is not None
        if not ok:
            violation_count += 1
            if len(kept) < _SWEEP_KEEP_VIOLATIONS:
                edge_list = tuple(
                    (p, q) for p, q in edges if neigh[p] >> q & 1
                )
                kept.append((n, edge_list))
    return SweepReport(v, lengths, total, checked, violation_count, tuple(kept))
