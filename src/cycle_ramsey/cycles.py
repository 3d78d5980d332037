"""Structural oracles: components, bipartiteness, cycles, and the
Erdős–Gallai threshold.

`components` scans a graph once, and every later call returns the same
report.  The scan is a BFS per component over the neighbour masks that
moves one whole level at a time: a level's next level is the OR of its
vertices' masks minus the component found so far, and the component is
bipartite iff no level holds an edge.  It keeps each component's
vertices, flag and vertex mask, and the mask of its even-depth
vertices.  The certificates are built on their first read and kept:
the bipartition from the even-depth mask, the odd cycle by a BFS of
that one component in queue order, and the maximum matching by the
blossom run on the host's neighbour masks restricted to the component's
vertex mask (no induced subgraph is built).  So callers that need only
the structure build no cycle and run no blossom.

Everything here is exact, and all bitmask cycle code lives here, over
per-vertex neighbour masks, for graphs of a few dozen vertices.  One
kernel, `_mask_cycle`, finds cycles: it returns the first cycle with
length in [lo, hi] with start vertex s ascending, only vertices >= s,
neighbours ascending.  That is the lexicographically least qualifying
cycle listed from its minimum vertex, and it is the certificate
contract: `contains_cycle_of_length`, `longest_cycle` and the sweep wrap
the kernel, and `verify_mono_cycle_free`, the hunt and `even_engine`
(for its least cycle longer than n) call it directly, so every
returned cycle (hence every witness and hunt trajectory) depends on the
graph alone.  It lists each cycle in one direction only, since of a
cycle's two listings from s the least has its second vertex below its
last, so a path may close only at an end of s above its first step e1
(which needs lo >= 3).  It takes e1 over the ends ascending and never
at the last one, so a start with fewer than two neighbours above it is
skipped.  For each e1 one walk,
`_least_tail`, returns the least tail of a path from e1 above s to an
end above e1 with lo - 2 to hi - 2 vertices, or None: a tail sorts
before every longer tail it is a prefix of, since the walk closes at a
vertex before it walks through it, so the first e1 with a tail gives
the least cycle.  The walk recurses one vertex per level, cuts a path
that has passed its last free end, and is written out three levels
before the end, where a call would cost more than the level's own
work: the third-last vertex in a loop of its own, the last two by mask
intersections (see `_least_tail`).  Its depth is the window's, up to the graph's order.
The kernel assumes symmetric, loop-free masks, as every caller builds
them: the ends are read from s's own mask.  The kernel's answer is also
the monochromatic witness: `verify_mono_cycle_free` reports the least
C_n of the first colour class that holds one, and the randomized hunt
asks the kernel the same question on its incremental per-colour masks,
so it recolours exactly the cycle the checker would report.  The
checker first cuts each class down to the components that could host
a C_n, which drops no C_n and so leaves the least one unchanged.  The
search's closure test `_closes(neigh, a, b, length)` asks the same
walk whether a simple a..b path of exactly `length` edges exists, that
is, whether colouring the edge ab closes a C_(length+1): a tail of
length - 1 vertices from a, avoiding b, to a neighbour of b.  It
assumes symmetric, loop-free masks and a != b, which the search
guarantees.

The Erdős–Gallai sweep uses no theorem to skip a graph.  It accepts a
checked graph only when a mask test shows that the graph holds every
edge of a cycle of length >= n that the kernel found on an earlier
graph; it keeps such cycles for the last few high-edge sets of each
length, and builds neighbour masks only for the graphs it hands to the
kernel.  It decides the graphs that share their high edge bits
together: a block's graphs are the bits of one int, and a kept cycle
accepts, in a few big-int ANDs, all of them that hold its low edges and
need no longer cycle.
Every violation is decided by the kernel on the current graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .certificates import CycleCertificate, MatchingCertificate
from .errors import CycleTooShort, InvalidParams, ParamOutOfRange, TargetTooLarge
from .graphs import Edge, Graph
from .matching import _mask_matching


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


@dataclass(frozen=True, eq=False)
class ComponentInfo:
    """One connected component, with its bipartite structure if any.

    The scan stores the component's vertices, its flag, `host_masks`
    (the neighbour masks of the graph it came from), `vertex_mask` (a
    bit per component vertex) and `even_mask` (a bit per vertex at even
    BFS depth from the smallest one).  The certificates are built from
    them on their first read and kept: `parts` is a bipartition (A, B)
    with the smallest vertex in A, or None for non-bipartite components;
    `odd_cycle` certifies non-bipartiteness when the flag is False, else
    None; `matching` is a maximum matching.  Two components are equal
    when their vertices, flags, bipartitions and odd cycles agree.
    """

    vertices: tuple[int, ...]
    is_bipartite: bool
    host_masks: tuple[int, ...] = field(repr=False)
    vertex_mask: int = field(repr=False)
    even_mask: int = field(repr=False)

    def __eq__(self, other):
        if type(other) is not ComponentInfo:
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.is_bipartite == other.is_bipartite
            and self.parts == other.parts
            and self.odd_cycle == other.odd_cycle
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.is_bipartite))

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The even- and odd-depth vertices, ascending, if bipartite."""
        if not self.is_bipartite:
            return None
        even = self.even_mask
        return (
            tuple(v for v in self.vertices if even >> v & 1),
            tuple(v for v in self.vertices if not even >> v & 1),
        )

    @cached_property
    def odd_cycle(self) -> CycleCertificate | None:
        """The scan's odd cycle, if not bipartite: a BFS from the smallest
        vertex, taking unseen neighbours ascending, closes the first edge
        xy, in BFS order of x and then ascending y > x, of one depth
        parity.  A neighbour of a dequeued vertex with its parity lies in
        its own level, which is complete by then."""
        if self.is_bipartite:
            return None
        masks = self.host_masks
        parent = [-1] * len(masks)
        depth = [0] * len(masks)
        root = self.vertices[0]
        side = [1 << root, 0]  # the even- and odd-depth vertices found
        order = [root]
        for x in order:  # the BFS queue: children join behind x
            d = depth[x]
            if clash := masks[x] & side[d & 1] & -(2 << x):
                y = (clash & -clash).bit_length() - 1
                return _odd_cycle_from_conflict(parent, depth, x, y)
            new = masks[x] & ~(side[0] | side[1])
            side[~d & 1] |= new
            while new:
                low = new & -new
                new ^= low
                y = low.bit_length() - 1
                depth[y] = d + 1
                parent[y] = x
                order.append(y)
        raise AssertionError(f"component {self.vertices} has no odd cycle")

    @cached_property
    def matching(self) -> MatchingCertificate:
        """A maximum matching of the component, in the host graph's labels."""
        return _mask_matching(self.host_masks, self.vertices, self.vertex_mask)

    @property
    def matching_size(self) -> int:
        return self.matching.size


@dataclass(frozen=True)
class ComponentReport:
    """Connectivity decomposition of a graph, built once per graph.

    `component_id[v]` indexes into `components`; ids follow discovery
    order from the smallest vertex, so component 0 contains vertex 0.
    Each component's certificates are built on their first read.
    """

    component_id: tuple[int, ...]
    components: tuple[ComponentInfo, ...]


# The report's slot in `Graph.__dict__`, beside the graph's cached views.
# The report holds the graph's masks, never the graph, so it ties no
# reference cycle.
_REPORT = "_component_report"


def _odd_cycle_from_conflict(
    parent: list[int], depth: list[int], u: int, v: int
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


def _scan(G: Graph) -> ComponentReport:
    """BFS every component of G, from its smallest vertex, one whole level
    at a time: the next level is the OR of the level's masks minus the
    component found so far.  BFS edges join one level or two adjacent
    ones, so the component is bipartite iff no level holds an edge, that
    is, iff no level meets the OR of its own masks."""
    masks = G.neighbor_masks
    comp_id = [0] * G.vertex_count
    infos: list[ComponentInfo] = []
    left = (1 << G.vertex_count) - 1  # the vertices no component holds yet
    while left:
        cid = len(infos)
        level = comp = even = left & -left
        bipartite = True
        odd_depth = True  # whether the next level's depth is odd
        while level:
            reach = 0
            rest = level
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= masks[low.bit_length() - 1]
            if reach & level:
                bipartite = False
            level = reach & ~comp
            comp |= level
            if not odd_depth:
                even |= level
            odd_depth = not odd_depth
        left ^= comp
        verts = []
        rest = comp
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            verts.append(v)
            comp_id[v] = cid
        infos.append(ComponentInfo(tuple(verts), bipartite, masks, comp, even))
    return ComponentReport(tuple(comp_id), tuple(infos))


def components(G: Graph) -> ComponentReport:
    """Connected components with bipartiteness and a bipartition or
    odd-cycle witness, from one scan of G: every call returns the same
    report.  No matching is computed until one is read."""
    rep = G.__dict__.get(_REPORT)
    if rep is None:
        rep = G.__dict__[_REPORT] = _scan(G)
    return rep


# ---------------------------------------------------------------------------
# Bitmask cycle kernels (mask-level, no Graph objects)


def _mask_cycle(neigh: list[int], nverts: int, lo: int, hi: int) -> list[int] | None:
    """The first cycle with lo <= length <= hi (lo >= 3), or None; None
    for the empty window hi = lo - 1.  Masks must be symmetric and
    loop-free.

    Start vertices s are taken ascending, over vertices >= s only,
    neighbours ascending; the first cycle in this order is the
    lexicographically least min-vertex-first vertex sequence among all
    qualifying cycles.  A cycle leaves s and returns to it through two
    distinct members of `ends`, the neighbours of s above s.  Its reverse
    listing is the other candidate, so the least one has its second
    vertex e1 below its last: a path may close only at `closing`, the
    ends above e1.  At lo = 2 this would drop the 2-"cycle" [s, e1], so
    lo >= 3 is load-bearing.  The first step e1 is taken over the ends
    ascending and never at the last end, which has no end above it (so a
    start with fewer than two ends is skipped).  A cycle of the window
    starts s, e1 exactly when a path of lo - 2 to hi - 2 vertices above
    s, past e1, runs from e1 to an end in `closing`, and the least such
    tail is the tail of the least such cycle: `_least_tail` returns it,
    so the first e1 with a tail gives the answer [s, e1, *tail].
    """
    if hi < lo:
        return None
    for s in range(nverts - lo + 1):
        start = 1 << s
        above = -start  # every vertex >= s
        closing = neigh[s] & above  # the ends; in the loop, those above e1
        while closing & (closing - 1):  # an end is left above the lowest
            e1_bit = closing & -closing
            closing ^= e1_bit
            e1 = e1_bit.bit_length() - 1
            tail = _least_tail(
                neigh, e1, above & ~(start | e1_bit), closing, lo - 2, hi - 2
            )
            if tail is not None:
                return [s, e1, *tail]
    return None


def _closes(neigh: list[int], a: int, b: int, length: int) -> bool:
    """True iff the mask graph has a simple a..b path of exactly `length`
    >= 2 edges, that is, whether colouring ab closes a C_(length+1).
    Masks must be symmetric and loop-free, and a != b."""
    ends = neigh[b] & ~(1 << a)
    if not ends:
        return False
    return (
        _least_tail(neigh, a, ~(1 << a | 1 << b), ends, length - 1, length - 1)
        is not None
    )


def _least_tail(
    neigh: list[int], cur: int, free: int, ends: int, short: int, long: int
) -> list[int] | None:
    """The least tail [w_1..w_t], short <= t <= long, of a path cur,
    w_1..w_t with every w in `free` and w_t in `ends`, or None.  Needs
    long >= 1.

    Tails are compared lexicographically, and one beats every longer
    tail it is a prefix of: each candidate w, taken ascending, closes
    the tail if it may (an end, with t >= short) before the walk goes
    through it.  A walk that passes its last free end is cut.  From
    three levels before the end the walk is written out: the w_1 loop
    inline (a call per w_1 cost the certify benchmark, C_5 and C_6,
    2-3% of its time), and the last two vertices from masks.  For those
    the unused ends are walked, as an end set is small (b's edges so far
    in the search, the ends above e1 in the kernel): `hits` collects
    each candidate x next to one of them, or an end itself when the
    tail may close there, and the least hit with the least end next to
    it is the least x, y.  Loop-free masks keep x != y."""
    xs = neigh[cur] & free
    if long > 3:
        while xs:
            low = xs & -xs
            xs ^= low
            w = low.bit_length() - 1
            if low & ends:
                if short <= 1:
                    return [w]
                if not ends & (free ^ low):  # no free end is left to close at
                    continue
            tail = _least_tail(neigh, w, free ^ low, ends, short - 1, long - 1)
            if tail is not None:
                return [w, *tail]
        return None
    if long == 3:
        while xs:
            low = xs & -xs
            xs ^= low
            w = low.bit_length() - 1
            if short <= 1 and low & ends:
                return [w]
            rest = free ^ low
            ms = neigh[w] & rest
            ys = ends & rest if ms else 0
            hits = ms & ends if short <= 2 else 0
            while ys:
                yl = ys & -ys
                ys ^= yl
                hits |= neigh[yl.bit_length() - 1] & ms
            if hits:
                xl = hits & -hits
                x = xl.bit_length() - 1
                if short <= 2 and xl & ends:
                    return [w, x]
                close = neigh[x] & ends & rest
                return [w, x, (close & -close).bit_length() - 1]
        return None
    ys = ends & free if xs and long == 2 else 0
    hits = xs & ends if short <= 1 else 0
    while ys:
        low = ys & -ys
        ys ^= low
        hits |= neigh[low.bit_length() - 1] & xs
    if hits:
        xl = hits & -hits
        x = xl.bit_length() - 1
        if short <= 1 and xl & ends:
            return [x]
        close = neigh[x] & ends & free
        return [x, (close & -close).bit_length() - 1]
    return None


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


def longest_cycle(G: Graph) -> CycleCertificate | None:
    """The lexicographically least longest cycle of G, or None if G is a
    forest.  Exhaustive, intended for graphs up to ~20 vertices.
    """
    nv = G.vertex_count
    masks = G.neighbor_masks
    found, lo = None, 3
    while (longer := _mask_cycle(masks, nv, lo, nv)) is not None:
        if len(longer) < lo:  # else the window never narrows
            raise AssertionError(
                f"kernel returned a {len(longer)}-cycle for lengths {lo}..{nv}"
            )
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
    graphs_checked: int
    violation_count: int
    violations: tuple[tuple[int, tuple[Edge, ...]], ...]
    cycle_searches: int

    @property
    def graphs_enumerated(self) -> int:
        """Every labeled graph on the vertex set: 2^binom(v, 2)."""
        v = self.vertex_count
        return 1 << (v * (v - 1) // 2)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


_SWEEP_MAX_VERTICES = 8
_SWEEP_KEEP_VIOLATIONS = 20
_SWEEP_LANE = 11  # low edge bits the sweep decides at once, as 2^T-bit sets
_SWEEP_POOL_DEPTH = 32  # high-edge sets the sweep keeps cycles of, per length


def _require_int(name: str, value) -> None:
    """Refuse anything but a plain int; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParams(f"{name} must be an int, not {type(value).__name__}")


def erdos_gallai_sweep(vertex_count: int, lengths=None) -> SweepReport:
    """Check the Erdős–Gallai implication on every labeled graph with
    `vertex_count` vertices.

    For each graph G and each target n in `lengths` (default 3..v):
    e(G) >= eg_threshold(n, v) must imply a cycle of length >= n.  Only
    the largest applicable n is searched per graph — a cycle that long
    witnesses every smaller target too.  An explicit empty `lengths` is
    refused: it would check no graph and read as clean.  The vertex
    count and each length must be an int and not a bool, or the sweep
    raises InvalidParams before it builds anything.

    The walk goes over the edge subsets a block at a time.  The low
    T = min(_SWEEP_LANE, ne) edge bits form the lane: block j holds the
    high edge bits j ^ (j >> 1), and a set of its graphs is a 2^T-bit
    int whose slot s stands for the low edge bits s ^ (s >> 1).  Graph
    j << T | r of the Gray code is slot r of block j if j is even and
    slot 2^T - 1 - r if j is odd (the code is reflected: flipping bit
    T - 1 of r ^ (r >> 1) gives the pattern of 2^T - 1 - r), so walking
    even blocks up and odd ones down keeps Gray order, and `violations`
    keeps it too.  The slots that meet a threshold, and per length L
    those that bind at most L, are table lookups by the block's high
    edge count.

    The pool of length L maps a high-edge set (a found cycle's edge bits
    >> T) to its cover: the OR, over every cycle of length L the kernel
    found with exactly those high edges, of the slots that hold that
    cycle's low edges (an AND of per-bit slot sets, computed once per
    low-edge set).  It keeps the `_SWEEP_POOL_DEPTH` keys found or found
    again most recently; a key found again ORs in its cover and becomes
    the newest, and a new key past the depth evicts the oldest.  A key
    whose high edges lie in the block accepts each slot of its cover
    that binds at most L, and skips a length no open slot can use.  That
    is sound: such a slot holds the low edges of one of the key's
    cycles, and the block holds that cycle's high edges, so the slot's
    graph holds the whole cycle.  Each slot left goes, in that order, to
    the kernel on neighbour masks brought up to its graph, one XOR pair
    per edge that differs from the graph they last held: no cycle is a
    violation, and a cycle found (its edge bits read from a flat table
    at p * v + q) joins the pool and accepts the slots it covers.  At
    v = 7 the kernel runs 2,375 times for 2,014,992 checked graphs, and
    4,285 times with a pool of the last 32 cycles of each length.  The
    masks store vertex x as v-1-x, so the kernel's least cycle runs
    through the high-index edges a block holds fixed; natural labels
    need 2,632 calls.
    """
    v = vertex_count
    _require_int("vertex count", v)
    if v < 1:
        raise ParamOutOfRange(f"vertex count {v} < 1")
    if v > _SWEEP_MAX_VERTICES:
        raise TargetTooLarge(
            f"sweep on {v} vertices means 2^{v * (v - 1) // 2} graphs; "
            f"capped at {_SWEEP_MAX_VERTICES}"
        )
    if lengths is None:
        lengths = range(3, v + 1)
    elif not (lengths := tuple(lengths)):
        raise ParamOutOfRange("empty list of target lengths")
    for n in lengths:
        _require_int("cycle length", n)
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
    T = min(_SWEEP_LANE, ne)
    full = (1 << (1 << T)) - 1
    ones = [  # ones[b]: the slots s with bit b set; none for b = T
        full // ((1 << (2 << b)) - 1) * (((1 << (1 << b)) - 1) << (1 << b))
        for b in range(T)
    ] + [0]
    has = [ones[b] ^ ones[b + 1] for b in range(T)]  # s ^ (s >> 1) holds b
    atmost = [full] * (T + 1)  # atmost[k]: the slots with <= k low edges
    for m in has:
        atmost = [a & ~m | b & m for a, b in zip(atmost, [0] + atmost)]
    # reach_by[h][L]: the slots of a block with h high edges whose binding
    # is at most L.  binding never falls as edges grow, so they are the
    # slots with at most top[L] - h low edges.
    top = [sum(n <= L for n in binding) - 1 for L in range(v + 1)]
    reach_by = [
        [atmost[min(k, T)] if (k := t - h) >= 0 else 0 for t in top]
        for h in range(ne - T + 1)
    ]

    flips = []  # per edge bit: its reversed labels p, q and their masks
    bit_at = [0] * (v * v)  # bit_at[p * v + q]: the bit of edge pq
    for j, (a, b) in enumerate(edges):
        p, q = v - 1 - a, v - 1 - b
        flips.append((p, q, 1 << p, 1 << q))
        bit_at[p * v + q] = bit_at[q * v + p] = 1 << j
    lane = (1 << T) - 1
    covers = {}  # low edge bits -> the slots that hold them all
    neigh = [0] * v
    held = 0  # the graph whose edges `neigh` holds
    checked = searches = violation_count = 0
    kept: list[tuple[int, tuple[Edge, ...]]] = []
    # pool[L]: high edge bits >> T -> the slots that hold the low edges
    # of some cycle of length L found with those high edges; oldest key
    # first.
    pool = [{} for _ in range(v + 1)]
    for j in range(1 << (ne - T)):
        high = j ^ (j >> 1)
        reach = reach_by[high.bit_count()]
        todo = full ^ reach[0]  # the slots that meet a threshold
        checked += todo.bit_count()
        missing = ~high
        for size in range(3, v + 1):
            can = todo & reach[size]  # the open slots length `size` may accept
            if not can:
                continue
            hit = 0
            for wh, cover in pool[size].items():
                if not wh & missing:
                    hit |= cover
            todo ^= hit & can
        high <<= T
        while todo:  # lowest slot first in even blocks, highest in odd ones
            s = (todo.bit_length() if j & 1 else (todo & -todo).bit_length()) - 1
            todo ^= 1 << s
            graph = high | s ^ (s >> 1)
            n = binding[graph.bit_count()]
            searches += 1
            diff, held = graph ^ held, graph
            while diff:
                p, q, pm, qm = flips[(diff & -diff).bit_length() - 1]
                neigh[p] ^= qm
                neigh[q] ^= pm
                diff &= diff - 1
            found = _mask_cycle(neigh, v, n, v)
            if found is None:
                violation_count += 1
                if len(kept) < _SWEEP_KEEP_VIOLATIONS:
                    edge_list = tuple(
                        e for i, e in enumerate(edges) if graph >> i & 1
                    )
                    kept.append((n, edge_list))
                continue
            x = found[-1]
            w = 0
            for y in found:
                w |= bit_at[x * v + y]
                x = y
            low = w & lane
            cover = covers.get(low)
            if cover is None:
                cover, rest = full, low
                while rest:
                    cover &= has[(rest & -rest).bit_length() - 1]
                    rest &= rest - 1
                covers[low] = cover
            size = len(found)
            keyed = pool[size]
            wh = w >> T
            if wh in keyed:
                cover |= keyed.pop(wh)
            elif len(keyed) == _SWEEP_POOL_DEPTH:
                del keyed[next(iter(keyed))]
            keyed[wh] = cover
            todo &= ~(cover & reach[size])
    return SweepReport(v, lengths, checked, violation_count, tuple(kept), searches)
