"""Immutable graph and edge-coloring primitives.

Vertices are dense 0-indexed integers.  A graph is its vertex count and
its neighbour masks, the one view every walk reads; equality and hashing
compare those two, which is equality of edge sets, and isomorphism never
enters the core semantics.  A graph has one edge view, `sorted_edges`:
its normalized pairs (u, v) with u < v in ascending order, so it holds
no duplicate or reversed copy of an edge.  `Graph(v, edges)` stores it
as it checks its edges; a graph born from masks builds it from them the
first time it is read.

Derived views are built once and shared: a graph caches its edge view,
a coloring caches all of its color classes, and a slice that keeps
every vertex is the object itself.  An induced subgraph and a color
class are born with their masks alone, so no walk pays for an edge set
it never reads.  The complete graph K_n is one object per order, born
with its masks and its sorted edges, which every colouring of it zips
over: every `complete_graph(n)` and every complete colouring file read
in bulk gets the same live K_n.  It is held weakly, so it is shared
while any colouring or caller holds it and freed with its last user;
nothing pins a large K_n for good.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ColorOutOfRange,
    DuplicateEdge,
    LoopEdge,
    VertexOutOfRange,
    _require_int,
)

Edge = tuple[int, int]

# Largest vertex count a construction or an input file may ask for;
# K_512 builds in about 20 ms and holds 8 MiB (tracemalloc).
_MAX_ORDER = 512
# Largest colour count an input file or the odd-case lemma may ask for.
# Callers loop over colour classes, and `lemma4_execute` over 2^k cells,
# so a huge palette costs time and memory even when its classes are
# empty.  No construction on _MAX_ORDER vertices needs more than 8.
_MAX_COLORS = 16


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, init=False)
class Graph:
    """A simple undirected graph on vertices 0..vertex_count-1, held as
    its neighbour masks (bit w of `neighbor_masks[v]` is set iff (v, w)
    is an edge); `Graph(vertex_count, edges)` checks its normalized
    edges and keeps them sorted."""

    vertex_count: int
    neighbor_masks: tuple[int, ...]

    def __init__(self, vertex_count: int, edges) -> None:
        n = vertex_count
        if n < 0:
            raise VertexOutOfRange("vertex_count must be non-negative")
        edges = frozenset(edges)
        masks = [0] * n
        for u, v in edges:
            if not 0 <= u < v < n:
                if u == v:
                    raise LoopEdge(f"self-loop at vertex {u}")
                if u > v:
                    raise VertexOutOfRange(f"edge ({u},{v}) is not normalized (u < v)")
                raise VertexOutOfRange(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.__dict__.update(
            vertex_count=n, neighbor_masks=tuple(masks), sorted_edges=tuple(sorted(edges))
        )

    @property
    def edge_count(self) -> int:
        view = self.__dict__.get("sorted_edges")
        if view is None:
            return sum(map(int.bit_count, self.neighbor_masks)) >> 1
        return len(view)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in ascending order: rows ascending, and in each row
        the neighbours above it ascending."""
        edges = []
        for u, mask in enumerate(self.neighbor_masks):
            rest = mask & -(2 << u)
            while rest:
                low = rest & -rest
                edges.append((u, low.bit_length() - 1))
                rest ^= low
        return tuple(edges)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise VertexOutOfRange(f"vertex {v} not in graph of order {self.vertex_count}")
        return self.neighbor_masks[v].bit_count()


def _masked_graph(
    vertex_count: int, neighbor_masks, sorted_edges: tuple[Edge, ...] | None = None
) -> Graph:
    """A Graph from valid neighbour masks (symmetric, no vertex its own
    neighbour) and optionally its edges in ascending order, which seed
    `sorted_edges`; nothing is checked."""
    G = object.__new__(Graph)  # skips `__init__`'s per-edge checks
    G.__dict__.update(vertex_count=vertex_count, neighbor_masks=tuple(neighbor_masks))
    if sorted_edges is not None:
        G.__dict__["sorted_edges"] = sorted_edges
    return G


def build_graph(vertex_count: int, edge_list) -> Graph:
    """Construct a Graph, rejecting loops, duplicates and bad endpoints.

    Edge order and orientation in `edge_list` are irrelevant: (u, v) and
    (v, u) are the same edge, and repeating either is a duplicate.
    """
    if vertex_count < 0:
        raise VertexOutOfRange("vertex_count must be non-negative")
    seen: set[Edge] = set()
    masks = [0] * vertex_count
    for u, v in edge_list:
        if u == v:
            raise LoopEdge(f"self-loop at vertex {u}")
        if min(u, v) < 0 or max(u, v) >= vertex_count:
            raise VertexOutOfRange(
                f"edge ({u},{v}) outside vertex range 0..{vertex_count - 1}"
            )
        e = normalize_edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return _masked_graph(vertex_count, masks, tuple(sorted(seen)))


# The live K_n by order; an entry goes when its last user drops it.
_COMPLETE: weakref.WeakValueDictionary[int, Graph] = weakref.WeakValueDictionary()


def complete_graph(n: int) -> Graph:
    """K_n, the one shared object while anything holds it."""
    # before the lookup: True == 1 would file a K_1 of order True
    _require_int("order", n)
    if n < 0:
        raise VertexOutOfRange("order must be non-negative")
    K = _COMPLETE.get(n)
    if K is None:
        full = (1 << n) - 1
        K = _COMPLETE[n] = _masked_graph(
            n,
            [full ^ 1 << u for u in range(n)],
            # through a list: `tuple` of an unsized iterator grows in
            # small steps, about 1.5x slower for K_128 and 2x for K_512
            tuple(list(itertools.combinations(range(n), 2))),
        )
    return K


def induced_subgraph(G: Graph, W) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on W, relabeled to 0..|W|-1 in increasing id order.

    Returns (subgraph, kept) where kept[i] is the original id of new
    vertex i, so witnesses found in the subgraph can be lifted back.
    When W covers every vertex the subgraph is G itself.
    """
    kept = tuple(sorted(set(W)))
    for w in kept:
        if w < 0 or w >= G.vertex_count:
            raise VertexOutOfRange(f"vertex {w} not in graph of order {G.vertex_count}")
    if len(kept) == G.vertex_count:
        return G, kept
    index = {w: i for i, w in enumerate(kept)}
    inside = 0
    for w in kept:
        inside |= 1 << w
    masks = G.neighbor_masks
    bit = [1 << i for i in range(len(kept))]
    sub_masks = [0] * len(kept)
    for i, w in enumerate(kept):
        rest = masks[w] & inside & -(2 << w)  # kept neighbours above w
        while rest:
            low = rest & -rest
            j = index[low.bit_length() - 1]
            sub_masks[i] |= bit[j]
            sub_masks[j] |= bit[i]
            rest ^= low
    return _masked_graph(len(kept), sub_masks), kept


@dataclass(frozen=True)
class EdgeColoring:
    """A total assignment of colors 1..color_count to the edges of `base`.

    Colors are stored positionally against `base.sorted_edges`, which
    keeps the value canonical: two colorings are equal exactly when they
    color the same graph the same way.
    """

    base: Graph
    color_count: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.color_count < 1:
            raise ColorOutOfRange("need at least one color")
        if len(self.colors) != self.base.edge_count:
            raise ColorOutOfRange(
                f"{len(self.colors)} colors for {self.base.edge_count} edges"
            )
        colors = self.colors
        if colors and not (1 <= min(colors) and max(colors) <= self.color_count):
            for c in colors:  # name the first bad color in edge order
                if not 1 <= c <= self.color_count:
                    raise ColorOutOfRange(f"color {c} outside 1..{self.color_count}")

    @cached_property
    def _classes(self) -> dict[int, Graph]:
        """The nonempty color classes by color, their neighbour masks
        built in one pass over the sorted edges, and under key 0 one
        edgeless graph that stands for every empty class (so a huge
        unused palette costs nothing)."""
        v = self.base.vertex_count
        bit = [1 << w for w in range(v)]
        by_color: dict[int, list[int]] = {}
        for (a, b), c in zip(self.base.sorted_edges, self.colors):
            masks = by_color.get(c)
            if masks is None:
                masks = by_color[c] = [0] * v
            masks[a] |= bit[b]
            masks[b] |= bit[a]
        classes = {c: _masked_graph(v, masks) for c, masks in by_color.items()}
        classes[0] = _masked_graph(v, [0] * v)
        return classes

    @cached_property
    def assignment(self) -> dict[Edge, int]:
        """Edge -> color map covering exactly the edges of the base graph."""
        return dict(zip(self.base.sorted_edges, self.colors))


def make_coloring(base: Graph, color_count: int, assignment) -> EdgeColoring:
    """Build an EdgeColoring from an edge -> color mapping.

    The mapping must cover every edge of `base` and nothing else.
    """
    normalized = {normalize_edge(u, v): c for (u, v), c in assignment.items()}
    edges = set(base.sorted_edges)
    extra = normalized.keys() - edges
    if extra:
        raise VertexOutOfRange(f"colored edges not in graph: {sorted(extra)[:3]}")
    missing = edges - normalized.keys()
    if missing:
        raise ColorOutOfRange(f"uncolored edges: {sorted(missing)[:3]}")
    return EdgeColoring(
        base, color_count, tuple(normalized[e] for e in base.sorted_edges)
    )


def color_class(col: EdgeColoring, i: int) -> Graph:
    """Spanning subgraph of the base carrying exactly the color-i edges.

    The same Graph object on every call, so its cached views are shared."""
    if not 1 <= i <= col.color_count:
        raise ColorOutOfRange(f"color {i} outside 1..{col.color_count}")
    classes = col._classes
    return classes[i] if i in classes else classes[0]


def _coloring_on_slice(col: EdgeColoring, sub: Graph, kept) -> EdgeColoring:
    """The colors of `col` lifted onto `sub, kept`, a slice of its base
    that `induced_subgraph` built; `col` itself when the slice is the base."""
    if sub is col.base:
        return col
    color = col.assignment
    # kept is ascending, so lifted edges stay normalized
    colors = tuple(color[kept[a], kept[b]] for a, b in sub.sorted_edges)
    return EdgeColoring(sub, col.color_count, colors)
