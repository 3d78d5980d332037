"""Immutable graph and edge-coloring primitives.

Vertices are dense 0-indexed integers.  Equality is by (vertex count,
edge set); isomorphism never enters the core semantics.  Edges are
stored as normalized pairs (u, v) with u < v, so the edge set can never
hold a duplicate or a reversed copy of an edge.

Derived views are built once and shared: a graph caches its sorted
edges and its neighbour masks, the one adjacency view every walk reads,
a coloring caches all of its color classes, and a slice that keeps
every vertex is the object itself.  An induced subgraph and a color
class are born with both views, filled in the pass that finds their
edges, so no reader rebuilds the masks from the edge set.  The complete
graph K_n is one object per order, born with both views: every
`complete_graph(n)` and every complete colouring file read in bulk gets
the same live K_n.  It is held weakly, so it is shared while any
colouring or caller holds it and freed with its last user; nothing pins
a large K_n for good.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ColorOutOfRange,
    CycleTooShort,
    DuplicateEdge,
    LoopEdge,
    VertexOutOfRange,
)

Edge = tuple[int, int]

# Largest vertex count a construction or an input file may ask for;
# K_512 builds in well under a second and ~36 MiB.
_MAX_ORDER = 512
# Largest colour count an input file or the odd-case lemma may ask for.
# Callers loop over colour classes, and `lemma4_execute` over 2^k cells,
# so a huge palette costs time and memory even when its classes are
# empty.  No construction on _MAX_ORDER vertices needs more than 8.
_MAX_COLORS = 16


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise VertexOutOfRange("vertex_count must be non-negative")
        for u, v in self.edges:
            if 0 <= u < v < n:
                continue
            if u == v:
                raise LoopEdge(f"self-loop at vertex {u}")
            if u > v:
                raise VertexOutOfRange(f"edge ({u},{v}) is not normalized (u < v)")
            raise VertexOutOfRange(f"edge ({u},{v}) outside vertex range 0..{n - 1}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex adjacency as bitmasks (bit w set iff (v, w) is an edge)."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise VertexOutOfRange(f"vertex {v} not in graph of order {self.vertex_count}")
        return self.neighbor_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges


def _sorted_graph(
    vertex_count: int, sorted_edges: list[Edge], neighbor_masks: list[int] | None = None
) -> Graph:
    """A Graph from valid edges in ascending order, which seed its
    `sorted_edges` cache, and optionally their neighbour masks, which
    seed `neighbor_masks`; only the vertex count is checked."""
    if vertex_count < 0:
        raise VertexOutOfRange("vertex_count must be non-negative")
    G = object.__new__(Graph)  # skips `__post_init__`'s per-edge checks
    G.__dict__.update(vertex_count=vertex_count, edges=frozenset(sorted_edges))
    G.__dict__["sorted_edges"] = tuple(sorted_edges)
    if neighbor_masks is not None:
        G.__dict__["neighbor_masks"] = tuple(neighbor_masks)
    return G


def build_graph(vertex_count: int, edge_list) -> Graph:
    """Construct a Graph, rejecting loops, duplicates and bad endpoints.

    Edge order and orientation in `edge_list` are irrelevant: (u, v) and
    (v, u) are the same edge, and repeating either is a duplicate.
    """
    seen: set[Edge] = set()
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
    return _sorted_graph(vertex_count, sorted(seen))


# The live K_n by order; an entry goes when its last user drops it.
_COMPLETE: weakref.WeakValueDictionary[int, Graph] = weakref.WeakValueDictionary()


def complete_graph(n: int) -> Graph:
    """K_n, the one shared object while anything holds it."""
    if n < 0:
        raise VertexOutOfRange("order must be non-negative")
    K = _COMPLETE.get(n)
    if K is None:
        full = (1 << n) - 1
        K = _COMPLETE[n] = _sorted_graph(
            n,
            list(itertools.combinations(range(n), 2)),
            [full ^ 1 << u for u in range(n)],
        )
    return K


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    return Graph(n, frozenset(normalize_edge(i, (i + 1) % n) for i in range(n)))


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
    edges = []
    sub_masks = [0] * len(kept)
    for i, w in enumerate(kept):
        # kept neighbours above w, ascending: new labels come out sorted
        rest = masks[w] & inside & -(2 << w)
        while rest:
            low = rest & -rest
            j = index[low.bit_length() - 1]
            edges.append((i, j))
            sub_masks[i] |= bit[j]
            sub_masks[j] |= bit[i]
            rest ^= low
    return _sorted_graph(len(kept), edges, sub_masks), kept


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
        """The nonempty color classes by color, with their sorted edges
        and neighbour masks built in one pass over the sorted edges, and
        under key 0 one edgeless graph that stands for every empty class
        (so a huge unused palette costs nothing)."""
        v = self.base.vertex_count
        bit = [1 << w for w in range(v)]
        buckets: dict[int, tuple[list[Edge], list[int]]] = {}
        for e, c in zip(self.base.sorted_edges, self.colors):
            if c in buckets:
                edges, masks = buckets[c]
            else:
                edges, masks = buckets[c] = ([], [0] * v)
            edges.append(e)
            a, b = e
            masks[a] |= bit[b]
            masks[b] |= bit[a]
        classes = {c: _sorted_graph(v, *bucket) for c, bucket in buckets.items()}
        classes[0] = Graph(v, frozenset())
        return classes

    @cached_property
    def assignment(self) -> dict[Edge, int]:
        """Edge -> color map covering exactly the edges of the base graph."""
        return dict(zip(self.base.sorted_edges, self.colors))

    def color_of(self, u: int, v: int) -> int:
        return self.assignment[normalize_edge(u, v)]


def make_coloring(base: Graph, color_count: int, assignment) -> EdgeColoring:
    """Build an EdgeColoring from an edge -> color mapping.

    The mapping must cover every edge of `base` and nothing else.
    """
    normalized = {normalize_edge(u, v): c for (u, v), c in assignment.items()}
    extra = set(normalized) - base.edges
    if extra:
        raise VertexOutOfRange(f"colored edges not in graph: {sorted(extra)[:3]}")
    missing = base.edges - set(normalized)
    if missing:
        raise ColorOutOfRange(f"uncolored edges: {sorted(missing)[:3]}")
    return EdgeColoring(
        base, color_count, tuple(normalized[e] for e in base.sorted_edges)
    )


def constant_coloring(base: Graph, color_count: int = 1, color: int = 1) -> EdgeColoring:
    if not 1 <= color <= color_count:
        raise ColorOutOfRange(f"color {color} outside 1..{color_count}")
    return EdgeColoring(base, color_count, (color,) * base.edge_count)


def color_class(col: EdgeColoring, i: int) -> Graph:
    """Spanning subgraph of the base carrying exactly the color-i edges.

    The same Graph object on every call, so its cached views are shared."""
    if not 1 <= i <= col.color_count:
        raise ColorOutOfRange(f"color {i} outside 1..{col.color_count}")
    classes = col._classes
    return classes[i] if i in classes else classes[0]


def induced_coloring(col: EdgeColoring, W) -> tuple[EdgeColoring, tuple[int, ...]]:
    """Restrict a coloring to the subgraph induced on W (relabeled); `col`
    itself when W covers every vertex."""
    sub, kept = induced_subgraph(col.base, W)
    return _coloring_on_slice(col, sub, kept), kept


def _coloring_on_slice(col: EdgeColoring, sub: Graph, kept) -> EdgeColoring:
    """The colors of `col` lifted onto `sub, kept`, a slice of its base
    that `induced_subgraph` built; `col` itself when the slice is the base."""
    if sub is col.base:
        return col
    color = col.assignment
    # kept is ascending, so lifted edges stay normalized
    colors = tuple(color[kept[a], kept[b]] for a, b in sub.sorted_edges)
    return EdgeColoring(sub, col.color_count, colors)
