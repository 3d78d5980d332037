"""Bipartite/sparse decomposition and min-degree peeling.

The decomposition splits a graph into (V1, V2, V3): V1 and V2 form a
bipartition of the union of the bipartite components, V3 collects the
non-bipartite components.  When no non-bipartite component carries a
matching of at least half the target cycle length, the sparse part obeys
an exact edge bound — that is the content checked here, per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cycles import components
from .errors import CycleTooShort, ParamOutOfRange, TargetTooLarge
from .graphs import Graph, induced_subgraph


def matching_threshold(n: int) -> int:
    """Smallest integer matching size that counts as "at least n/2 edges".

    For odd n this is (n+1)/2 — matching sizes are integers, so a
    matching of at least n/2 edges has at least ⌈n/2⌉ of them.
    """
    if n < 1:
        raise ParamOutOfRange(f"cycle length {n} < 1")
    return (n + 1) // 2


@dataclass(frozen=True)
class FLDecomposition:
    """The (V1, V2, V3) split of a graph, with its sparse-part audit.

    `hypothesis_holds` records whether no non-bipartite component has a
    matching of at least n/2 edges; only then is the edge bound
    `sparse_edge_count <= sparse_bound` asserted (condition (C)).
    `sparse_bound` is the exact rational n(|V3|-1)/2, taken as 0 when V3
    is empty so that (C) is vacuously true for bipartite graphs.
    """

    V1: tuple[int, ...]
    V2: tuple[int, ...]
    V3: tuple[int, ...]
    hypothesis_holds: bool
    sparse_edge_count: int
    sparse_bound: Fraction


@dataclass(frozen=True)
class DecompositionCheck:
    """Independent re-audit of an FLDecomposition against its graph."""

    partition_ok: bool
    condition_a_ok: bool
    condition_b_ok: bool
    v3_components_nonbipartite: bool
    condition_c_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.partition_ok
            and self.condition_a_ok
            and self.condition_b_ok
            and self.v3_components_nonbipartite
            and self.condition_c_ok
        )


def fl_decompose(G: Graph, n: int) -> FLDecomposition:
    """Split G into (V1, V2, V3) and audit the sparse part against n.

    V1/V2 aggregate the per-component bipartitions (the side containing
    each component's smallest vertex goes to V1); V3 is the union of the
    non-bipartite components.  The result is re-checked before being
    returned; a failure would be a bug, not a property of G.
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    report = components(G)
    v1: list[int] = []
    v2: list[int] = []
    v3: list[int] = []
    need = matching_threshold(n)
    hypothesis = True
    for comp in report.components:
        if comp.is_bipartite:
            side_a, side_b = comp.parts
            v1.extend(side_a)
            v2.extend(side_b)
        else:
            v3.extend(comp.vertices)
            if hypothesis and comp.matching_size >= need:
                hypothesis = False
    v3_sorted = tuple(sorted(v3))
    # V3 is a union of whole components: every edge at it lies inside it
    sparse_edges = sum(G.degree(v) for v in v3) // 2
    if v3_sorted:
        bound = Fraction(n * (len(v3_sorted) - 1), 2)
    else:
        bound = Fraction(0)
    dec = FLDecomposition(
        tuple(sorted(v1)),
        tuple(sorted(v2)),
        v3_sorted,
        hypothesis,
        sparse_edges,
        bound,
    )
    check = check_decomposition(G, n, dec)
    if not check.all_ok:
        raise AssertionError(f"decomposition audit failed: {check}")
    return dec


def check_decomposition(G: Graph, n: int, dec: FLDecomposition) -> DecompositionCheck:
    """Audit a claimed decomposition from scratch.

    Checks, independently of how `dec` was produced: the three sets
    partition V(G); no edge joins V1 ∪ V2 to V3 (condition (A)); every
    edge inside V1 ∪ V2 crosses the (V1, V2) bipartition (condition (B));
    every component of G[V3] is non-bipartite; and, when the matching
    hypothesis is claimed, the sparse edge bound (condition (C)).

    (A) and (B) take one pass over the vertices of V1 ∪ V2 and their
    neighbour masks: u fails (A) if a neighbour lies outside V1 ∪ V2,
    and (B) if a neighbour in V1 ∪ V2 lies on u's own side (V1 when u is
    in V1).  A claim that names a vertex outside V(G) is reported, not
    raised: it fails the partition, and the other conditions are
    audited on the vertices inside V(G).
    """
    everything = set(range(G.vertex_count))
    s1, s2, s3 = set(dec.V1), set(dec.V2), set(dec.V3)
    partition_ok = (
        not (s1 & s2)
        and not (s1 & s3)
        and not (s2 & s3)
        and (s1 | s2 | s3) == everything
    )
    s1 &= everything
    s2 &= everything
    m1 = sum(1 << v for v in s1)
    bip = m1 | sum(1 << v for v in s2)
    masks = G.neighbor_masks
    a_ok = b_ok = True
    for u in s1 | s2:
        nb = masks[u]
        if nb & ~bip:
            a_ok = False
        if nb & bip & (m1 if u in s1 else ~m1):
            b_ok = False
    sub3, _ = induced_subgraph(G, s3 & everything)
    v3_ok = all(not c.is_bipartite for c in components(sub3).components)
    if dec.hypothesis_holds:
        c_ok = (
            dec.sparse_edge_count == sub3.edge_count
            and Fraction(dec.sparse_edge_count) <= dec.sparse_bound
        )
    else:
        c_ok = dec.sparse_edge_count == sub3.edge_count
    return DecompositionCheck(partition_ok, a_ok, b_ok, v3_ok, c_ok)


@dataclass(frozen=True)
class PeelResult:
    """Outcome of min-degree peeling.

    `graph` is the surviving induced subgraph relabeled to 0..N-1;
    `kept[i]` is the original id of its vertex i.  `removals` lists
    (original vertex, degree at the moment of removal) in order.
    """

    graph: Graph
    kept: tuple[int, ...]
    removals: tuple[tuple[int, int], ...]


def min_degree_peel(G: Graph, target_N: int) -> PeelResult:
    """Delete a minimum-degree vertex (smallest id on ties) until
    target_N vertices remain.

    Peeling preserves relative density: if e(G) >= (1-d)*binom(v,2) then
    the result has at least (1-d)*binom(target_N,2) edges, because the
    removed degree never exceeds the average degree at that step.
    """
    if target_N < 0:
        raise ParamOutOfRange(f"target order {target_N} < 0")
    if target_N > G.vertex_count:
        raise TargetTooLarge(
            f"target order {target_N} > v(G) = {G.vertex_count}"
        )
    # Smallest-last order (Matula and Beck): bucket[d] is the mask of
    # live vertices of live degree d, and the victim is the lowest bit of
    # the lowest nonempty bucket, the smallest id on ties.  A removal
    # moves each live neighbour down one bucket, all of a bucket's
    # neighbours in one step: a neighbour's live degree after the removal
    # is its mask's count among the survivors.  So the least live degree
    # falls by at most one, and `low` steps back one.
    masks = G.neighbor_masks
    bucket = [0] * G.vertex_count
    for v, m in enumerate(masks):
        bucket[m.bit_count()] |= 1 << v
    alive = (1 << G.vertex_count) - 1
    removals: list[tuple[int, int]] = []
    low = 0
    for _ in range(G.vertex_count - target_N):
        while not bucket[low]:
            low += 1
        bit = bucket[low] & -bucket[low]
        victim = bit.bit_length() - 1
        removals.append((victim, low))
        bucket[low] ^= bit
        alive ^= bit
        rest = masks[victim] & alive
        while rest:
            d = (masks[(rest & -rest).bit_length() - 1] & alive).bit_count()
            moved = bucket[d + 1] & rest
            bucket[d + 1] ^= moved
            bucket[d] |= moved
            rest ^= moved
        if low:
            low -= 1
    sub, kept = induced_subgraph(
        G, [v for v in range(G.vertex_count) if alive >> v & 1]
    )
    return PeelResult(sub, kept, tuple(removals))
