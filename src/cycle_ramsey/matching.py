"""Maximum cardinality matching in general graphs (blossom contraction).

Standard augmenting-path search with blossom shrinking, O(V^3).  At the
sizes this package works at (components of colored complete graphs on a
few dozen vertices) this is far below any runtime budget, and keeping
the implementation local means the certificate path has no external
dependencies to trust.

The blossom runs on a host graph's neighbour masks restricted to a
vertex set, in the host's labels, so a component's matching needs no
induced subgraph.  Every walk takes vertices ascending, which an
ascending relabelling preserves: the matching is edge for edge the one
the induced subgraph's blossom would return, lifted back.
`max_matching(G)` is that blossom over all of G.
"""

from __future__ import annotations

from collections.abc import Sequence

from .certificates import MatchingCertificate
from .graphs import Graph


def _find_augmenting_path(
    masks: Sequence[int], verts: Sequence[int], inside: int, match: list[int], root: int
) -> int:
    """BFS for an augmenting path from an exposed root, in the graph that
    `masks` induce on `verts` (ascending; `inside` is their mask).

    On success the path is flipped into `match` in place and the root is
    returned; on failure `match` is left unchanged and -1 is returned.
    """
    n = len(masks)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        marked = [False] * n
        while True:
            a = base[a]
            marked[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if marked[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    for v in queue:  # FIFO: vertices join behind v
        rest = masks[v] & inside
        while rest:  # neighbours ascending
            low = rest & -rest
            rest ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Odd cycle through the root: contract the blossom.
                cur = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for i in verts:
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # Augmenting path found: flip matched/unmatched edges.
                    u = to
                    while u != -1:
                        pv = parent[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return root
                used[match[to]] = True
                queue.append(match[to])
    return -1


def _mask_matching(
    masks: Sequence[int], verts: Sequence[int], inside: int
) -> MatchingCertificate:
    """A maximum matching of the graph that `masks` (symmetric, loop-free)
    induce on `verts` (ascending; `inside` is their mask), in the masks'
    labels."""
    match = [-1] * len(masks)
    # Greedy seed over the edges ascending, which is each free vertex
    # taking its least free neighbour above it: cuts the number of
    # augmentation phases roughly in half.
    free = inside
    for u in verts:
        if match[u] == -1 and (up := (masks[u] & free) >> u):
            v = u + (up & -up).bit_length() - 1
            match[u] = v
            match[v] = u
            free ^= 1 << u | 1 << v
    # An augmenting path joins two live exposed vertices.  A root whose
    # search fails ends no augmenting path later either (Edmonds), so it
    # is counted out; once at most one live one is left, no root can
    # augment.
    exposed = free.bit_count()
    for v in verts:
        if exposed < 2:
            break
        if match[v] == -1:
            found = _find_augmenting_path(masks, verts, inside, match, v)
            exposed -= 1 if found == -1 else 2
    return MatchingCertificate(frozenset([(v, match[v]) for v in verts if match[v] > v]))


def max_matching(G: Graph) -> MatchingCertificate:
    """A maximum cardinality matching of G as a checkable certificate."""
    n = G.vertex_count
    return _mask_matching(G.neighbor_masks, range(n), (1 << n) - 1)
