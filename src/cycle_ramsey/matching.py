"""Maximum cardinality matching in general graphs (blossom contraction).

Standard augmenting-path search with blossom shrinking, O(V^3).  At the
sizes this package works at (components of colored complete graphs on a
few dozen vertices) this is far below any runtime budget, and keeping
the implementation local means the certificate path has no external
dependencies to trust.
"""

from __future__ import annotations

from collections import deque

from .certificates import MatchingCertificate
from .graphs import Graph, normalize_edge


def _find_augmenting_path(G: Graph, match: list[int], root: int) -> int:
    """BFS for an augmenting path from an exposed root.

    On success the path is flipped into `match` in place and the root is
    returned; on failure `match` is left unchanged and -1 is returned.
    """
    n = G.vertex_count
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])

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

    while queue:
        v = queue.popleft()
        for to in G.adjacency[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Odd cycle through the root: contract the blossom.
                cur = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur, to, in_blossom)
                mark_path(to, cur, v, in_blossom)
                for i in range(n):
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


def max_matching(G: Graph) -> MatchingCertificate:
    """A maximum cardinality matching of G as a checkable certificate."""
    n = G.vertex_count
    match = [-1] * n
    # Greedy seed: cuts the number of augmentation phases roughly in half.
    for u, v in G.sorted_edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    for v in range(n):
        if match[v] == -1:
            _find_augmenting_path(G, match, v)
    edges = frozenset(
        normalize_edge(v, match[v]) for v in range(n) if match[v] > v
    )
    return MatchingCertificate(edges)
