"""Checkable witnesses: matchings, cycles, and structure-search results.

Every positive result in this package is backed by an object a few lines
of independent code can re-check against the graph it came from.  The
verifiers here are deliberately naive — no shared logic with the search
routines that produced the witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CycleTooShort, InvalidParams
from .graphs import Edge, Graph


@dataclass(frozen=True)
class MatchingCertificate:
    """A set of pairwise disjoint edges in some host graph."""

    edges: frozenset[Edge]

    @property
    def size(self) -> int:
        return len(self.edges)


def _adjacent(G: Graph, u: int, v: int) -> bool:
    """True iff u and v are vertices of G and (u, v) is an edge: one bit
    test on u's neighbour mask, which never holds u itself."""
    n = G.vertex_count
    return 0 <= u < n and 0 <= v < n and G.neighbor_masks[u] >> v & 1 == 1


def verify_matching(G: Graph, cert: MatchingCertificate) -> bool:
    """True iff every certificate edge is in G and no vertex repeats."""
    seen: set[int] = set()
    for u, v in cert.edges:
        if not _adjacent(G, u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


@dataclass(frozen=True)
class CycleCertificate:
    """A cycle given as its vertex sequence (closing edge implicit)."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise CycleTooShort(f"cycle on {len(self.vertices)} vertices")

    @property
    def length(self) -> int:
        return len(self.vertices)


def verify_cycle(G: Graph, cert: CycleCertificate) -> bool:
    """True iff the vertices are distinct and consecutive pairs (cyclically)
    are all edges of G."""
    vs = cert.vertices
    if len(set(vs)) != len(vs):
        return False
    return all(_adjacent(G, u, vs[i - 1]) for i, u in enumerate(vs))


class WitnessKind(enum.Enum):
    """What a structure search found inside one color class."""

    MONO_CYCLE = "mono_cycle"
    NONBIP_COMPONENT_MATCHING = "nonbip_component_matching"
    COMPONENT_MATCHING = "component_matching"


@dataclass(frozen=True)
class StructureWitness:
    """A monochromatic structure pinned to a color class.

    MONO_CYCLE carries `cycle` (the monochromatic C_n itself).
    NONBIP_COMPONENT_MATCHING carries `matching` plus `odd_cycle`, the
    latter proving the hosting component non-bipartite.
    COMPONENT_MATCHING carries just `matching`.  `component` always
    lists the vertex set of the monochromatic component the structure
    lives in, in original labels.
    """

    kind: WitnessKind
    color: int
    component: tuple[int, ...] = ()
    cycle: CycleCertificate | None = None
    matching: MatchingCertificate | None = None
    odd_cycle: CycleCertificate | None = None

    def __post_init__(self) -> None:
        if self.kind is WitnessKind.MONO_CYCLE:
            if self.cycle is None:
                raise InvalidParams("mono-cycle witness without a cycle")
        elif self.kind is WitnessKind.NONBIP_COMPONENT_MATCHING:
            if self.matching is None or self.odd_cycle is None:
                raise InvalidParams(
                    "non-bipartite matching witness needs a matching and an odd cycle"
                )
        elif self.kind is WitnessKind.COMPONENT_MATCHING:
            if self.matching is None:
                raise InvalidParams("component matching witness without a matching")
