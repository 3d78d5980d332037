"""The doubling lower-bound coloring and monochromatic-cycle-freeness checks.

The coloring on 2^(k-1)*(n-1) vertices is built by repeated doubling:
start from two disjoint (n-1)-sets with color 1 inside each and color 2
across, then at each later stage join two disjoint copies of the current
coloring completely by the next color.  Color 1 ends up as 2^(k-1)
disjoint cliques of order n-1 and every color i >= 2 as a disjoint union
of balanced complete bipartite graphs — so for odd n no color class can
hold a C_n, which is exactly what the structural certificate records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .certificates import CycleCertificate, StructureWitness, WitnessKind
from .cycles import _mask_cycle, components
from .errors import CycleTooShort, EvenCycleLength, InvalidParams, TargetTooLarge
from .graphs import _MAX_ORDER, EdgeColoring, color_class, complete_graph


def bondy_erdos_coloring(k: int, n: int) -> EdgeColoring:
    """The extremal k-coloring of the complete graph on 2^(k-1)*(n-1)
    vertices, realized with contiguous vertex blocks.

    Vertices split into 2^(k-1) consecutive blocks of size n-1.  Edges
    within a block get color 1; an edge whose endpoints lie in blocks b
    and b' gets color t+2 where t is the highest bit in which b and b'
    differ — bit t flips exactly when the doubling step that introduced
    color t+2 glued two copies together, so the color-i class is 2^(k-i)
    disjoint copies of K_{m,m} with m = 2^(i-2)*(n-1), which hold a
    C_n for even n: only odd n make it C_n-free.  Orders above 512
    raise TargetTooLarge.
    """
    if k < 2:
        raise InvalidParams(f"need at least 2 colors, got {k}")
    if n < 4:
        raise InvalidParams(
            f"cycle length {n} < 4: the color-1 cliques would degenerate"
        )
    m = n - 1
    # The first test keeps a huge k from building a huge integer.
    if k - 1 >= _MAX_ORDER.bit_length() or m << (k - 1) > _MAX_ORDER:
        raise TargetTooLarge(
            f"the coloring for k = {k}, n = {n} has 2^{k - 1}*{m} vertices; "
            f"capped at {_MAX_ORDER}"
        )
    base = complete_graph(m << (k - 1))
    colors = []
    for u, v in base.sorted_edges:
        bu, bv = u // m, v // m
        if bu == bv:
            colors.append(1)
        else:
            colors.append((bu ^ bv).bit_length() + 1)
    return EdgeColoring(base, k, tuple(colors))


class ComponentTag(enum.Enum):
    """Why a monochromatic component cannot host an odd cycle of length n."""

    SMALL = "small"          # order <= n-1: too few vertices for a C_n
    BIPARTITE = "bipartite"  # no odd cycles at all
    UNTAGGED = "untagged"    # neither argument applies; needs exhaustive search


@dataclass(frozen=True)
class TaggedComponent:
    color: int
    vertices: tuple[int, ...]
    tag: ComponentTag
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None


@dataclass(frozen=True)
class StructuralCertificate:
    """Per-color component inventory with no-odd-C_n tags.

    If every component of every color class is tagged, the coloring
    provably contains no monochromatic C_n (n odd): a C_n needs n
    distinct vertices in a single component, ruling out SMALL, and an
    odd cycle, ruling out BIPARTITE.  UNTAGGED components prove nothing
    either way.
    """

    n: int
    color_count: int
    tagged: tuple[TaggedComponent, ...]

    @property
    def all_tagged(self) -> bool:
        return all(t.tag is not ComponentTag.UNTAGGED for t in self.tagged)

    def untagged(self) -> tuple[TaggedComponent, ...]:
        return tuple(t for t in self.tagged if t.tag is ComponentTag.UNTAGGED)


def structural_certificate(col: EdgeColoring, n: int) -> StructuralCertificate:
    """Tag every monochromatic component as SMALL, BIPARTITE or UNTAGGED."""
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if n % 2 == 0:
        raise EvenCycleLength(
            f"structural tags argue about odd cycles; n = {n} is even"
        )
    tagged: list[TaggedComponent] = []
    for i in range(1, col.color_count + 1):
        for comp in components(color_class(col, i)).components:
            if len(comp.vertices) <= n - 1:
                tag, parts = ComponentTag.SMALL, None
            elif comp.is_bipartite:
                tag, parts = ComponentTag.BIPARTITE, comp.parts
            else:
                tag, parts = ComponentTag.UNTAGGED, None
            tagged.append(TaggedComponent(i, comp.vertices, tag, parts))
    return StructuralCertificate(n, col.color_count, tuple(tagged))


def verify_mono_cycle_free(col: EdgeColoring, n: int) -> bool | StructureWitness:
    """True iff no color class of `col` contains a C_n; otherwise a
    witness naming the offending color and cycle.

    The witness is the kernel's least C_n (see `cycles._mask_cycle`) in
    the first color class that holds one, and its component is the scan
    row of the cycle's first vertex.  Each class is searched once, over
    its masks cut down to the components that could host a C_n: at
    least n vertices and, for odd n, not bipartite (the components
    `structural_certificate` leaves UNTAGGED).  Every C_n lies in such a
    component, so the cut drops no C_n and cannot change the least one;
    it only spares the kernel the rest of the class.
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    for i in range(1, col.color_count + 1):
        Gi = color_class(col, i)
        rep = components(Gi)
        inside = 0
        for comp in rep.components:
            if len(comp.vertices) >= n and (n % 2 == 0 or not comp.is_bipartite):
                inside |= comp.vertex_mask
        if not inside:
            continue
        found = _mask_cycle(
            [m & inside for m in Gi.neighbor_masks], Gi.vertex_count, n, n
        )
        if found is not None:
            return StructureWitness(
                WitnessKind.MONO_CYCLE, i,
                rep.components[rep.component_id[found[0]]].vertices,
                cycle=CycleCertificate(tuple(found)),
            )
    return True
