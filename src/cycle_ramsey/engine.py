"""Finite executors for the odd-cycle lemma machinery and the even-case
pigeonhole argument.

The odd-case executor is a diagnostic: the underlying lemma is
asymptotic, so on a concrete colored graph the engine reports which of
its inequalities hold and which fail rather than claiming the theorem.
The inequality chain itself is verified separately in exact rational
arithmetic — no floating point touches any verdict anywhere here.
"""

from __future__ import annotations

import collections
import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .certificates import (
    MatchingCertificate,
    StructureWitness,
    WitnessKind,
    verify_cycle,
    verify_matching,
)
from .cycles import components, eg_threshold, longest_cycle
from .decompose import (
    FLDecomposition,
    PeelResult,
    fl_decompose,
    matching_threshold,
    min_degree_peel,
)
from .errors import (
    CycleTooShort,
    EvenCycleLength,
    InvalidParams,
    OddCycleLength,
    ParamOutOfRange,
    TargetTooLarge,
    parse_rational,
)
from .graphs import (
    _MAX_COLORS,
    EdgeColoring,
    _coloring_on_slice,
    color_class,
    normalize_edge,
)


def _exact(q) -> Fraction:
    """Coerce to Fraction, refusing floats to keep verdict paths exact;
    a string must be a strict 'p/q' literal (`parse_rational`)."""
    if isinstance(q, float):
        raise InvalidParams(
            f"floating-point value {q!r} refused; pass a Fraction, an int, "
            "or a 'p/q' string"
        )
    if isinstance(q, str):
        return parse_rational(q)
    return Fraction(q)


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"


@dataclass(frozen=True)
class PkParameters:
    """Density-property parameters: k colors, target length n, density
    coefficient c, slack ε, density defect δ, host order N."""

    k: int
    n: int
    c: Fraction
    eps: Fraction
    delta: Fraction
    N: int

    def __post_init__(self) -> None:
        for name in ("c", "eps", "delta"):
            if isinstance(getattr(self, name), float):
                raise InvalidParams(f"{name} must be exact, not float")
        if self.k < 1:
            raise ParamOutOfRange(f"color count {self.k} < 1")
        if self.n < 3:
            raise CycleTooShort(f"cycle length {self.n} < 3")
        if self.eps <= 0 or self.delta <= 0:
            raise ParamOutOfRange("eps and delta must be positive")
        minimum = math.ceil((1 + self.eps) * self.c * self.n)
        if self.N < minimum:
            raise ParamOutOfRange(
                f"N = {self.N} < ceil((1+eps)*c*n) = {minimum}"
            )

    @classmethod
    def for_lemma(cls, k: int, n: int, eps) -> "PkParameters":
        """Instantiate per the odd-case lemma: c = k*2^k, δ = ε/2^(2k+4),
        N = ⌈(1+ε)·c·n⌉."""
        eps = _exact(eps)
        if k < 1:
            raise ParamOutOfRange(f"color count {k} < 1")
        if k > _MAX_COLORS:
            raise TargetTooLarge(f"color count {k} > {_MAX_COLORS}")
        if eps <= 0:
            raise ParamOutOfRange(f"eps = {eps} must be positive")
        c = Fraction(k * (1 << k))
        delta = eps / (1 << (2 * k + 4))
        N = math.ceil((1 + eps) * c * n)
        return cls(k, n, c, eps, delta, N)


def pk_witness_search(
    col: EdgeColoring, n: int, parity: Parity = Parity.ODD
) -> StructureWitness | None:
    """Scan color classes for the density property's structure.

    ODD: a non-bipartite monochromatic component with a matching of at
    least (n+1)/2 edges.  EVEN: any monochromatic component with a
    matching of at least n/2 edges.  Both thresholds are the integer
    ⌈n/2⌉.  Colors are scanned in ascending order, components in
    discovery order; the first hit is returned.
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    need = matching_threshold(n)
    odd = parity is Parity.ODD
    kind = (WitnessKind.NONBIP_COMPONENT_MATCHING if odd
            else WitnessKind.COMPONENT_MATCHING)
    for i in range(1, col.color_count + 1):
        for comp in components(color_class(col, i)).components:
            if (odd and comp.is_bipartite) or comp.matching_size < need:
                continue
            return StructureWitness(
                kind, i, comp.vertices, matching=comp.matching,
                odd_cycle=comp.odd_cycle if odd else None,
            )
    return None


class TraceVerdict(enum.Enum):
    """First failing step of the odd-case argument on this instance, or
    CONTRADICTION_ESTABLISHED if every step held (impossible for genuine
    inputs meeting all preconditions — that impossibility is the lemma)."""

    CONTRADICTION_ESTABLISHED = "contradiction_established"
    PIGEONHOLE_FAILS = "pigeonhole_fails"
    EQ2_FAILS = "eq2_fails"
    EQ3_FAILS = "eq3_fails"
    CHAIN_FAILS = "chain_fails"


@dataclass(frozen=True)
class CellEntry:
    """One intersection cell: vertices (peeled-graph labels) whose
    per-color membership pattern matches `signature` (j_i = 1 means side
    V1 of color i's decomposition, j_i = 2 means V2 ∪ V3)."""

    signature: tuple[int, ...]
    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Lemma4Trace:
    """Everything the odd-case executor measured, in peeled-graph labels.

    `peel.kept` maps those labels back to the input coloring.  All
    bounds are exact rationals; `verdict` names the first failing step
    in proof order (pigeonhole, then the two edge bounds, then the
    chain).
    """

    params: PkParameters
    n: int
    color_count: int
    precondition_failures: tuple[str, ...]
    peel: PeelResult
    decompositions: tuple[FLDecomposition, ...]
    cells: tuple[CellEntry, ...]
    chosen: CellEntry
    pigeonhole_min: int
    color_edge_counts: tuple[int, ...]
    cell_edge_count: int
    eq2_bound: Fraction
    eq2_ok: bool
    eq3_bound: Fraction
    eq3_ok: bool
    chain_a: Fraction | None
    chain_b: Fraction | None
    n_cap: int
    n_cap_ok: bool
    chain_cap: Fraction
    eps_half_term: Fraction
    chain_ok: bool
    lower_interval: Fraction
    upper_interval: Fraction
    pigeonhole_ok: bool
    verdict: TraceVerdict


def _chain_terms(k: int, n: int, eps: Fraction, delta: Fraction) -> tuple:
    """The odd-case chain terms shared by the trace and the audit:
    n_cap = k·2^(k+1)·n, chain_cap = 2δ·n_cap²/(kn), εkn/2, and the
    interval ends (1+ε)kn and kn + εkn/2."""
    kn = k * n
    n_cap = k * (1 << (k + 1)) * n
    eps_half = eps * kn / 2
    chain_cap = 2 * delta * Fraction(n_cap * n_cap, kn)
    return n_cap, chain_cap, eps_half, (1 + eps) * kn, kn + eps_half


def lemma4_execute(
    col: EdgeColoring, n: int, params: PkParameters
) -> StructureWitness | Lemma4Trace:
    """Run the odd-case argument on a concrete coloring.

    If the structure the lemma wants already exists, return it and stop.
    Otherwise peel to N vertices (or as far as the host allows),
    decompose every color class, intersect the per-color sides into 2^k
    cells, take a largest cell X (ties: lexicographically smallest
    signature), and evaluate the argument's inequalities on X in exact
    arithmetic.  Precondition violations never abort; they are recorded
    and the engine continues diagnostically.  A palette over
    `_MAX_COLORS` is refused first: the cells number 2^k.
    """
    if col.color_count > _MAX_COLORS:
        raise TargetTooLarge(f"color count {col.color_count} > {_MAX_COLORS}")
    found = pk_witness_search(col, n, Parity.ODD)
    if found is not None:
        return found

    v = col.base.vertex_count
    k = col.color_count
    failures: list[str] = []
    if k != params.k:
        failures.append(f"coloring has {k} colors but params.k = {params.k}")
    if n != params.n:
        failures.append(f"cycle length {n} but params.n = {params.n}")
    if v < params.N:
        failures.append(f"host order {v} < N = {params.N}")
    density_bound = (1 - params.delta) * Fraction(v * (v - 1), 2)
    if Fraction(col.base.edge_count) < density_bound:
        failures.append(
            f"edge count {col.base.edge_count} < (1-delta)*binom(v,2) "
            f"= {density_bound}"
        )

    peel = min_degree_peel(col.base, min(params.N, v))
    peeled_col = _coloring_on_slice(col, peel.graph, peel.kept)
    host = peel.graph.vertex_count

    classes = [color_class(peeled_col, i) for i in range(1, k + 1)]
    decs = tuple(fl_decompose(G, n) for G in classes)
    # the decomposition audit makes V1, V2, V3 a partition, so side 2 of
    # a color is the complement of its V1
    v1_masks = [sum(1 << u for u in d.V1) for d in decs]
    cells = []
    for sig in itertools.product((1, 2), repeat=k):
        cur = (1 << host) - 1
        for m, j in zip(v1_masks, sig):
            cur &= m if j == 1 else ~m
        # the cells partition the host: at most `host` of them are listed
        verts = tuple(u for u in range(host) if cur >> u & 1) if cur else ()
        cells.append(CellEntry(sig, verts))
    chosen = max(cells, key=lambda c: c.size)
    x = chosen.size
    X = sum(1 << u for u in chosen.vertices)
    per_color = [
        sum((G.neighbor_masks[u] & X).bit_count() for u in chosen.vertices) // 2
        for G in classes
    ]
    cell_edges = sum(per_color)

    kp, N, eps, delta = params.k, params.N, params.eps, params.delta
    eq2_bound = Fraction(kp * n * (x - 1), 2)
    eq3_bound = Fraction(x * (x - 1), 2) - delta * Fraction(N * (N - 1), 2)
    eq2_ok = cell_edges <= eq2_bound
    eq3_ok = cell_edges >= eq3_bound
    chain_a = delta * Fraction(N * (N - 1), x - 1) if x >= 2 else None
    chain_b = 2 * delta * Fraction(N * N, x) if x >= 1 else None
    n_cap, chain_cap, eps_half, lower, upper = _chain_terms(kp, n, eps, delta)
    n_cap_ok = N <= n_cap
    chain_ok = (
        chain_a is not None
        and chain_b is not None
        and chain_a <= chain_b
        and chain_b <= chain_cap
        and chain_cap <= eps_half
    )
    pigeonhole_min = -(-host // (1 << k))
    pigeonhole_ok = x >= lower

    if not pigeonhole_ok:
        verdict = TraceVerdict.PIGEONHOLE_FAILS
    elif not eq2_ok:
        verdict = TraceVerdict.EQ2_FAILS
    elif not eq3_ok:
        verdict = TraceVerdict.EQ3_FAILS
    elif not chain_ok:
        verdict = TraceVerdict.CHAIN_FAILS
    else:
        verdict = TraceVerdict.CONTRADICTION_ESTABLISHED

    return Lemma4Trace(
        params=params,
        n=n,
        color_count=k,
        precondition_failures=tuple(failures),
        peel=peel,
        decompositions=decs,
        cells=tuple(cells),
        chosen=chosen,
        pigeonhole_min=pigeonhole_min,
        color_edge_counts=tuple(per_color),
        cell_edge_count=cell_edges,
        eq2_bound=eq2_bound,
        eq2_ok=eq2_ok,
        eq3_bound=eq3_bound,
        eq3_ok=eq3_ok,
        chain_a=chain_a,
        chain_b=chain_b,
        n_cap=n_cap,
        n_cap_ok=n_cap_ok,
        chain_cap=chain_cap,
        eps_half_term=eps_half,
        chain_ok=chain_ok,
        lower_interval=lower,
        upper_interval=upper,
        pigeonhole_ok=pigeonhole_ok,
        verdict=verdict,
    )


@dataclass(frozen=True)
class ChainReport:
    """Exact-rational audit of the odd-case inequality chain.

    Verified under the assumption |X| > kn, uniformly in |X|:

      link a:  δN(N−1)/(|X|−1) ≤ 2δN²/|X|  ⟺  |X|(N+1) ≥ 2N,
               which holds for every |X| ≥ 2 (check the boundary |X|=2,
               then note the left side grows with |X| since N+1 > 0);
      link b:  2δN²/|X| ≤ 2δ(k·2^(k+1)·n)²/(kn), whose supremum over
               |X| > kn is 2δN²/(kn), so it reduces to N ≤ n_cap =
               k·2^(k+1)·n, which `n_cap_ok` records;
      link c:  2δ(k·2^(k+1)·n)²/(kn) = εkn/2, an exact identity for
               δ = ε/2^(2k+4).

    With the chain closed, |X| ≤ kn + εkn/2 < (1+ε)kn ≤ |X| — the
    contradiction.  Spot values at the first integer |X| = kn+1 are
    included for the record.
    """

    k: int
    n: int
    eps: Fraction
    delta: Fraction
    N: int
    x_boundary: int
    link_a_ok: bool
    link_a_at_boundary: Fraction
    link_b_at_boundary: Fraction
    link_b_sup: Fraction
    n_cap: int
    n_cap_ok: bool
    link_c_value: Fraction
    eps_half_term: Fraction
    link_c_exact: bool
    lower_interval: Fraction
    upper_interval: Fraction
    contradiction: bool

    @property
    def holds(self) -> bool:
        return (
            self.link_a_ok
            and self.n_cap_ok
            and self.link_c_exact
            and self.contradiction
        )


def lemma4_inequality_check(k: int, eps, n: int) -> ChainReport:
    """Verify the odd-case chain for all |X| > kn in exact rationals.

    Takes δ = ε/2^(2k+4) and N = ⌈(1+ε)·k·2^k·n⌉ from
    `PkParameters.for_lemma` and checks each link as described on
    ChainReport.  Requires k ≥ 4, 0 < ε < 1 (the argument itself
    assumes ε < 1 when bounding N) and odd n.
    """
    eps = _exact(eps)
    if k < 4:
        raise ParamOutOfRange(f"color count {k} < 4")
    if not 0 < eps < 1:
        raise ParamOutOfRange(f"eps = {eps} outside (0, 1)")
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if n % 2 == 0:
        raise EvenCycleLength(f"the chain argues about odd cycles; n = {n}")

    params = PkParameters.for_lemma(k, n, eps)
    delta, N = params.delta, params.N
    kn = k * n
    x0 = kn + 1

    # link a, uniformly in |X| >= 2: boundary value plus positive slope.
    link_a_ok = 2 * (N + 1) >= 2 * N and N + 1 > 0
    link_a_at_boundary = delta * Fraction(N * (N - 1), x0 - 1)
    link_b_at_boundary = 2 * delta * Fraction(N * N, x0)

    n_cap, link_c_value, eps_half, lower, upper = _chain_terms(k, n, eps, delta)
    n_cap_ok = N <= n_cap
    link_b_sup = 2 * delta * Fraction(N * N, kn)
    link_c_exact = link_c_value == eps_half
    return ChainReport(
        k=k,
        n=n,
        eps=eps,
        delta=delta,
        N=N,
        x_boundary=x0,
        link_a_ok=link_a_ok,
        link_a_at_boundary=link_a_at_boundary,
        link_b_at_boundary=link_b_at_boundary,
        link_b_sup=link_b_sup,
        n_cap=n_cap,
        n_cap_ok=n_cap_ok,
        link_c_value=link_c_value,
        eps_half_term=eps_half,
        link_c_exact=link_c_exact,
        lower_interval=lower,
        upper_interval=upper,
        contradiction=lower > upper,
    )


@dataclass(frozen=True)
class EvenCaseReport:
    """Even-case engine outcome when the majority color misses the edge
    threshold, so no witness is extracted (see even_engine): the measured
    pigeonhole context and any precondition failures.  `majority_count`
    is below `threshold` in every report even_engine returns."""

    n: int
    eps: Fraction
    color_count: int
    host_order: int
    edge_count: int
    precondition_failures: tuple[str, ...]
    color_edge_counts: tuple[int, ...]
    majority_color: int
    majority_count: int
    pigeonhole_lhs: Fraction
    pigeonhole_rhs: Fraction
    pigeonhole_ok: bool
    threshold: int


def even_engine(
    col: EdgeColoring, n: int, eps
) -> StructureWitness | EvenCaseReport:
    """Run the even-case pigeonhole argument on a concrete coloring.

    Picks the color with the most edges (smallest color id on ties),
    records the exact pigeonhole inequality (1/k)(1−ε/3)·binom(N,2) >
    n(N−1)/2 + 1, and — whenever the majority color meets the edge
    threshold for a cycle of length n+1 — extracts such a cycle and
    returns a matching of exactly n/2 of its edges, all inside one
    monochromatic component.  Otherwise returns the measured report,
    including any precondition violations.  A met threshold without the
    cycle contradicts Erdős–Gallai: a bug, raised as AssertionError.
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if n % 2 == 1:
        raise OddCycleLength(f"even-case engine got odd length {n}")
    eps = _exact(eps)
    if eps <= 0:
        raise ParamOutOfRange(f"eps = {eps} must be positive")

    v = col.base.vertex_count
    k = col.color_count
    failures: list[str] = []
    if not v > (1 + eps) * n * k:
        failures.append(
            f"host order {v} <= (1+eps)*n*k = {(1 + eps) * n * k}"
        )
    density_bound = (1 - eps / 3) * Fraction(v * (v - 1), 2)
    if Fraction(col.base.edge_count) < density_bound:
        failures.append(
            f"edge count {col.base.edge_count} < (1-eps/3)*binom(v,2) "
            f"= {density_bound}"
        )

    tally = collections.Counter(col.colors)
    counts = [tally[i] for i in range(1, k + 1)]
    majority_count = max(counts)
    majority = counts.index(majority_count) + 1

    lhs = Fraction(1, k) * (1 - eps / 3) * Fraction(v * (v - 1), 2)
    rhs = Fraction(n * (v - 1), 2) + 1
    # K_0 takes K_1's threshold, 1, which its 0 edges miss
    threshold = eg_threshold(n + 1, max(v, 1))
    report = EvenCaseReport(
        n=n,
        eps=eps,
        color_count=k,
        host_order=v,
        edge_count=col.base.edge_count,
        precondition_failures=tuple(failures),
        color_edge_counts=tuple(counts),
        majority_color=majority,
        majority_count=majority_count,
        pigeonhole_lhs=lhs,
        pigeonhole_rhs=rhs,
        pigeonhole_ok=lhs > rhs,
        threshold=threshold,
    )
    if majority_count < threshold:
        return report

    Gm = color_class(col, majority)
    cycle = longest_cycle(Gm, stop_at=n + 1)
    if cycle is None or cycle.length <= n:
        raise AssertionError(f"color {majority} meets the threshold but has no C_>={n + 1}")
    pairs = frozenset(
        normalize_edge(cycle.vertices[2 * t], cycle.vertices[2 * t + 1])
        for t in range(n // 2)
    )
    rep = components(Gm)
    comp = rep.components[rep.component_id[cycle.vertices[0]]]
    return StructureWitness(
        WitnessKind.COMPONENT_MATCHING,
        majority,
        comp.vertices,
        cycle=cycle,
        matching=MatchingCertificate(pairs),
    )


def verify_witness(col: EdgeColoring, n: int, w: StructureWitness) -> bool:
    """Re-check a StructureWitness against the coloring, from scratch.

    Confirms the claimed component really is a connected component of
    the color class (a search from its first vertex over the class's
    neighbour masks reaches exactly it), that every certificate lives
    inside it, and the kind-specific size/parity conditions: a
    MONO_CYCLE has length exactly n; matchings have at least ⌈n/2⌉
    edges; the odd-cycle proof of non-bipartiteness has odd length.  A
    component listing that repeats a vertex is refused.
    """
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if not 1 <= w.color <= col.color_count:
        return False
    Gi = color_class(col, w.color)
    # a repeated or out-of-range vertex leaves comp_set short
    comp_set = set(w.component).intersection(range(Gi.vertex_count))
    if not comp_set or len(comp_set) != len(w.component):
        return False
    masks = Gi.neighbor_masks
    reached, todo = 0, 1 << w.component[0]
    while todo:  # a search on the class's masks, not its cached scan
        low = todo & -todo
        reached |= low
        todo = (todo | masks[low.bit_length() - 1]) & ~reached
    if reached != sum(1 << u for u in comp_set):
        return False

    def inside(vertices) -> bool:
        return all(p in comp_set for p in vertices)

    if w.kind is WitnessKind.MONO_CYCLE:
        return (
            w.cycle is not None
            and w.cycle.length == n
            and verify_cycle(Gi, w.cycle)
            and inside(w.cycle.vertices)
        )
    if w.kind is WitnessKind.NONBIP_COMPONENT_MATCHING:
        return (
            w.matching is not None
            and w.odd_cycle is not None
            and w.matching.size >= matching_threshold(n)
            and verify_matching(Gi, w.matching)
            and all(inside(e) for e in w.matching.edges)
            and w.odd_cycle.length % 2 == 1
            and verify_cycle(Gi, w.odd_cycle)
            and inside(w.odd_cycle.vertices)
        )
    if w.kind is WitnessKind.COMPONENT_MATCHING:
        return (
            w.matching is not None
            and w.matching.size >= matching_threshold(n)
            and verify_matching(Gi, w.matching)
            and all(inside(e) for e in w.matching.edges)
        )
    return False
