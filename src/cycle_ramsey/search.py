"""Pruned exhaustive search over k-colorings of K_N for monochromatic C_n.

The search assigns colors to the edges of K_N one at a time in colex
order (see `edge_order`), so each K_m is complete before vertex m is
touched.  Three prunes cut a branch:

* color symmetry: color c may first appear only after colors 1..c-1
  have, so every color string is numbered by first appearance;
* cycles: assigning an edge a color that closes a monochromatic C_n;
* orderly (isomorph rejection): once the edge (m-2, m-1) completes K_m,
  for 3 <= m < N, the branch is cut unless that K_m coloring is
  canonical, that is, no vertex relabelling gives a strictly smaller
  colex color string, colors renamed by first appearance (see
  `_canonical`).

Why the orderly prune keeps the search complete: the string of K_{m-1}
is a prefix of the string of K_m, and a relabelling of K_{m-1} extends
to K_m by fixing m-1, so every prefix of a least string is itself least.
Each isomorphism class of mono-C_n-free colorings of K_N therefore keeps
its least member, which no prune cuts.  This is orderly generation after
R. C. Read, "Every one a winner", Ann. Discrete Math. 2 (1978), and
B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26
(1998).

In exhaustive mode an ALL_CONTAIN verdict is a proof that R_k(C_n) <= N;
every COUNTEREXAMPLE is re-verified by the independent checker before
being returned.  Checkpoints and reports name the order (`EDGE_ORDER`),
since a color prefix means nothing without it.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass

from .constructions import verify_mono_cycle_free
from .cycles import _closes, _mask_component_cycle
from .errors import (
    CycleRamseyError,
    CycleTooShort,
    FormatError,
    ParamOutOfRange,
    TargetTooLarge,
    ascii_int,
    ascii_text,
)
from .graphs import (
    _MAX_COLORS,
    _MAX_ORDER,
    Edge,
    EdgeColoring,
    complete_graph,
    make_coloring,
)

_MAX_HOST = 18  # binom(18,2) = 153 edges; far beyond that the DFS is hopeless

# The name of the edge order, written into checkpoints and reports so a
# file states which edges its color prefixes index.
EDGE_ORDER = "colex"


def edge_order(N: int) -> tuple[Edge, ...]:
    """The fixed edge enumeration the DFS colors along: colex, that is by
    (max endpoint, min endpoint).  It completes each K_m before touching
    vertex m, so the cycle prune already cuts inside small complete
    graphs.
    """
    return tuple((u, v) for v in range(N) for u in range(v))


class SearchVerdict(enum.Enum):
    ALL_CONTAIN = "ALL_CONTAIN"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    cycle_prunes: int
    symmetry_prunes: int
    orderly_prunes: int
    wall_time: float


@dataclass(frozen=True)
class SearchResult:
    """Verdict of one search run.

    ALL_CONTAIN (exhaustive, no budget cutoff anywhere) proves every
    k-coloring of K_N has a monochromatic C_n.  COUNTEREXAMPLE carries a
    re-verified coloring with none.  INDETERMINATE means the node budget
    ran out; `open_prefixes` then lists the unexplored subtrees (color
    sequences for the first len(prefix) edges) so a later run can
    resume.
    """

    verdict: SearchVerdict
    k: int
    n: int
    N: int
    counterexample: EdgeColoring | None
    stats: SearchStats
    open_prefixes: tuple[tuple[int, ...], ...] = ()


class _Stats:
    __slots__ = ("nodes", "cycle_prunes", "symmetry_prunes", "orderly_prunes")

    def __init__(self) -> None:
        self.nodes = 0
        self.cycle_prunes = 0
        self.symmetry_prunes = 0
        self.orderly_prunes = 0


_FOUND, _DONE, _CUTOFF = 0, 1, 2
_UNLIMITED = 1 << 62  # the node limit of an unbudgeted search


def _completes(N: int) -> tuple[int, ...]:
    """For each colex edge index, the m whose K_m that edge completes
    when the orderly test runs there (3 <= m < N), else 0."""
    return tuple(
        v + 1 if u == v - 1 and 3 <= v + 1 < N else 0 for u, v in edge_order(N)
    )


def _canonical(neigh: list[list[int]], m: int, path) -> bool:
    """Whether no vertex relabelling of a K_m coloring gives a strictly
    smaller colex color string, colors renamed by first appearance.

    `neigh[c][x]` is the mask of x's neighbours in color c + 1 and holds
    exactly the edges of K_m; `path` starts with its string (colors
    1..k in first-appearance order).  The relabelling is built one label
    at a time: choosing the vertex for label j fixes the string's j
    positions (0, j), ..., (j-1, j).  The candidates for label j are
    bitsets, filtered position by position: a candidate whose color is
    smaller there gives a smaller string (return at once), a larger one
    is cut, and ties go on.  Where the string introduces a new color,
    the ties split by the unnamed color they carry, since each naming
    is a different renaming.

    A full relabelling that ties is an automorphism up to a color
    permutation, and composing with it maps the subtree of label j = x
    onto that of its image with the same strings.  So once x is
    exhausted, its orbit under the automorphisms found so far that fix
    the labels chosen before j needs no search.
    """
    k = len(neigh)
    full = (1 << m) - 1
    sigma: list[int] = []  # sigma[j]: the vertex given label j
    # automorphisms found, each with the mask of the vertices it fixes
    autos: list[tuple[list[int], int]] = []
    bases = [j * (j - 1) // 2 for j in range(m)]
    tables: dict[tuple[int, ...], tuple[list, list]] = {}

    def table(named: tuple[int, ...]) -> tuple[list, list]:
        """For the renaming that numbers color index named[t-1] as t:
        eq[t][s], the mask of s's neighbours whose edge gets number t,
        and lt[t][s], of those whose edge gets a smaller number."""
        if named in tables:
            return tables[named]
        eq = [None] + [neigh[c] for c in named]
        lt = [None]
        below = [0] * m
        for row in eq[1:]:
            lt.append(below)
            below = [x | y for x, y in zip(below, row)]
        lt.append(below)
        tables[named] = eq, lt
        return eq, lt

    def smaller(j, a, cand, used, named, eq, lt) -> bool:
        """Filter `cand` through positions (a, j), ..., (j-1, j), then
        search below each tie; True once a smaller string is found.
        `eq` and `lt` are the tables of the renaming `named`."""
        base = bases[j]
        nnamed = len(named)
        while a < j:
            s = sigma[a]
            t = path[base + a]
            if cand & lt[t][s]:
                return True
            if t <= nnamed:
                cand &= eq[t][s]
                if not cand:
                    return False
                a += 1
                continue
            # t is the string's next new color: each unnamed one may be it
            for c in range(k):
                sub = cand & neigh[c][s]
                if sub and c not in named:
                    more = named + (c,)
                    if smaller(j, a + 1, sub, used, more, *table(more)):
                        return True
            return False
        if j + 1 == m:  # cand is the last vertex: the relabelling ties
            g = sigma + [cand.bit_length() - 1]
            fixed = sum(1 << x for x in range(m) if g[x] == x)
            if fixed != full:
                autos.append((g, fixed))
            return False
        gens: list[list[int]] = []
        known = seen = 0
        while cand:
            b = cand & -cand
            cand ^= b
            if seen & b:
                continue
            sigma.append(b.bit_length() - 1)
            found = smaller(j + 1, 0, full & ~(used | b), used | b, named, eq, lt)
            sigma.pop()
            if found:
                return True
            if not cand:
                return False
            todo = b
            if len(autos) > known:
                gens += [g for g, fixed in autos[known:] if not used & ~fixed]
                known = len(autos)
                todo |= seen
            seen = _orbit_closure(seen | b, todo, gens) if gens else seen | b
        return False

    return not smaller(0, 0, full, 0, (), *table(()))


def _orbit_closure(mask: int, todo: int, gens: list[list[int]]) -> int:
    """The smallest superset of `mask` closed under the permutations,
    given that the vertices of `mask` outside `todo` need no images."""
    while todo:
        b = todo & -todo
        todo ^= b
        x = b.bit_length() - 1
        for g in gens:
            w = 1 << g[x]
            if not mask & w:
                mask |= w
                todo |= w
    return mask


def _replay_prefix(
    k: int, n: int, N: int, edges, prefix
) -> tuple[list[list[int]], int] | str:
    """Rebuild per-color adjacency masks for a color prefix, applying
    the search's prunes along the way.

    Returns the name of the `_Stats` counter of the prune that cuts the
    prefix, if one does (its subtree is empty): "cycle_prunes" when it
    closes a monochromatic C_n, "orderly_prunes" when it completes a
    non-canonical K_m.  A checkpoint written before the orderly prune
    existed may hold such a prefix, and its subtree holds no class's
    least member.  Raises FormatError on a prefix longer than the edge
    order or on colors that break the canonical first-appearance rule —
    such a prefix cannot have come from this search.
    """
    if len(prefix) > len(edges):
        raise FormatError(
            f"prefix of {len(prefix)} colors exceeds the {len(edges)} edges of K_{N}"
        )
    neigh = [[0] * N for _ in range(k)]
    maxused = 0
    completes = _completes(N)
    for i, color in enumerate(prefix):
        if not 1 <= color <= min(k, maxused + 1):
            raise FormatError(
                f"prefix color {color} at edge {i} breaks canonical order"
            )
        u, v = edges[i]
        masks = neigh[color - 1]
        if _closes(masks, u, v, n - 1):
            return "cycle_prunes"
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        maxused = max(maxused, color)
        if completes[i] and not _canonical(neigh, completes[i], prefix):
            return "orderly_prunes"
    return neigh, maxused


def _search_subtree(
    k: int,
    n: int,
    N: int,
    prefix: tuple[int, ...],
    budget: int | None,
    stats: _Stats,
    open_out: list[tuple[int, ...]],
) -> tuple[int, tuple[int, ...] | None]:
    """Exhaust one subtree.  Returns (_FOUND, full color path) when a
    complete mono-C_n-free coloring exists below the prefix, else
    (_DONE, None) or (_CUTOFF, None) with open subtrees appended to
    `open_out`.

    A non-empty prefix's last color is a node its parent deferred (a
    cutoff reports it uncounted), so it is counted here, with the prune
    that cuts it when the replay hits one.
    """
    edges = edge_order(N)
    M = len(edges)
    limit = _UNLIMITED if budget is None else budget
    if prefix:
        stats.nodes += 1
    state = _replay_prefix(k, n, N, edges, prefix)
    if isinstance(state, str):
        setattr(stats, state, getattr(stats, state) + 1)
        return _DONE, None
    neigh, maxused0 = state
    path = list(prefix)
    bits = [(u, v, 1 << u, 1 << v, m) for (u, v), m in zip(edges, _completes(N))]
    # local counters: cheaper per node than attributes of `stats`
    nodes, prunes, sym = stats.nodes, stats.cycle_prunes, stats.symmetry_prunes
    orderly = stats.orderly_prunes

    def rec(i: int, maxused: int) -> int:
        nonlocal nodes, prunes, sym, orderly
        if i == M:
            return _FOUND
        u, v, bu, bv, m = bits[i]
        top = k if maxused >= k else maxused + 1
        sym += k - top
        for c in range(top):
            if nodes >= limit:
                for cc in range(c, top):
                    open_out.append(tuple(path) + (cc + 1,))
                return _CUTOFF
            nodes += 1
            masks = neigh[c]
            if _closes(masks, u, v, n - 1):
                prunes += 1
                continue
            masks[u] |= bv
            masks[v] |= bu
            path.append(c + 1)
            if m and not _canonical(neigh, m, path):
                orderly += 1
                r = _DONE
            else:
                r = rec(i + 1, c + 1 if c == maxused else maxused)
                if r == _FOUND:
                    return _FOUND
            path.pop()
            masks[u] ^= bv
            masks[v] ^= bu
            if r == _CUTOFF:
                for cc in range(c + 1, top):
                    open_out.append(tuple(path) + (cc + 1,))
                return _CUTOFF
        return _DONE

    r = rec(len(prefix), maxused0)
    stats.nodes, stats.cycle_prunes, stats.symmetry_prunes = nodes, prunes, sym
    stats.orderly_prunes = orderly
    return r, tuple(path) if r == _FOUND else None


def _coloring_from_path(k: int, N: int, path: tuple[int, ...]) -> EdgeColoring:
    return make_coloring(complete_graph(N), k, dict(zip(edge_order(N), path)))


def _aggregate(
    k: int,
    n: int,
    N: int,
    prefixes,
    budget: int | None,
    t0: float,
) -> SearchResult:
    """Run subtrees (in order) and fold their outcomes into one result.

    The budget is shared: once it is spent, the remaining prefixes pass
    to the open frontier unchanged, though the first one is always
    searched so that every leg of a chain makes progress.
    """
    total = _Stats()
    open_all: list[tuple[int, ...]] = []
    found_path: tuple[int, ...] | None = None
    cut = False

    limit = _UNLIMITED if budget is None else budget
    for j, prefix in enumerate(prefixes):
        if j and total.nodes >= limit:
            open_all.append(prefix)
            cut = True
            continue
        status, path = _search_subtree(k, n, N, prefix, budget, total, open_all)
        if status == _CUTOFF:
            cut = True
        if status == _FOUND:
            found_path = path
            break

    stats_out = SearchStats(
        total.nodes,
        total.cycle_prunes,
        total.symmetry_prunes,
        total.orderly_prunes,
        time.perf_counter() - t0,
    )
    if found_path is not None:
        col = _coloring_from_path(k, N, found_path)
        if verify_mono_cycle_free(col, n) is not True:
            raise CycleRamseyError(
                "internal: counterexample failed independent re-verification"
            )
        return SearchResult(SearchVerdict.COUNTEREXAMPLE, k, n, N, col, stats_out)
    if cut:
        return SearchResult(
            SearchVerdict.INDETERMINATE, k, n, N, None, stats_out, tuple(open_all)
        )
    return SearchResult(SearchVerdict.ALL_CONTAIN, k, n, N, None, stats_out)


def _validate_instance(k: int, n: int, N: int, max_host: int = _MAX_HOST) -> None:
    # per-colour masks and loops over the colours cost time and memory
    # linear in k, so k is capped like a colouring header's palette
    if k < 1:
        raise ParamOutOfRange(f"color count {k} < 1")
    if k > _MAX_COLORS:
        raise TargetTooLarge(f"color count {k} > {_MAX_COLORS}")
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if N < 1:
        raise ParamOutOfRange(f"host order {N} < 1")
    if N > max_host:
        raise TargetTooLarge(f"host order {N} > {max_host}: beyond desk scale")


def _validate_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ParamOutOfRange(f"budget {budget} < 0")


def _validate_threads(threads: int) -> None:
    if threads != 1:
        raise ParamOutOfRange(f"threads {threads} != 1: the search is sequential")


def ramsey_check(
    k: int,
    n: int,
    N: int,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Decide whether every k-coloring of K_N contains a monochromatic C_n.

    Exhaustive and complete when no budget interferes: ALL_CONTAIN then
    proves R_k(C_n) <= N, and COUNTEREXAMPLE disproves it at this N.
    `budget` caps explored nodes (color assignments); on exhaustion the
    verdict is INDETERMINATE and the open frontier is reported.

    The search runs in one process: a split of the root left almost the
    whole tree to its first subtree.  `threads` accepts only 1 and stays
    only because perfbench's workloads still pass it.
    """
    _validate_instance(k, n, N)
    _validate_budget(budget)
    _validate_threads(threads)
    return _aggregate(k, n, N, [()], budget, time.perf_counter())


def resume_search(
    k: int,
    n: int,
    N: int,
    prefixes,
    *,
    budget: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Continue a budgeted run from its reported open prefixes.

    The verdict covers only the given subtrees: ALL_CONTAIN here plus
    the interrupted run's explored portion (which found nothing) yields
    the overall proof.  Each prefix's last color is counted here, as the
    node its run deferred, so the node and prune totals of a chain of
    budgeted runs equal those of one unbudgeted run.  `threads` accepts
    only 1, as in `ramsey_check`.
    """
    _validate_instance(k, n, N)
    _validate_budget(budget)
    _validate_threads(threads)
    return _aggregate(k, n, N, list(prefixes), budget, time.perf_counter())


def write_checkpoint(path: str, result: SearchResult) -> None:
    """Persist the open subtrees of an INDETERMINATE result: a
    `checkpoint <k> <n> <N> colex` header line, one `prefix
    <edge-index> <color-list>` line each, then `end <count>`.

    Only an interrupted run has a frontier to resume; a finished one
    would write an empty frontier, which would resume into a proof.
    """
    if result.verdict is not SearchVerdict.INDETERMINATE:
        raise ParamOutOfRange(
            f"only an INDETERMINATE result has a checkpoint, not {result.verdict.value}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"checkpoint {result.k} {result.n} {result.N} {EDGE_ORDER}\n")
        for p in result.open_prefixes:
            fh.write(f"prefix {len(p)} {' '.join(str(c) for c in p)}\n")
        fh.write(f"end {len(result.open_prefixes)}\n")


def read_checkpoint(
    path: str, instance: tuple[int, int, int] | None = None
) -> tuple[tuple[int, ...], ...]:
    """The open prefixes of a checkpoint file.

    The first line must be the `checkpoint <k> <n> <N> colex` header: a
    prefix indexes the edges in that order, so a file naming any other
    order is refused.  With `instance` given, the header must name that
    (k, n, N), since a frontier resumed on any other instance proves
    nothing about it.  The last non-empty line must be `end <count>`
    with the number of prefix lines, and that number must be positive: a
    frontier that lost lines, or an empty one, would resume into a false
    proof.  Integers are plain ASCII digits, as in `formats`.
    """
    with open(path, "rb") as fh:
        lines = ascii_text(fh.read()).splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 5 or header[0] != "checkpoint":
        raise FormatError(f"line 1: expected 'checkpoint <k> <n> <N> {EDGE_ORDER}'")
    try:
        written = tuple(ascii_int(t) for t in header[1:4])
    except FormatError as exc:
        raise FormatError(f"line 1: {exc}") from None
    if header[4] != EDGE_ORDER:
        raise FormatError(
            f"line 1: edge order {header[4]!r}; this search resumes only "
            f"{EDGE_ORDER!r} checkpoints"
        )
    if instance is not None and written != tuple(instance):
        raise FormatError(
            "checkpoint is for k={} n={} N={}, not k={} n={} N={}".format(
                *written, *instance
            )
        )
    prefixes: list[tuple[int, ...]] = []
    ended = False
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if ended:
            raise FormatError(f"line {lineno}: text after the 'end' line")
        if parts[0] == "end":
            if parts[1:] != [str(len(prefixes))]:
                raise FormatError(
                    f"line {lineno}: expected 'end {len(prefixes)}' after "
                    f"{len(prefixes)} prefix lines"
                )
            ended = True
            continue
        if parts[0] != "prefix" or len(parts) < 2:
            raise FormatError(f"line {lineno}: expected 'prefix <index> <colors>'")
        try:
            index = ascii_int(parts[1])
            colors = tuple(ascii_int(t) for t in parts[2:])
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if index != len(colors):
            raise FormatError(
                f"line {lineno}: edge index {index} != {len(colors)} colors"
            )
        if any(c < 1 for c in colors):
            raise FormatError(f"line {lineno}: colors must be >= 1")
        prefixes.append(colors)
    if not ended:
        raise FormatError("no 'end <count>' line: the checkpoint is truncated")
    if not prefixes:
        raise FormatError("checkpoint has no prefixes: an open frontier is never empty")
    return tuple(prefixes)


class WitnessMode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class LowerBoundResult:
    """Outcome of a lower-bound coloring hunt.

    `exhausted` is True only when an exhaustive search swept the whole
    space without finding a coloring — a proof none exists.  A None
    coloring with exhausted False says nothing either way.
    """

    coloring: EdgeColoring | None
    exhausted: bool
    mode: WitnessMode
    steps: int


def lower_bound_witness_search(
    k: int,
    n: int,
    N: int,
    *,
    mode: WitnessMode = WitnessMode.EXHAUSTIVE,
    budget: int | None = None,
    seed: int = 0,
) -> LowerBoundResult:
    """Hunt for a k-coloring of K_N with no monochromatic C_n.

    Exhaustive mode reuses the pruned DFS (conclusive either way, small
    N only).  Randomized mode starts from a seeded random coloring and
    repeatedly recolors a random edge of the monochromatic C_n that
    `verify_mono_cycle_free` would report; it may find witnesses at
    orders the DFS cannot sweep, but its failures are inconclusive.
    `steps` counts the recolorings made; a witness is re-verified by
    `verify_mono_cycle_free` before it is returned.
    """
    _validate_budget(budget)
    if mode is WitnessMode.EXHAUSTIVE:
        res = ramsey_check(k, n, N, budget=budget)
        if res.verdict is SearchVerdict.COUNTEREXAMPLE:
            return LowerBoundResult(
                res.counterexample, False, mode, res.stats.nodes
            )
        return LowerBoundResult(
            None,
            res.verdict is SearchVerdict.ALL_CONTAIN,
            mode,
            res.stats.nodes,
        )

    # K_N and its per-colour masks cost time and memory quadratic in N,
    # so N is checked first and capped like a file or construction
    _validate_instance(k, n, N, max_host=_MAX_ORDER)
    rng = random.Random(seed)
    steps_allowed = 5000 if budget is None else budget
    base = complete_graph(N)
    colors = [rng.randint(1, k) for _ in range(base.edge_count)]
    edge_index = {e: i for i, e in enumerate(base.sorted_edges)}
    # Per-colour neighbour masks, updated in place on each recolouring,
    # and each colour's cached `_mask_component_cycle` result; a
    # recolouring drops the cache of its two colours only.
    neigh = [[0] * N for _ in range(k)]
    for (u, v), c in zip(base.sorted_edges, colors):
        neigh[c - 1][u] |= 1 << v
        neigh[c - 1][v] |= 1 << u
    found: dict[int, tuple[int, list[int]] | None] = {}
    for step in range(steps_allowed):
        vs = None
        for c in range(k):
            if c not in found:
                found[c] = _mask_component_cycle(neigh[c], N, n)
            if found[c] is not None:
                vs = found[c][1]
                break
        if vs is None:
            col = EdgeColoring(base, k, tuple(colors))
            if verify_mono_cycle_free(col, n) is not True:
                raise CycleRamseyError(
                    "internal: hunt witness failed independent re-verification"
                )
            return LowerBoundResult(col, False, mode, step)
        i = rng.randrange(len(vs))
        u, v = vs[i], vs[(i + 1) % len(vs)]
        e = (u, v) if u < v else (v, u)
        current = colors[edge_index[e]]
        alternatives = [c for c in range(1, k + 1) if c != current]
        if not alternatives:
            return LowerBoundResult(None, False, mode, step)
        new = rng.choice(alternatives)
        colors[edge_index[e]] = new
        for c in (current - 1, new - 1):
            neigh[c][u] ^= 1 << v
            neigh[c][v] ^= 1 << u
            found.pop(c, None)
    return LowerBoundResult(None, False, mode, steps_allowed)
