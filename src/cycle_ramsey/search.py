"""Pruned exhaustive search over k-colorings of K_N for monochromatic C_n.

The search assigns colors to the edges of K_N one at a time in a fixed
order, with two prunes: color symmetry (color c may first appear only
after colors 1..c-1 have) and incremental cycle detection (assigning an
edge a color that closes a monochromatic C_n kills the branch).  In
exhaustive mode an ALL_CONTAIN verdict is a proof that R_k(C_n) <= N;
every COUNTEREXAMPLE is re-verified by the independent checker before
being returned.
"""

from __future__ import annotations

import enum
import multiprocessing
import random
import time
from dataclasses import dataclass

from .constructions import verify_mono_cycle_free
from .cycles import _has_path_exact
from .errors import (
    CycleRamseyError,
    CycleTooShort,
    FormatError,
    InvalidParams,
    NotACounterexample,
    ParamOutOfRange,
    TargetTooLarge,
)
from .graphs import (
    Edge,
    EdgeColoring,
    complete_graph,
    induced_coloring,
    make_coloring,
)

_MAX_HOST = 18  # binom(18,2) = 153 edges; far beyond that the DFS is hopeless


def edge_order(N: int, scheme: str = "lex") -> tuple[Edge, ...]:
    """The fixed edge enumeration the DFS colors along.

    "lex" orders by (min endpoint, max endpoint); "colex" by (max, min),
    which completes each K_m before touching vertex m+1 and often prunes
    earlier.  Both are exhaustive; "lex" is the default everywhere.
    """
    if scheme == "lex":
        return tuple((u, v) for u in range(N) for v in range(u + 1, N))
    if scheme == "colex":
        return tuple((u, v) for v in range(N) for u in range(v))
    raise InvalidParams(f"unknown edge order {scheme!r}")


class SearchVerdict(enum.Enum):
    ALL_CONTAIN = "ALL_CONTAIN"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    cycle_prunes: int
    symmetry_prunes: int
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
    order_scheme: str
    counterexample: EdgeColoring | None
    stats: SearchStats
    open_prefixes: tuple[tuple[int, ...], ...] = ()


class _Stats:
    __slots__ = ("nodes", "cycle_prunes", "symmetry_prunes")

    def __init__(self) -> None:
        self.nodes = 0
        self.cycle_prunes = 0
        self.symmetry_prunes = 0


_FOUND, _DONE, _CUTOFF = 0, 1, 2


def _replay_prefix(
    k: int, N: int, n: int, edges, prefix
) -> tuple[list[list[int]], int] | None:
    """Rebuild per-color adjacency masks for a color prefix.

    Returns None if the prefix already closes a monochromatic C_n (its
    subtree is empty).  Raises FormatError on a prefix longer than the
    edge order or on colors that break the canonical first-appearance
    rule — such a prefix cannot have come from this search.
    """
    if len(prefix) > len(edges):
        raise FormatError(
            f"prefix of {len(prefix)} colors exceeds the {len(edges)} edges of K_{N}"
        )
    neigh = [[0] * N for _ in range(k)]
    maxused = 0
    for i, color in enumerate(prefix):
        if not 1 <= color <= min(k, maxused + 1):
            raise FormatError(
                f"prefix color {color} at edge {i} breaks canonical order"
            )
        u, v = edges[i]
        masks = neigh[color - 1]
        if _has_path_exact(masks, u, v, n - 1):
            return None
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        maxused = max(maxused, color)
    return neigh, maxused


def _search_subtree(
    k: int,
    n: int,
    N: int,
    scheme: str,
    prefix: tuple[int, ...],
    budget: int | None,
    stats: _Stats,
    open_out: list[tuple[int, ...]],
) -> tuple[int, tuple[int, ...] | None]:
    """Exhaust one subtree.  Returns (_FOUND, full color path) when a
    complete mono-C_n-free coloring exists below the prefix, else
    (_DONE, None) or (_CUTOFF, None) with open subtrees appended to
    `open_out`."""
    edges = edge_order(N, scheme)
    M = len(edges)
    state = _replay_prefix(k, N, n, edges, prefix)
    if state is None:
        stats.cycle_prunes += 1
        return _DONE, None
    neigh, maxused0 = state
    path = list(prefix)

    def rec(i: int, maxused: int) -> int:
        if i == M:
            return _FOUND
        u, v = edges[i]
        top = min(k, maxused + 1)
        stats.symmetry_prunes += k - top
        for c in range(top):
            if budget is not None and stats.nodes >= budget:
                for cc in range(c, top):
                    open_out.append(tuple(path) + (cc + 1,))
                return _CUTOFF
            stats.nodes += 1
            masks = neigh[c]
            if _has_path_exact(masks, u, v, n - 1):
                stats.cycle_prunes += 1
                continue
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            path.append(c + 1)
            r = rec(i + 1, max(maxused, c + 1))
            if r == _FOUND:
                return _FOUND
            path.pop()
            masks[u] &= ~(1 << v)
            masks[v] &= ~(1 << u)
            if r == _CUTOFF:
                for cc in range(c + 1, top):
                    open_out.append(tuple(path) + (cc + 1,))
                return _CUTOFF
        return _DONE

    r = rec(len(prefix), maxused0)
    return r, tuple(path) if r == _FOUND else None


def _worker(args) -> tuple[int, tuple[int, ...] | None, int, int, int, list]:
    k, n, N, scheme, prefix, budget = args
    stats = _Stats()
    open_out: list[tuple[int, ...]] = []
    status, path = _search_subtree(k, n, N, scheme, prefix, budget, stats, open_out)
    return (
        status,
        path,
        stats.nodes,
        stats.cycle_prunes,
        stats.symmetry_prunes,
        open_out,
    )


def _coloring_from_path(
    k: int, N: int, scheme: str, path: tuple[int, ...]
) -> EdgeColoring:
    edges = edge_order(N, scheme)
    return make_coloring(complete_graph(N), k, dict(zip(edges, path)))


def _split_prefixes(
    k: int, n: int, N: int, scheme: str, want: int
) -> list[tuple[int, ...]]:
    """Expand the root into enough valid prefixes for parallel workers,
    preserving DFS order so aggregation stays deterministic."""
    edges = edge_order(N, scheme)
    level: list[tuple[int, ...]] = [()]
    depth = 0
    while len(level) < want and depth < min(6, len(edges)):
        nxt: list[tuple[int, ...]] = []
        for prefix in level:
            maxused = max(prefix, default=0)
            for c in range(1, min(k, maxused + 1) + 1):
                candidate = prefix + (c,)
                if _replay_prefix(k, N, n, edges, candidate) is not None:
                    nxt.append(candidate)
        if not nxt:
            return level
        level = nxt
        depth += 1
    return level


def _aggregate(
    k: int,
    n: int,
    N: int,
    scheme: str,
    prefixes,
    budget: int | None,
    threads: int,
    t0: float,
) -> SearchResult:
    """Run subtrees (in order) and fold their outcomes into one result."""
    nodes = cyc = sym = 0
    open_all: list[tuple[int, ...]] = []
    found_path: tuple[int, ...] | None = None
    cut = False

    if threads <= 1:
        stats = _Stats()
        for prefix in prefixes:
            open_out: list[tuple[int, ...]] = []
            status, path = _search_subtree(
                k, n, N, scheme, prefix, budget, stats, open_out
            )
            open_all.extend(open_out)
            if status == _CUTOFF:
                cut = True
            if status == _FOUND:
                found_path = path
                break
        nodes, cyc, sym = stats.nodes, stats.cycle_prunes, stats.symmetry_prunes
    else:
        per_budget = None if budget is None else max(1, budget // len(prefixes))
        args = [(k, n, N, scheme, p, per_budget) for p in prefixes]
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=threads) as pool:
            for status, path, wn, wc, ws, wopen in pool.imap(_worker, args):
                nodes += wn
                cyc += wc
                sym += ws
                open_all.extend(wopen)
                if status == _CUTOFF:
                    cut = True
                if status == _FOUND:
                    found_path = path
                    pool.terminate()
                    break

    stats_out = SearchStats(nodes, cyc, sym, time.perf_counter() - t0)
    if found_path is not None:
        col = _coloring_from_path(k, N, scheme, found_path)
        if verify_mono_cycle_free(col, n) is not True:
            raise CycleRamseyError(
                "internal: counterexample failed independent re-verification"
            )
        return SearchResult(
            SearchVerdict.COUNTEREXAMPLE, k, n, N, scheme, col, stats_out
        )
    if cut:
        return SearchResult(
            SearchVerdict.INDETERMINATE,
            k,
            n,
            N,
            scheme,
            None,
            stats_out,
            tuple(open_all),
        )
    return SearchResult(SearchVerdict.ALL_CONTAIN, k, n, N, scheme, None, stats_out)


def _validate_instance(k: int, n: int, N: int) -> None:
    if k < 1:
        raise ParamOutOfRange(f"color count {k} < 1")
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    if N < 1:
        raise ParamOutOfRange(f"host order {N} < 1")
    if N > _MAX_HOST:
        raise TargetTooLarge(f"host order {N} > {_MAX_HOST}: beyond desk scale")


def ramsey_check(
    k: int,
    n: int,
    N: int,
    *,
    order: str = "lex",
    budget: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Decide whether every k-coloring of K_N contains a monochromatic C_n.

    Exhaustive and complete when no budget interferes: ALL_CONTAIN then
    proves R_k(C_n) <= N, and COUNTEREXAMPLE disproves it at this N.
    `budget` caps explored nodes (color assignments); on exhaustion the
    verdict is INDETERMINATE and the open frontier is reported.  With
    `threads` > 1 the root splits into independent subtrees whose
    results are folded in DFS order, so unbudgeted verdicts — and the
    returned counterexample — match the single-threaded run.
    """
    _validate_instance(k, n, N)
    t0 = time.perf_counter()
    if threads <= 1:
        prefixes: list[tuple[int, ...]] = [()]
    else:
        prefixes = _split_prefixes(k, n, N, order, want=4 * threads)
    return _aggregate(k, n, N, order, prefixes, budget, threads, t0)


def resume_search(
    k: int,
    n: int,
    N: int,
    prefixes,
    *,
    order: str = "lex",
    budget: int | None = None,
    threads: int = 1,
) -> SearchResult:
    """Continue a budgeted run from its reported open prefixes.

    The verdict covers only the given subtrees: ALL_CONTAIN here plus
    the interrupted run's explored portion (which found nothing) yields
    the overall proof.
    """
    _validate_instance(k, n, N)
    return _aggregate(k, n, N, order, list(prefixes), budget, threads, time.perf_counter())


def write_checkpoint(path: str, result: SearchResult) -> None:
    """Persist open subtrees, one `prefix <edge-index> <color-list>` line each."""
    with open(path, "w", encoding="ascii") as fh:
        for p in result.open_prefixes:
            fh.write(f"prefix {len(p)} {' '.join(str(c) for c in p)}\n")


def read_checkpoint(path: str) -> tuple[tuple[int, ...], ...]:
    prefixes: list[tuple[int, ...]] = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "prefix" or len(parts) < 2:
                raise FormatError(f"line {lineno}: expected 'prefix <index> <colors>'")
            try:
                index = int(parts[1])
                colors = tuple(int(t) for t in parts[2:])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if index != len(colors):
                raise FormatError(
                    f"line {lineno}: edge index {index} != {len(colors)} colors"
                )
            if any(c < 1 for c in colors):
                raise FormatError(f"line {lineno}: colors must be >= 1")
            prefixes.append(colors)
    return tuple(prefixes)


def counterexample_minimize(col: EdgeColoring, n: int) -> EdgeColoring:
    """Shrink a valid counterexample: drop unused colors, greedily merge
    color pairs, and discard isolated vertices — re-verifying after
    every step so the result is still monochromatic-C_n-free.

    Vertices that carry edges are never removed: a counterexample's
    strength is its order, and any subgraph is trivially still free.
    """
    if verify_mono_cycle_free(col, n) is not True:
        raise NotACounterexample(
            f"coloring contains a monochromatic C_{n}; nothing to minimize"
        )
    col = _compact_colors(col)
    merged = True
    while merged and col.color_count > 1:
        merged = False
        for a in range(1, col.color_count + 1):
            for b in range(a + 1, col.color_count + 1):
                trial_colors = tuple(a if c == b else c for c in col.colors)
                trial = _compact_colors(
                    EdgeColoring(col.base, col.color_count, trial_colors)
                )
                if verify_mono_cycle_free(trial, n) is True:
                    col = trial
                    merged = True
                    break
            if merged:
                break
    covered = set()
    for u, v in col.base.edges:
        covered.add(u)
        covered.add(v)
    if len(covered) < col.base.vertex_count:
        col, _ = induced_coloring(col, sorted(covered))
    return col


def _compact_colors(col: EdgeColoring) -> EdgeColoring:
    used = sorted(set(col.colors))
    if len(used) == col.color_count:
        return col
    remap = {c: i + 1 for i, c in enumerate(used)}
    return EdgeColoring(
        col.base, len(used), tuple(remap[c] for c in col.colors)
    )


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
    repeatedly recolors a random edge of some currently-monochromatic
    C_n; it may find witnesses at orders the DFS cannot sweep, but its
    failures are inconclusive.
    """
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

    if k < 1:
        raise ParamOutOfRange(f"color count {k} < 1")
    if n < 3:
        raise CycleTooShort(f"cycle length {n} < 3")
    rng = random.Random(seed)
    steps_allowed = 5000 if budget is None else budget
    base = complete_graph(N)
    colors = [rng.randint(1, k) for _ in range(base.edge_count)]
    edge_index = {e: i for i, e in enumerate(base.sorted_edges)}
    for step in range(steps_allowed):
        col = EdgeColoring(base, k, tuple(colors))
        outcome = verify_mono_cycle_free(col, n)
        if outcome is True:
            return LowerBoundResult(col, False, mode, step)
        vs = outcome.cycle.vertices
        i = rng.randrange(len(vs))
        u, v = vs[i], vs[(i + 1) % len(vs)]
        e = (u, v) if u < v else (v, u)
        current = colors[edge_index[e]]
        alternatives = [c for c in range(1, k + 1) if c != current]
        if not alternatives:
            break
        colors[edge_index[e]] = rng.choice(alternatives)
    return LowerBoundResult(None, False, mode, steps_allowed)
