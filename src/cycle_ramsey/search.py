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
  colex color string, colors renamed by first appearance.  `_canonical`
  skips relabellings by the automorphisms it finds, by orbits and by
  unwinding as nauty does (B. D. McKay, "Practical graph isomorphism",
  Congr. Numer. 30 (1981)).

Why the orderly prune keeps the search complete: the string of K_{m-1}
is a prefix of the string of K_m, and a relabelling of K_{m-1} extends
to K_m by fixing m-1, so every prefix of a least string is itself least.
Each isomorphism class of mono-C_n-free colorings of K_N therefore keeps
its least member, which no prune cuts.  This is orderly generation after
R. C. Read, "Every one a winner", Ann. Discrete Math. 2 (1978), and
B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26
(1998).

The orderly prune also runs early, edge by edge, inside the column it
will test.  Column v, the edges (0, v), ..., (v-1, v) that complete
K_{v+1}, keeps the mask of the earlier columns p, 1 <= p < v, whose
colors on labels 0..u-1 equal column v's.  Coloring (u, v) with color c
is cut (one node, one orderly prune) if some such p > u has
color(u, p) > c.  It is sound: the relabelling that keeps labels
0..p-1 and gives vertex v label p writes column v's entries as its
column p, so its string equals the search's up to position (u, p) and
holds c there.  The search's string is numbered by first appearance, so
every color below color(u, p) is named before that position and c keeps
its name: the relabelled string is strictly smaller, and every
completion of column v fails `_canonical` at (v-1, v).  The early cut
thus removes only nodes the orderly prune would cut later; the DFS order
is unchanged, so it reaches the same full colorings.

With no budget cutoff an ALL_CONTAIN verdict is a proof that R_k(C_n) <= N;
every COUNTEREXAMPLE is re-verified by the independent checker before
being returned.  Checkpoints and reports name the order (`EDGE_ORDER`),
since a color prefix means nothing without it.
"""

from __future__ import annotations

import contextlib
import enum
import os
import random
import time
from dataclasses import dataclass

from .constructions import verify_mono_cycle_free
from .cycles import _closes, _mask_cycle
from .errors import (
    CycleTooShort,
    FormatError,
    ParamOutOfRange,
    TargetTooLarge,
    _ints,
    _require_int,
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
# `_canonical`'s index of position (0, j) in a colex string, and zero row
_BASES = tuple(j * (j - 1) // 2 for j in range(_MAX_HOST))
_ZEROS = (0,) * _MAX_HOST

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


_FOUND, _DONE, _CUTOFF = 0, 1, 2
_UNLIMITED = 1 << 62  # the node limit of an unbudgeted search


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
    searched, its orbit under the automorphisms found so far that fix
    the labels chosen before j needs no search.

    The identity is the first tie: candidates go in ascending order and,
    `path` being numbered by first appearance, its color is the lowest
    unnamed one at each new color.  So a later tie g, d the lowest label
    it moves, maps the finished subtree of (0..d-1, d) onto that of
    (0..d-1, g[d]), and the search unwinds to label d's candidates:
    `smaller` returns -1 for a smaller string, m when done, else d.
    """
    k = len(neigh)
    full = (1 << m) - 1
    sigma: list[int] = []  # sigma[j]: the vertex given label j
    # automorphisms found, each with the mask of the vertices it fixes
    autos: list[tuple[list[int], int]] = []
    tables: dict[tuple[int, ...], tuple[list, list]] = {}

    def table(named: tuple[int, ...]) -> tuple[list, list]:
        """For the renaming that numbers color index named[t-1] as t:
        eq[t][s], the mask of s's neighbours whose edge gets number t,
        and lt[t][s], of those whose edge gets a smaller number."""
        eq = [None] + [neigh[c] for c in named]
        # below number 1 lies nothing and below 2 the first name's row:
        # only the numbers 3..k need an OR of rows (no string holds k + 1)
        lt = [None, _ZEROS] + eq[1:2]
        for row in eq[2:k]:
            lt.append([x | y for x, y in zip(lt[-1], row)])
        tables[named] = eq, lt
        return eq, lt

    def smaller(j, a, cand, used, named, eq, lt) -> int:
        """Filter `cand` through positions (a, j), ..., (j-1, j), then
        search below each tie; `eq` and `lt` are the tables of `named`."""
        base = _BASES[j]
        nnamed = len(named)
        while a < j:
            s = sigma[a]
            t = path[base + a]
            if cand & lt[t][s]:
                return -1
            if t <= nnamed:
                cand &= eq[t][s]
                if not cand:
                    return m
                a += 1
                continue
            # t is the string's next new color: each unnamed one may be it
            for c in range(k):
                sub = cand & neigh[c][s]
                if sub and c not in named:
                    more = named + (c,)
                    eq, lt = tables.get(more) or table(more)
                    r = smaller(j, a + 1, sub, used, more, eq, lt)
                    if r < j:
                        return r
            return m
        if j + 1 == m:  # cand is the last vertex: the relabelling ties
            g = sigma + [cand.bit_length() - 1]
            fixed = 0
            for x in range(m):
                if g[x] == x:
                    fixed |= 1 << x
            if fixed != full:
                autos.append((g, fixed))
            return (fixed + 1 & ~fixed).bit_length() - 1  # m for the identity
        gens: list[list[int]] = []
        known = seen = 0
        while cand:
            b = cand & -cand
            cand ^= b
            if seen & b:
                continue
            sigma.append(b.bit_length() - 1)
            r = smaller(j + 1, 0, full & ~(used | b), used | b, named, eq, lt)
            sigma.pop()
            if r < j:
                return r
            if not cand:
                return m
            todo = b
            if len(autos) > known:
                gens += [g for g, fixed in autos[known:] if not used & ~fixed]
                known = len(autos)
                todo |= seen
            seen = _orbit_closure(seen | b, todo, gens) if gens else seen | b
        return m

    eq, lt = table(())
    r = smaller(0, 0, full, 0, (), eq, lt)
    del smaller  # it refers to itself: break the cycle so refcounting frees it
    return r >= 0


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


def _least_color(neigh: list[list[int]], u: int, agree: int, maxused: int) -> int:
    """The largest color index that an earlier column p in `agree`
    carries at (u, p): coloring (u, v) with a smaller one makes column v
    lose to column p (the early cut of the module docstring).  `agree`
    holds no p < u, and bit u is in no row of `neigh[c][u]`."""
    c = maxused - 1
    while c and not neigh[c][u] & agree:
        c -= 1
    return c


def _aggregate(
    k: int, n: int, N: int, prefixes, budget: int | None
) -> SearchResult:
    """Exhaust the subtrees below `prefixes`, in order, as one search.

    The budget is shared: once it is spent, the remaining prefixes pass
    to the open frontier unchanged, though the first one is always
    searched so that every leg of a chain makes progress.  A non-empty
    prefix's last color is a node its parent deferred (a cutoff reports
    it uncounted), so it is counted here.  A prefix is rebuilt edge by
    edge with `place`, the DFS's own step, prunes included: a checkpoint
    written before the orderly tests existed, or written by hand, may
    hold a prefix that one of them cuts, and its subtree holds no
    class's least member, so it counts as one prune.  Raises
    FormatError on a prefix longer than the edge order or on colors
    that break the first-appearance rule: such a prefix cannot have
    come from this search.
    """
    t0 = time.perf_counter()
    # per colex edge: its endpoints, their bits, the m whose K_m it
    # completes when the orderly test runs there (3 <= m < N), else 0,
    # and, opening a column that test will check, the early cut's first
    # mask of agreeing columns 1..v-1, else 0
    bits = [
        (
            u, v, 1 << u, 1 << v,
            v + 1 if u == v - 1 and 3 <= v + 1 < N else 0,
            (1 << v) - 2 if u == 0 and 3 <= v + 1 < N else 0,
        )
        for u, v in edge_order(N)
    ]
    M = len(bits)
    limit = _UNLIMITED if budget is None else budget
    open_out: list[tuple[int, ...]] = []
    neigh: list[list[int]] = []
    path: list[int] = []
    nodes = prunes = sym = orderly = 0

    def place(i: int, c: int, maxused: int, agree: int) -> int:
        """Color edge i with color index c and return the early cut's
        mask of agreeing columns after it, or count the prune that cuts
        it and return -1 with nothing colored."""
        nonlocal prunes, orderly
        u, v, bu, bv, m, start = bits[i]
        if not u:
            agree = start
        if agree and c < _least_color(neigh, u, agree, maxused):
            orderly += 1
            return -1
        masks = neigh[c]
        if _closes(masks, u, v, n - 1):
            prunes += 1
            return -1
        masks[u] |= bv
        masks[v] |= bu
        path.append(c + 1)
        if m and not _canonical(neigh, m, path):
            orderly += 1
            unplace(i)
            return -1
        return agree & masks[u]

    def unplace(i: int) -> None:
        u, v, bu, bv, _, _ = bits[i]
        masks = neigh[path.pop() - 1]
        masks[u] ^= bv
        masks[v] ^= bu

    def rec(i: int, maxused: int, agree: int) -> int:
        nonlocal nodes, sym
        if i == M:
            return _FOUND
        top = k if maxused >= k else maxused + 1
        sym += k - top
        for c in range(top):
            if nodes >= limit:
                open_out.extend(tuple(path) + (cc + 1,) for cc in range(c, top))
                return _CUTOFF
            nodes += 1
            below = place(i, c, maxused, agree)
            if below < 0:
                continue
            r = rec(i + 1, c + 1 if c == maxused else maxused, below)
            if r == _FOUND:
                return _FOUND
            unplace(i)
            if r == _CUTOFF:
                open_out.extend(tuple(path) + (cc + 1,) for cc in range(c + 1, top))
                return _CUTOFF
        return _DONE

    r = _DONE
    cut = False
    for j, prefix in enumerate(prefixes):
        if j and nodes >= limit:
            open_out.append(prefix)
            cut = True
            continue
        if len(prefix) > M:
            raise FormatError(
                f"prefix of {len(prefix)} colors exceeds the {M} edges of K_{N}"
            )
        if prefix:
            nodes += 1
        neigh = [[0] * N for _ in range(k)]
        path = []
        maxused = agree = 0
        for i, color in enumerate(prefix):
            if not 1 <= color <= min(k, maxused + 1):
                raise FormatError(
                    f"prefix color {color} at edge {i} breaks canonical order"
                )
            agree = place(i, color - 1, maxused, agree)
            if agree < 0:
                break
            maxused = max(maxused, color)
        else:
            r = rec(len(prefix), maxused, agree)
            if r == _FOUND:
                break
            if r == _CUTOFF:
                cut = True

    del rec  # it refers to itself: break the cycle so refcounting frees it
    stats = SearchStats(nodes, prunes, sym, orderly, time.perf_counter() - t0)
    if r == _FOUND:
        col = make_coloring(complete_graph(N), k, dict(zip(edge_order(N), path)))
        if verify_mono_cycle_free(col, n) is not True:
            raise AssertionError("counterexample failed independent re-verification")
        return SearchResult(SearchVerdict.COUNTEREXAMPLE, k, n, N, col, stats)
    if cut:
        return SearchResult(
            SearchVerdict.INDETERMINATE, k, n, N, None, stats, tuple(open_out)
        )
    return SearchResult(SearchVerdict.ALL_CONTAIN, k, n, N, None, stats)


def _validate_instance(k: int, n: int, N: int, max_host: int = _MAX_HOST) -> None:
    # a float or bool would pass the range checks below and end in a
    # report, a checkpoint or a TypeError deep in the search
    _require_int("color count", k)
    _require_int("cycle length", n)
    _require_int("host order", N)
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
    if budget is None:
        return
    _require_int("budget", budget)
    if budget < 0:
        raise ParamOutOfRange(f"budget {budget} < 0")


def _validate_threads(threads: int) -> None:
    # True == 1.0 == 1, so the type is checked first
    _require_int("threads", threads)
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
    return resume_search(k, n, N, [()], budget=budget, threads=threads)


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
    only 1, as in `ramsey_check`.  An empty frontier is refused, as
    `read_checkpoint` refuses one: it would resume into a false proof.
    A prefix color that is not an int, a bool included, is refused with
    InvalidParams, as a k, n, N or budget of that kind is.
    """
    _validate_instance(k, n, N)
    _validate_budget(budget)
    _validate_threads(threads)
    prefixes = tuple(prefixes)
    if not prefixes:
        raise ParamOutOfRange("empty frontier: an open frontier is never empty")
    for prefix in prefixes:
        for color in prefix:
            _require_int("prefix color", color)
    return _aggregate(k, n, N, prefixes, budget)


def _checkpoint_temp(path: str) -> str:
    """The file beside `path` that `write_checkpoint` renames onto it."""
    return f"{path}.{os.getpid()}.tmp"


def _prefix_line(prefix: tuple[int, ...]) -> str:
    """The `prefix <edge-index> <color-list>` line of an open prefix, as
    search reports and checkpoints write it."""
    return f"prefix {len(prefix)} {' '.join(map(str, prefix))}"


def write_checkpoint(path: str, result: SearchResult) -> None:
    """Persist the open subtrees of an INDETERMINATE result: a
    `checkpoint <k> <n> <N> colex` header line, one `prefix
    <edge-index> <color-list>` line each, then `end <count>`.

    Only an interrupted run has a frontier to resume; a finished one
    would write an empty frontier, which would resume into a proof.
    The file is written beside `path` under a temporary name and then
    renamed onto it, so a write that fails or is interrupted leaves an
    earlier checkpoint at `path` whole (a run may resume from the file
    it then overwrites).
    """
    if result.verdict is not SearchVerdict.INDETERMINATE:
        raise ParamOutOfRange(
            f"only an INDETERMINATE result has a checkpoint, not {result.verdict.value}"
        )
    tmp = _checkpoint_temp(path)
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"checkpoint {result.k} {result.n} {result.N} {EDGE_ORDER}\n")
            for p in result.open_prefixes:
                fh.write(f"{_prefix_line(p)}\n")
            fh.write(f"end {len(result.open_prefixes)}\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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
    proof.  Integers are read by the file parsers' `_ints`.
    """
    with open(path, "rb") as fh:
        lines = ascii_text(fh.read()).splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 5 or header[0] != "checkpoint":
        raise FormatError(f"line 1: expected 'checkpoint <k> <n> <N> {EDGE_ORDER}'")
    written = tuple(_ints(header[1:4], 1))
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
        index, *colors = _ints(parts[1:], lineno)
        if index != len(colors):
            raise FormatError(
                f"line {lineno}: edge index {index} != {len(colors)} colors"
            )
        if any(c < 1 for c in colors):
            raise FormatError(f"line {lineno}: colors must be >= 1")
        prefixes.append(tuple(colors))
    if not ended:
        raise FormatError("no 'end <count>' line: the checkpoint is truncated")
    if not prefixes:
        raise FormatError("checkpoint has no prefixes: an open frontier is never empty")
    return tuple(prefixes)


class WitnessMode(enum.Enum):
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class LowerBoundResult:
    """Outcome of a randomized lower-bound hunt.  A None coloring says
    nothing either way; `steps` counts the recolorings made."""

    coloring: EdgeColoring | None
    steps: int


def lower_bound_witness_search(
    k: int,
    n: int,
    N: int,
    *,
    mode: WitnessMode = WitnessMode.RANDOMIZED,
    budget: int | None = None,
    seed: int = 0,
) -> LowerBoundResult:
    """Hunt for a k-coloring of K_N with no monochromatic C_n.

    Starts from a seeded random coloring and repeatedly recolors a
    random edge of the monochromatic C_n that `verify_mono_cycle_free`
    would report; it may find witnesses at orders the DFS cannot sweep,
    but its failures are inconclusive (`ramsey_check` decides either
    way).  A witness is re-verified by `verify_mono_cycle_free` before it
    is returned.  `mode` accepts only RANDOMIZED and stays only because
    perfbench's workloads still pass it.
    """
    if mode is not WitnessMode.RANDOMIZED:
        raise ParamOutOfRange(f"mode {mode!r}: the hunt is randomized only")
    _validate_budget(budget)
    # K_N and its per-colour masks cost time and memory quadratic in N,
    # so N is checked first and capped like a file or construction
    _validate_instance(k, n, N, max_host=_MAX_ORDER)
    rng = random.Random(seed)
    steps_allowed = 5000 if budget is None else budget
    base = complete_graph(N)
    # Per-colour neighbour masks, the only copy of the colouring, updated
    # in place on each recolouring, and each colour's cached least C_n
    # from the kernel, the cycle `verify_mono_cycle_free` reports for
    # that class; a recolouring drops the cache of its two colours only.
    neigh = [[0] * N for _ in range(k)]
    for u, v in base.sorted_edges:
        masks = neigh[rng.randint(1, k) - 1]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    found: dict[int, list[int] | None] = {}
    for step in range(steps_allowed):
        vs = None
        for c in range(k):
            if c not in found:
                found[c] = _mask_cycle(neigh[c], N, n, n)
            vs = found[c]
            if vs is not None:
                break
        if vs is None:
            col = EdgeColoring(base, k, tuple(
                next(c for c in range(k) if neigh[c][u] >> v & 1) + 1
                for u, v in base.sorted_edges
            ))
            if verify_mono_cycle_free(col, n) is not True:
                raise AssertionError("hunt witness failed independent re-verification")
            return LowerBoundResult(col, step)
        i = rng.randrange(len(vs))
        u, v = vs[i], vs[(i + 1) % len(vs)]
        # the edge lies on colour c's cycle, so its colour is c + 1
        alternatives = [x for x in range(1, k + 1) if x != c + 1]
        if not alternatives:
            return LowerBoundResult(None, step)
        new = rng.choice(alternatives)
        for d in (c, new - 1):
            neigh[d][u] ^= 1 << v
            neigh[d][v] ^= 1 << u
            found.pop(d, None)
    return LowerBoundResult(None, steps_allowed)
