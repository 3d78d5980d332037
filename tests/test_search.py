"""Exhaustive coloring search: verdicts, the orderly canonicity test,
budgets, checkpoints, and the lower-bound hunt."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    CycleTooShort,
    EdgeColoring,
    FormatError,
    ParamOutOfRange,
    SearchVerdict,
    TargetTooLarge,
    WitnessMode,
    complete_graph,
    edge_order,
    lower_bound_witness_search,
    ramsey_check,
    read_checkpoint,
    resume_search,
    verify_mono_cycle_free,
    write_checkpoint,
)
from cycle_ramsey import search
from cycle_ramsey.search import _canonical

from strategies import plain_dfs_cycle, reference_canonical, symmetric_strings


def counters(res) -> tuple[int, int, int, int]:
    s = res.stats
    return s.nodes, s.cycle_prunes, s.symmetry_prunes, s.orderly_prunes


def naive_free_colorings(k: int, n: int, N: int):
    """Total enumeration of every k-coloring of K_N, no pruning at all:
    each coloring is tested against the edge sets of all C_n in K_N,
    listed once up front (first vertex smallest, one direction).  Yields
    the colorings with no monochromatic C_n, as color tuples (0..k-1)
    over the edges of K_N in lexicographic order."""
    index = {e: i for i, e in enumerate(itertools.combinations(range(N), 2))}
    cycles = []
    for first, *rest in itertools.combinations(range(N), n):
        for perm in itertools.permutations(rest):
            if perm[0] < perm[-1]:
                ring = (first, *perm, first)
                cycles.append([index[min(e), max(e)] for e in zip(ring, ring[1:])])
    for combo in itertools.product(range(k), repeat=len(index)):
        if not any(len({combo[e] for e in cycle}) == 1 for cycle in cycles):
            yield combo


def naive_all_contain(k: int, n: int, N: int) -> bool:
    return next(naive_free_colorings(k, n, N), None) is None


def relabelled_string(color, m: int, perm) -> tuple[int, ...]:
    """The colex color string of K_m with vertex perm[j] given label j,
    colors renamed by first appearance; `color` maps edges (u < v)."""
    names: dict = {}
    return tuple(
        names.setdefault(color[min(perm[a], perm[b]), max(perm[a], perm[b])],
                         len(names) + 1)
        for a, b in edge_order(m)
    )


def least_string(color, m: int) -> tuple[int, ...]:
    return min(relabelled_string(color, m, p) for p in itertools.permutations(range(m)))


def brute_canonical(string, m: int) -> bool:
    """The oracle: no one of the m! relabellings gives a smaller string."""
    color = dict(zip(edge_order(m), string))
    return least_string(color, m) == tuple(string)


def orderly_test(k: int, m: int, string, canonical=_canonical) -> bool:
    """`_canonical`, or another test with its arguments, on the K_m
    coloring whose colex string is `string`."""
    neigh = [[0] * m for _ in range(k)]
    for (u, v), c in zip(edge_order(m), string):
        neigh[c - 1][u] |= 1 << v
        neigh[c - 1][v] |= 1 << u
    return canonical(neigh, m, string)


@st.composite
def first_appearance_strings(draw, max_order: int = 6, max_colors: int = 3):
    """(k, m, string): a colex string of a k-coloring of K_m with colors
    numbered by first appearance, as the search writes them."""
    k = draw(st.integers(1, max_colors))
    m = draw(st.integers(3, max_order))
    size = m * (m - 1) // 2
    raw = draw(st.lists(st.integers(1, k), min_size=size, max_size=size))
    names: dict[int, int] = {}
    return k, m, tuple(names.setdefault(c, len(names) + 1) for c in raw)


# --------------------------------------------------------------------------
# edge orders and validation


def test_edge_orders():
    # colex: K_m is complete before vertex m is touched
    assert edge_order(4) == (
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
    )


def test_instance_validation():
    with pytest.raises(ParamOutOfRange):
        ramsey_check(0, 3, 5)
    with pytest.raises(CycleTooShort):
        ramsey_check(2, 2, 5)
    with pytest.raises(ParamOutOfRange):
        ramsey_check(2, 3, 0)
    with pytest.raises(TargetTooLarge):
        ramsey_check(2, 3, 19)


# --------------------------------------------------------------------------
# verdicts


def test_two_color_triangle_threshold():
    below = ramsey_check(2, 3, 5)
    assert below.verdict is SearchVerdict.COUNTEREXAMPLE
    assert verify_mono_cycle_free(below.counterexample, 3) is True
    at = ramsey_check(2, 3, 6)
    assert at.verdict is SearchVerdict.ALL_CONTAIN
    assert at.counterexample is None


def test_two_color_c4_threshold():
    assert ramsey_check(2, 4, 5).verdict is SearchVerdict.COUNTEREXAMPLE
    assert ramsey_check(2, 4, 6).verdict is SearchVerdict.ALL_CONTAIN


def test_host_smaller_than_cycle_is_trivially_free():
    res = ramsey_check(1, 3, 2)
    assert res.verdict is SearchVerdict.COUNTEREXAMPLE
    assert res.counterexample.base.vertex_count == 2


def test_single_color_forces_cycle():
    assert ramsey_check(1, 3, 3).verdict is SearchVerdict.ALL_CONTAIN


def test_monotone_in_host_order():
    # once every coloring contains the cycle, larger hosts stay that way
    assert ramsey_check(2, 3, 6).verdict is SearchVerdict.ALL_CONTAIN
    assert ramsey_check(2, 3, 7).verdict is SearchVerdict.ALL_CONTAIN


@pytest.mark.parametrize(
    "k,n,N",
    [
        (2, 3, 4),
        (2, 3, 5),
        (2, 4, 4),
        (2, 4, 5),
        (2, 5, 5),
        (3, 3, 4),
        (3, 4, 4),
        (1, 4, 4),
        (2, 3, 6),
        (2, 4, 6),
    ],
)
def test_agrees_with_total_enumeration(k, n, N):
    expect = naive_all_contain(k, n, N)
    res = ramsey_check(k, n, N)
    assert (res.verdict is SearchVerdict.ALL_CONTAIN) == expect
    if not expect:
        assert verify_mono_cycle_free(res.counterexample, n) is True


def test_determinism_and_stats():
    a = ramsey_check(2, 5, 8)
    b = ramsey_check(2, 5, 8)
    assert a.verdict is SearchVerdict.COUNTEREXAMPLE
    assert a.counterexample == b.counterexample
    assert a.stats.nodes == b.stats.nodes == 207
    assert a.stats.cycle_prunes > 0 and a.stats.symmetry_prunes > 0
    assert a.stats.orderly_prunes > 0


@pytest.mark.parametrize(
    "n,N,triple",
    [
        (3, 6, (65, 26, 1, 7)),
        (3, 5, (47, 20, 1, 1)),
        (4, 6, (95, 32, 1, 16)),
        (4, 5, (19, 7, 1, 0)),
        (6, 7, (29, 8, 1, 0)),
        (5, 8, (207, 81, 1, 16)),
        (7, 12, (907, 322, 1, 116)),
        (7, 13, (8417, 2059, 1, 2150)),
        (6, 8, (1359, 396, 1, 284)),
        (5, 9, (575, 162, 1, 126)),
    ],
)
def test_certify_counters_are_pinned(n, N, triple):
    # `triple`: (nodes, cycle prunes, symmetry prunes) of the two-colour
    # searches, then orderly prunes.  A faster closure or canonicity test
    # must leave the search tree as it is.  The C_7 rows run the closure
    # test three DFS levels deep; the rows above reach two at most.
    assert counters(ramsey_check(2, n, N)) == triple


@pytest.mark.slow
def test_two_color_c8_value_is_eleven():
    # R_2(C_8) = 11 on both sides, with the counters pinned as above
    below = ramsey_check(2, 8, 10)
    assert below.verdict is SearchVerdict.COUNTEREXAMPLE
    assert verify_mono_cycle_free(below.counterexample, 8) is True
    assert counters(below) == (63, 12, 1, 6)
    at = ramsey_check(2, 8, 11)
    assert at.verdict is SearchVerdict.ALL_CONTAIN
    assert counters(at) == (42331, 10352, 1, 10814)


@pytest.mark.parametrize(
    "k,n,N", [(3, 4, 10), (3, 6, 10), (3, 6, 11), (2, 7, 11), (2, 8, 10)]
)
def test_orderly_search_keeps_the_counterexamples(k, n, N):
    # the plain colex search finds a coloring on each of these hosts
    res = ramsey_check(k, n, N)
    assert res.verdict is SearchVerdict.COUNTEREXAMPLE
    assert res.counterexample.base.vertex_count == N
    assert verify_mono_cycle_free(res.counterexample, n) is True
    chain = ramsey_check(k, n, N, budget=100)
    while chain.verdict is SearchVerdict.INDETERMINATE:
        chain = resume_search(k, n, N, chain.open_prefixes, budget=100)
    assert (chain.verdict, chain.counterexample) == (res.verdict, res.counterexample)


@pytest.mark.parametrize("n,N", [(5, 9), (6, 8)])
def test_orderly_search_certifies_in_few_nodes(n, N):
    # the plain colex search needed 57,181 and 449,121 nodes
    res = ramsey_check(2, n, N)
    assert res.verdict is SearchVerdict.ALL_CONTAIN
    assert res.stats.nodes <= 5000 and res.stats.orderly_prunes > 0


# --------------------------------------------------------------------------
# the orderly canonicity test


@given(first_appearance_strings())
@settings(max_examples=100, deadline=None)
def test_canonicity_matches_brute_force(case):
    k, m, string = case
    assert orderly_test(k, m, string) == brute_canonical(string, m)
    least = least_string(dict(zip(edge_order(m), string)), m)
    assert orderly_test(k, m, least)


@given(first_appearance_strings())
@settings(max_examples=100, deadline=None)
def test_canonical_colorings_have_canonical_prefixes(case):
    # the hereditary lemma behind the prune's completeness
    k, m, string = case
    least = least_string(dict(zip(edge_order(m), string)), m)
    for s in (string, least):
        if orderly_test(k, m, s):
            assert orderly_test(k, m - 1, s[: (m - 1) * (m - 2) // 2])


@given(symmetric_strings())
# K_3 and K_4 in color 1 joined in color 2: the tie with vertex 1 at
# label 0 is an automorphism, and label 0 must still go on to vertex 3
@example((2, 7, (1, 1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 1, 1, 2, 2, 2, 1, 1, 1)))
@settings(max_examples=300, deadline=None)
def test_canonicity_matches_the_reference_on_symmetric_strings(case):
    # The return to the first label an automorphism moves skips only
    # subtrees the automorphism maps from finished ones, so it changes no
    # answer; large automorphism groups make it jump most.
    k, m, string = case
    assert orderly_test(k, m, string) == orderly_test(
        k, m, string, reference_canonical
    )


@given(symmetric_strings(max_order=7))
@settings(max_examples=60, deadline=None)
def test_canonicity_on_symmetric_strings_matches_brute_force(case):
    k, m, string = case
    assert orderly_test(k, m, string) == brute_canonical(string, m)


@pytest.mark.parametrize("k,m", [(3, 4), (3, 5), (2, 6)])
def test_canonicity_is_exact_on_every_small_coloring(k, m):
    # Every first-appearance string of K_m: the canonical ones are the
    # least of their relabelling orbits, found by listing each orbit once.
    perms = list(itertools.permutations(range(m)))
    strings = set()
    for raw in itertools.product(range(1, k + 1), repeat=m * (m - 1) // 2 - 1):
        names: dict[int, int] = {1: 1}
        strings.add((1,) + tuple(names.setdefault(c, len(names) + 1) for c in raw))
    least, seen = set(), set()
    for s in sorted(strings):
        if s not in seen:
            color = dict(zip(edge_order(m), s))
            orbit = {relabelled_string(color, m, p) for p in perms}
            seen |= orbit
            least.add(min(orbit))
    assert {s for s in strings if orderly_test(k, m, s)} == least


@pytest.mark.parametrize(
    "k,n,N", [(2, 3, 5), (2, 4, 5), (3, 3, 4), (3, 4, 4)]
)
def test_least_member_of_every_class_survives_the_prune(k, n, N):
    # Completeness: each C_n-free coloring's least relabelled string is
    # canonical at every K_m boundary, so the search never cuts it.
    lex = list(itertools.combinations(range(N), 2))
    seen = set()
    for combo in naive_free_colorings(k, n, N):
        least = least_string(dict(zip(lex, combo)), N)
        if least in seen:
            continue
        seen.add(least)
        for m in range(3, N + 1):
            assert orderly_test(k, m, least[: m * (m - 1) // 2])
    assert seen


def column_loses(string, v: int, u: int) -> bool:
    """The early cut's condition at (u, v) of a colex string: some
    earlier column p > u agrees with column v on labels 0..u-1 and has a
    larger color at (u, p)."""
    color = dict(zip(edge_order(v + 1), string))
    return any(
        all(color[a, p] == color[a, v] for a in range(u))
        and color[u, p] > color[u, v]
        for p in range(u + 1, v)
    )


@pytest.mark.parametrize(
    "k,m,losing",
    [(2, 3, 0), (2, 4, 2), (2, 5, 40), (2, 6, 304), (3, 3, 0), (3, 4, 18),
     (3, 5, 495)],
)
def test_early_cut_fires_only_where_every_completion_is_non_least(k, m, losing):
    # Every first-appearance string of K_m whose K_{m-1} is least.  The
    # search's replay cuts a prefix of the last column exactly where the
    # condition holds at one of its edges, and then no completion of the
    # column is the least of its relabelling orbit.  `losing` strings
    # have such a prefix.
    v = m - 1
    base = v * (v - 1) // 2
    inner = {least_string(dict(zip(edge_order(v), s)), v)
             for s in itertools.product(range(1, k + 1), repeat=base)}
    strings = set()
    for head in inner:
        for column in itertools.product(range(1, k + 1), repeat=v):
            names = {c: c for c in head}
            string = head + tuple(names.setdefault(c, len(names) + 1) for c in column)
            if max(string) <= k:
                strings.add(string)
    perms = list(itertools.permutations(range(m)))
    fired = 0
    for string in strings:
        cut = False
        for u in range(v - 1):  # (v-1, v) runs `_canonical` as well
            prefix = string[: base + u + 1]
            # C_{m+2} cannot close in K_{m+1}: only the orderly tests cut
            res = resume_search(k, m + 2, m + 1, [prefix], budget=0)
            cut = cut or column_loses(string, v, u)
            assert (res.verdict is SearchVerdict.ALL_CONTAIN) == cut, prefix
            assert (res.stats.nodes, res.stats.orderly_prunes) == (1, cut)
        if cut:
            fired += 1
            color = dict(zip(edge_order(m), string))
            assert any(relabelled_string(color, m, p) < string for p in perms)
    assert fired == losing


def test_canonical_census_of_r2_c7_is_pinned(monkeypatch):
    # The K_m colorings `_canonical` accepts, per m, while certifying
    # R_2(C_7) <= 13.  A prune that only cuts what the orderly test would
    # reject leaves them as they are; m = 3..6 is A007869.
    accepted: dict[int, int] = {}
    real = search._canonical

    def counting(neigh, m, path):
        ok = real(neigh, m, path)
        accepted[m] = accepted.get(m, 0) + ok
        return ok

    monkeypatch.setattr(search, "_canonical", counting)
    assert ramsey_check(2, 7, 13).verdict is SearchVerdict.ALL_CONTAIN
    assert accepted == {3: 2, 4: 6, 5: 18, 6: 78, 7: 178, 8: 140, 9: 36,
                        10: 10, 11: 6, 12: 2}


def test_canonical_agrees_with_the_reference_on_the_search_calls(monkeypatch):
    # every K_m the certify searches and R_2(C_7) <= 13 test, answered
    # the same with and without the return to the first moved label
    calls = 0
    real = search._canonical

    def checked(neigh, m, path):
        nonlocal calls
        calls += 1
        ok = real(neigh, m, path)
        assert ok == reference_canonical(neigh, m, path), (m, path[: m * (m - 1) // 2])
        return ok

    monkeypatch.setattr(search, "_canonical", checked)
    for n, R in ((3, 6), (4, 6), (6, 8), (5, 9)):
        for N in (R, R - 1):
            ramsey_check(2, n, N)
    assert calls == 349
    ramsey_check(2, 7, 13)
    assert calls == 349 + 1278


# --------------------------------------------------------------------------
# budgets, checkpoints, resume


def test_budget_produces_resumable_frontier(tmp_path):
    first = ramsey_check(2, 5, 8, budget=50)
    assert first.verdict is SearchVerdict.INDETERMINATE
    assert first.counterexample is None
    assert first.open_prefixes
    # every open prefix is a valid canonical color sequence
    for p in first.open_prefixes:
        assert all(c >= 1 for c in p)

    path = tmp_path / "search.ckpt"
    write_checkpoint(str(path), first)
    prefixes = read_checkpoint(str(path))
    assert prefixes == first.open_prefixes

    done = resume_search(2, 5, 8, prefixes)
    assert done.verdict is SearchVerdict.COUNTEREXAMPLE
    assert verify_mono_cycle_free(done.counterexample, 5) is True


def test_budget_cutoff_is_deterministic():
    a = ramsey_check(2, 5, 8, budget=120)
    b = ramsey_check(2, 5, 8, budget=120)
    assert a.open_prefixes == b.open_prefixes
    assert a.stats.nodes == b.stats.nodes


def test_resume_on_closed_frontier_confirms_all_contain():
    # the canonical rule forces color 1 on the first edge, so the single
    # prefix (1,) covers the whole tree
    res = resume_search(2, 3, 6, [(1,)])
    assert res.verdict is SearchVerdict.ALL_CONTAIN


@pytest.mark.parametrize("budget", [0, 1, 7, 50, 1000])
@pytest.mark.parametrize(
    "k,n,N", [(2, 4, 6), (2, 5, 8), (3, 3, 5), (2, 5, 9), (3, 6, 10)]
)
def test_checkpoint_chain_counts_the_one_shot_search(k, n, N, budget):
    # Resuming each leg's open frontier until a verdict visits exactly the
    # one-shot tree: the same node, cycle-prune and symmetry-prune totals,
    # verdict and counterexample.  A budget of 0 still makes progress,
    # one node a leg, so every node is then rebuilt from its prefix.
    # Rebuilt prefixes are cut by every prune: (2,5,9) makes 83 early
    # cuts and 43 failed canonicity tests, (3,6,10) 13 early cuts with
    # three colors.
    one = ramsey_check(k, n, N)
    res = ramsey_check(k, n, N, budget=budget)
    legs = [res]
    while res.verdict is SearchVerdict.INDETERMINATE:
        res = resume_search(k, n, N, res.open_prefixes, budget=budget)
        legs.append(res)
    totals = tuple(map(sum, zip(*(counters(leg) for leg in legs))))
    assert totals == counters(one)
    assert (res.verdict, res.counterexample) == (one.verdict, one.counterexample)


def test_checkpoint_chain_through_files_counts_the_one_shot_search(tmp_path):
    # Every leg writes its frontier, reads it back and resumes from the
    # file, as `search --resume` does: 12 legs of 50 nodes end in the
    # one-shot verdict and counters of R_2(C_5) <= 9.
    path = str(tmp_path / "chain.ckpt")
    res = ramsey_check(2, 5, 9, budget=50)
    legs = [res]
    while res.verdict is SearchVerdict.INDETERMINATE:
        write_checkpoint(path, res)
        prefixes = read_checkpoint(path, (2, 5, 9))
        assert prefixes == res.open_prefixes
        res = resume_search(2, 5, 9, prefixes, budget=50)
        legs.append(res)
    assert len(legs) == 12
    assert res.verdict is SearchVerdict.ALL_CONTAIN
    assert tuple(map(sum, zip(*map(counters, legs)))) == (575, 162, 1, 126)


def test_spent_budget_passes_prefixes_through():
    # Once the leg's budget is spent, later prefixes are neither replayed
    # nor expanded: the frontier stays as small as the input.
    first = ramsey_check(2, 5, 8, budget=50)
    res = resume_search(2, 5, 8, first.open_prefixes, budget=1)
    rest = first.open_prefixes[1:]
    assert res.stats.nodes == 1 and rest
    assert res.open_prefixes[-len(rest):] == rest


class FailingFile:
    """A text file whose second `write` raises `exc`, as a full disk or
    an interrupt would midway through a checkpoint."""

    def __init__(self, fh, exc):
        self.fh, self.exc, self.writes = fh, exc, 0

    def __enter__(self):
        return self

    def __exit__(self, *info):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise self.exc
        return self.fh.write(text)


@pytest.mark.parametrize(
    "exc", [OSError(28, "No space left on device"), KeyboardInterrupt()]
)
def test_a_failed_checkpoint_write_keeps_the_old_checkpoint(
    tmp_path, monkeypatch, exc
):
    # Overwriting a checkpoint (resuming from the file the next leg
    # writes) must not lose it if the write stops midway: the old file
    # reads back unchanged and no temporary file is left beside it.
    path = tmp_path / "ck.txt"
    first = ramsey_check(2, 5, 9, budget=50)
    write_checkpoint(str(path), first)
    later = resume_search(2, 5, 9, first.open_prefixes, budget=50)
    assert later.open_prefixes not in ((), first.open_prefixes)
    with monkeypatch.context() as mp:
        mp.setattr(search, "open", lambda *a, **kw: FailingFile(open(*a, **kw), exc),
                   raising=False)
        with pytest.raises(type(exc)):
            write_checkpoint(str(path), later)
    assert read_checkpoint(str(path), (2, 5, 9)) == first.open_prefixes
    assert list(tmp_path.iterdir()) == [path]
    write_checkpoint(str(path), later)
    assert read_checkpoint(str(path), (2, 5, 9)) == later.open_prefixes
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_format_round_trip(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("checkpoint 2 5 8 colex\nprefix 3 1 2 1\n\nprefix 1 1\nend 2\n")
    assert read_checkpoint(str(path)) == ((1, 2, 1), (1,))
    assert read_checkpoint(str(path), (2, 5, 8)) == ((1, 2, 1), (1,))


@pytest.mark.parametrize(
    "text",
    [
        "prefix 2 1\n",          # count mismatch
        "subtree 1 1\n",          # wrong keyword
        "prefix x 1\n",           # non-integer index
        "prefix 1 +1\n",          # sign on a color
        "prefix 1_0 1\n",         # digit separator in the index
        "prefix 1 0\n",           # colors must be >= 1
        "prefix\n",               # missing index
    ],
)
def test_checkpoint_rejects_malformed_lines(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text("checkpoint 2 5 8 colex\n" + text + "end 1\n")
    with pytest.raises(FormatError, match="line 2"):
        read_checkpoint(str(path))


@pytest.mark.parametrize(
    "text",
    [
        "prefix 1 1\n",                    # no header at all
        "",                                # empty file
        "checkpoint 2 5 8\nprefix 1 1\n",  # header without an order
        "checkpoint 2 x 8 colex\n",        # non-integer n
        "checkpoint 2 5 +8 colex\n",       # signed N
    ],
)
def test_checkpoint_requires_header(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match="line 1"):
        read_checkpoint(str(path))


@pytest.mark.parametrize(
    "body",
    [
        "",                                    # header only
        "prefix 1 1\n",                        # no end line
        "prefix 1 1\nprefix 2 1 2\nend 1\n",   # end disagrees with the count
        "prefix 1 1\nend 1\nprefix 2 1 2\n",   # end is not the last line
        "prefix 1 1\nend 1\nend 1\n",          # a second end line
        "prefix 1 1\nend\n",                   # end without a count
        "end 0\n",                             # empty frontier
    ],
    ids=["header-only", "no-end", "miscount", "not-last", "two-ends", "bare-end",
         "empty"],
)
def test_checkpoint_rejects_truncated_frontier(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("checkpoint 2 5 8 colex\n" + body)
    with pytest.raises(FormatError):
        read_checkpoint(str(path))


def test_checkpoint_with_a_dropped_prefix_line_is_rejected(tmp_path):
    path = tmp_path / "search.ckpt"
    write_checkpoint(str(path), ramsey_check(2, 5, 8, budget=50))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[-1].startswith("end ") and len(lines) > 3
    path.write_text("".join(lines[:1] + lines[2:]))
    with pytest.raises(FormatError, match="expected 'end"):
        read_checkpoint(str(path))


@pytest.mark.parametrize("N", [5, 6], ids=["counterexample", "all-contain"])
def test_finished_result_has_no_checkpoint(tmp_path, N):
    path = tmp_path / "search.ckpt"
    with pytest.raises(ParamOutOfRange, match="INDETERMINATE"):
        write_checkpoint(str(path), ramsey_check(2, 4, N))
    assert not path.exists()


def test_resume_of_empty_frontier_is_refused():
    # K_8 has a C_5-free 2-coloring: an empty frontier must not resume
    # into a proof that it has none
    for budget in (None, 5):
        with pytest.raises(ParamOutOfRange, match="empty frontier"):
            resume_search(2, 5, 8, [], budget=budget)


@pytest.mark.parametrize(
    "instance", [(2, 5, 9), (2, 4, 8), (3, 5, 8), (2, 6, 8)]
)
def test_checkpoint_rejects_other_instance(tmp_path, instance):
    path = tmp_path / "search.ckpt"
    write_checkpoint(str(path), ramsey_check(2, 5, 8, budget=50))
    assert path.read_text().startswith("checkpoint 2 5 8 colex\n")
    with pytest.raises(FormatError, match="checkpoint is for k=2 n=5 N=8"):
        read_checkpoint(str(path), instance)


@pytest.mark.parametrize("instance", [None, (2, 5, 8)])
def test_checkpoint_of_another_edge_order_is_refused(tmp_path, instance):
    # a prefix indexes edges in the order its header names; resuming a
    # lex frontier over colex edges would search the wrong subtrees
    path = tmp_path / "old.ckpt"
    path.write_text("checkpoint 2 5 8 lex\nprefix 1 1\nend 1\n")
    with pytest.raises(FormatError, match="line 1: edge order 'lex'"):
        read_checkpoint(str(path), instance)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ramsey_check(2, 5, 9, budget=-3),
        lambda: resume_search(2, 5, 9, [(1,)], budget=-1),
        lambda: lower_bound_witness_search(
            3, 6, 10, mode=WitnessMode.RANDOMIZED, budget=-5
        ),
    ],
    ids=["ramsey_check", "resume_search", "hunt_randomized"],
)
def test_negative_budgets_are_rejected(call):
    with pytest.raises(ParamOutOfRange, match="budget -"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ramsey_check(17, 5, 6),
        lambda: resume_search(17, 5, 6, [(1,)]),
        lambda: lower_bound_witness_search(17, 6, 10, mode=WitnessMode.RANDOMIZED),
    ],
    ids=["ramsey_check", "resume_search", "hunt_randomized"],
)
def test_color_counts_over_the_cap_are_refused(call):
    # per-colour masks and loops cost time linear in k: the search takes
    # no more colours than a colouring file may name
    with pytest.raises(TargetTooLarge, match="color count 17 > 16"):
        call()


def test_color_count_at_the_cap_is_accepted():
    res = ramsey_check(16, 3, 3)
    assert res.verdict is SearchVerdict.COUNTEREXAMPLE
    assert verify_mono_cycle_free(res.counterexample, 3) is True
    hunt = lower_bound_witness_search(16, 3, 3, mode=WitnessMode.RANDOMIZED)
    assert hunt.coloring is not None and hunt.coloring.color_count == 16


def test_checkpoint_prefix_with_non_canonical_inner_k_m_resumes_empty(tmp_path):
    # A checkpoint written before the orderly prune existed may hold a
    # prefix whose inner K_3 is not canonical: the triangle (1, 2, 1)
    # relabels to (1, 1, 2).  Its subtree holds no class's least member,
    # so it resumes as one node cut by one orderly prune.
    path = tmp_path / "old.ckpt"
    path.write_text("checkpoint 2 5 8 colex\nprefix 5 1 2 1 1 2\nend 1\n")
    res = resume_search(2, 5, 8, read_checkpoint(str(path), (2, 5, 8)))
    assert res.verdict is SearchVerdict.ALL_CONTAIN
    assert counters(res) == (1, 0, 0, 1)
    # cut at its last edge, the same triangle is the search's own prune
    assert counters(resume_search(2, 5, 8, [(1, 2, 1)])) == (1, 0, 0, 1)
    assert counters(resume_search(2, 5, 8, [(1, 1, 2)])) != (1, 0, 0, 1)


def test_resume_rejects_non_canonical_prefix():
    # color 2 cannot appear before color 1 has
    with pytest.raises(FormatError):
        resume_search(2, 3, 6, [(2,)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: ramsey_check(2, 5, 8, threads=2),
        lambda: resume_search(2, 5, 8, [(1,)], threads=2),
    ],
    ids=["ramsey_check", "resume_search"],
)
def test_more_than_one_thread_is_refused(call):
    # the search runs in one process
    with pytest.raises(ParamOutOfRange, match="threads 2 != 1"):
        call()


def test_one_thread_is_still_accepted():
    one = ramsey_check(2, 5, 8, threads=1)
    assert one.counterexample == ramsey_check(2, 5, 8).counterexample
    frontier = [(1,)]
    res = resume_search(2, 5, 8, frontier, threads=1)
    assert counters(res) == counters(resume_search(2, 5, 8, frontier))


# --------------------------------------------------------------------------
# lower-bound hunt


@pytest.mark.parametrize("mode", ["exhaustive", "randomized", None])
def test_hunt_refuses_any_mode_but_randomized(mode):
    # the exact search is `ramsey_check`; the hunt is randomized only
    with pytest.raises(ParamOutOfRange, match="the hunt is randomized only"):
        lower_bound_witness_search(2, 5, 8, mode=mode)


def test_randomized_hunt_converges_and_is_seeded():
    a = lower_bound_witness_search(2, 5, 8, mode=WitnessMode.RANDOMIZED, seed=0)
    assert a.coloring is not None
    assert verify_mono_cycle_free(a.coloring, 5) is True
    b = lower_bound_witness_search(2, 5, 8, mode=WitnessMode.RANDOMIZED, seed=0)
    assert (a.coloring, a.steps) == (b.coloring, b.steps)


@pytest.mark.parametrize(
    "N,error,message",
    [(513, TargetTooLarge, "host order 513 > 512"), (0, ParamOutOfRange, "host order 0 < 1")],
)
def test_randomized_hunt_checks_host_order_first(monkeypatch, N, error, message):
    # K_N and its masks cost time and memory quadratic in N: nothing is
    # built before N is checked
    def refuse(*args):
        raise AssertionError("K_N built before N was checked")

    monkeypatch.setattr(search, "complete_graph", refuse)
    with pytest.raises(error, match=message):
        lower_bound_witness_search(3, 6, N, mode=WitnessMode.RANDOMIZED, budget=1)


def test_randomized_hunt_accepts_a_one_vertex_host():
    res = lower_bound_witness_search(2, 5, 1, mode=WitnessMode.RANDOMIZED)
    assert res.coloring.base.vertex_count == 1 and res.steps == 0


def test_randomized_hunt_with_one_color_gives_up():
    res = lower_bound_witness_search(
        1, 3, 4, mode=WitnessMode.RANDOMIZED, seed=1, budget=50
    )
    assert res.coloring is None
    assert res.steps == 0  # no other color to recolor with


def hunt_oracle(k, n, N, seed, budget):
    """The randomized hunt step by step with the independent checker:
    rebuild the coloring, take the cycle `verify_mono_cycle_free` reports,
    recolor a random edge of it.  Returns (steps made, witness or None)."""
    rng = random.Random(seed)
    base = complete_graph(N)
    colors = [rng.randint(1, k) for _ in range(base.edge_count)]
    edge_index = {e: i for i, e in enumerate(base.sorted_edges)}
    for step in range(budget):
        col = EdgeColoring(base, k, tuple(colors))
        outcome = verify_mono_cycle_free(col, n)
        if outcome is True:
            return step, col
        vs = outcome.cycle.vertices
        i = rng.randrange(len(vs))
        u, v = vs[i], vs[(i + 1) % len(vs)]
        e = edge_index[(u, v) if u < v else (v, u)]
        alternatives = [c for c in range(1, k + 1) if c != colors[e]]
        if not alternatives:
            return step, None
        colors[e] = rng.choice(alternatives)
    return budget, None


@pytest.mark.parametrize(
    "k,n,N",
    [(3, 6, 9), (3, 6, 10), (3, 6, 11), (2, 5, 8), (2, 7, 12), (3, 3, 5),
     (4, 4, 10), (1, 3, 4)],
)
def test_randomized_hunt_follows_the_checker(k, n, N):
    for seed in range(6):
        res = lower_bound_witness_search(
            k, n, N, mode=WitnessMode.RANDOMIZED, seed=seed, budget=150
        )
        assert (res.steps, res.coloring) == hunt_oracle(k, n, N, seed, 150)


@pytest.mark.parametrize(
    "N,budget,want",
    [
        (9, 600, [(57, True), (37, True), (9, True), (37, True)]),
        (10, 600, [(600, False)] * 4),
        (11, 600, [(600, False)] * 4),
        (10, 5000, [(5000, False), (5000, False), (4310, True), (4143, True)]),
    ],
)
def test_randomized_hunt_trajectories_are_pinned(N, budget, want):
    # The oracle above asks the same kernel, so a kernel that changed its
    # witness rule would still agree with it; these pinned step counts
    # would not.
    got = [lower_bound_witness_search(3, 6, N, seed=s, budget=budget) for s in range(4)]
    assert [(r.steps, r.coloring is not None) for r in got] == want


def test_hunt_kernel_calls_match_the_plain_dfs(monkeypatch):
    # Every kernel call of one (3, 6, 11) trajectory, on the hunt's own
    # incremental masks, must return the cycle the DFS without cuts finds.
    kernel = search._mask_cycle
    calls = []

    def recorded(neigh, nverts, lo, hi):
        found = kernel(neigh, nverts, lo, hi)
        calls.append((list(neigh), nverts, lo, hi, found))
        return found

    monkeypatch.setattr(search, "_mask_cycle", recorded)
    lower_bound_witness_search(3, 6, 11, seed=0, budget=500)
    assert any(found is None for *_, found in calls)
    for neigh, nverts, lo, hi, found in calls:
        assert found == plain_dfs_cycle(neigh, nverts, lo, hi), neigh


# --------------------------------------------------------------------------
# the search scripts

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_certify_script_certifies_the_small_values():
    proc = run_script("certify_small_ramsey.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "R_2(C_3) = 6", "R_2(C_4) = 6", "R_2(C_6) = 8", "R_2(C_5) = 9",
        "R_2(C_7) = 13",
    ]
    assert all(": certified  [" in line for line in lines)
    assert "all-contain at 13: 8417 nodes" in lines[-1]


def test_lower_bound_script_climbs_to_twelve():
    proc = run_script("rediscover_even_lower_bound.py", "--max-host", "11")
    assert proc.returncode == 0, proc.stderr
    assert "N=11: COUNTEREXAMPLE" in proc.stdout
    assert "R_3(C_6) >= 12" in proc.stdout


@pytest.mark.parametrize("leg", ["certify", "probes", "sweep"])
def test_depth_sweep_runs_each_leg(leg):
    proc = run_script(
        "depth_sweep.py", "--leg", leg, "--period", "2", "--step", "1", "--repeat", "1"
    )
    assert proc.returncode == 0, proc.stderr
    *rows, summary = proc.stdout.splitlines()
    assert [row.split()[:3] for row in rows] == [["depth", "0", "ms"], ["depth", "1", "ms"]]
    times = [float(row.split()[3]) for row in rows]
    words = summary.split()
    assert words[::2] == ["min", "median", "max", "ratio"]
    low, median, high, ratio = map(float, words[1::2])
    assert (low, high) == (min(times), max(times))
    assert low <= median <= high and ratio >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--period", "0"),
        ("--period", "601"),
        ("--step", "0"),
        ("--repeat", "0"),
        ("--leg", "hunt"),
        ("--period", "x"),
    ],
)
def test_depth_sweep_refuses_bad_flags(argv):
    proc = run_script("depth_sweep.py", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("--min-host", "0"),
        ("--budget", "-1"),
        ("--budget", "0"),
        ("--max-host", "19"),
        ("--min-host", "12", "--max-host", "11"),
    ],
)
def test_lower_bound_script_refuses_bad_flags_before_searching(argv):
    # a usage error exits 2 with a message, never 1 ("no witness") with
    # a traceback from inside the first rung
    proc = run_script("rediscover_even_lower_bound.py", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
