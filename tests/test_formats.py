"""File formats: strict rationals, canonical graph/coloring files,
line-oriented reports, JSON conversion."""

from __future__ import annotations

import dataclasses
import enum
import json
import random
from fractions import Fraction
from typing import ClassVar

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycle_ramsey import (
    EdgeColoring,
    FormatError,
    Graph,
    PkParameters,
    SearchVerdict,
    TargetTooLarge,
    bondy_erdos_coloring,
    build_graph,
    complete_graph,
    constant_coloring,
    cycle_graph,
    even_engine,
    fl_decompose,
    lemma4_execute,
    lemma4_inequality_check,
    make_coloring,
    min_degree_peel,
    pk_witness_search,
    ramsey_check,
    structural_certificate,
    erdos_gallai_sweep,
)
from cycle_ramsey import formats
from cycle_ramsey.errors import ascii_int
from cycle_ramsey.formats import (
    parse_coloring,
    parse_graph,
    parse_rational,
    serialize_chain_report,
    serialize_coloring,
    serialize_decomposition,
    serialize_graph,
    serialize_peel,
    serialize_search_result,
    serialize_structural_certificate,
    serialize_sweep_report,
    serialize_witness,
    to_jsonable,
)
from cycle_ramsey.graphs import _MAX_COLORS, _MAX_ORDER

from strategies import colorings, graphs


# --------------------------------------------------------------------------
# rationals


@pytest.mark.parametrize(
    "text,value",
    [
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("+2/6", Fraction(1, 3)),
        ("7", Fraction(7)),
        ("-7", Fraction(-7)),
        ("0", Fraction(0)),
    ],
)
def test_parse_rational_accepts(text, value):
    assert parse_rational(text) == value


BAD_RATIONALS = [
    "0.5", "1e3", "1/0", "1/-2", "3 / 4", "", "half", "1/2/3", "0x1",
    "1/2\n", "\u0661/2", "1_0/2", "1_0", " 1/2 ", "1e-1",
]


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_parse_rational_rejects(text):
    with pytest.raises(FormatError):
        parse_rational(text)


@pytest.mark.parametrize("text", BAD_RATIONALS)
def test_library_rationals_are_as_strict_as_cli_rationals(text):
    # `Fraction()` alone reads "1_0" as 10, " 1/2 " and "1e-1" as numbers
    # and raises ZeroDivisionError on "1/0"
    col = constant_coloring(complete_graph(5))
    calls = [
        lambda: PkParameters.for_lemma(2, 5, text),
        lambda: lemma4_inequality_check(4, text, 5),
        lambda: even_engine(col, 4, text),
    ]
    for call in calls:
        with pytest.raises(FormatError, match="bad rational"):
            call()


def test_format_rational_round_trips():
    # reports and JSON write rationals with str(); the parser reads them back
    for q in [Fraction(1, 3), Fraction(-7, 2), Fraction(5)]:
        assert parse_rational(str(q)) == q


# --------------------------------------------------------------------------
# graph / coloring files


def test_graph_file_shape():
    G = build_graph(4, [(2, 0), (1, 3)])
    assert serialize_graph(G) == "graph 4\ne 0 2\ne 1 3\n"


@given(graphs(max_vertices=8))
@settings(max_examples=80)
def test_graph_file_round_trip(G):
    assert parse_graph(serialize_graph(G)) == G


@given(colorings(max_vertices=7))
@settings(max_examples=80)
def test_coloring_file_round_trip(col):
    assert parse_coloring(serialize_coloring(col)) == col


def _formatted_per_edge(col):
    """Reference: the serializers as they were, one f-string per edge."""
    graph = [f"graph {col.base.vertex_count}"]
    graph.extend(f"e {u} {v}" for u, v in col.base.sorted_edges)
    coloring = [f"coloring {col.base.vertex_count} {col.color_count}"]
    coloring.extend(
        f"e {u} {v} {c}" for (u, v), c in zip(col.base.sorted_edges, col.colors)
    )
    return "\n".join(graph) + "\n", "\n".join(coloring) + "\n"


@given(
    st.one_of(
        colorings(min_vertices=0, max_vertices=12, max_colors=16),
        colorings(min_vertices=0, max_vertices=14, complete=True),
    )
)
@example(constant_coloring(complete_graph(0)))
@example(constant_coloring(complete_graph(1), 2, 2))
@example(constant_coloring(build_graph(4, []), 3))
@example(bondy_erdos_coloring(4, 5))
@settings(max_examples=150)
def test_serializers_match_per_edge_formatting(col):
    want = _formatted_per_edge(col)
    assert (serialize_graph(col.base), serialize_coloring(col)) == want


def test_parsers_accept_any_edge_order_and_orientation():
    text = "coloring 3 2\ne 2 1 2\ne 0 1 1\n"
    col = parse_coloring(text)
    assert col.color_of(1, 2) == 2 and col.color_of(0, 1) == 1
    # re-emission is canonical regardless of input order
    assert serialize_coloring(col) == "coloring 3 2\ne 0 1 1\ne 1 2 2\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "graph\n",
        "graph two\n",
        "graph 3 3\n",
        "graph 3\nedge 0 1\n",
        "graph 3\ne 0\n",
        "graph 3\ne 0 1 2\n",
    ],
)
def test_parse_graph_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "coloring 3\n",
        "coloring 3 2\ne 0 1\n",
        "coloring 3 2\ne 0 1 x\n",
    ],
)
def test_parse_coloring_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_coloring(text)


def test_non_ascii_line_is_rejected_with_its_number():
    # int() would read a full-width digit as 1; the files are ASCII only
    with pytest.raises(FormatError, match="line 3: non-ASCII"):
        parse_coloring("coloring 3 1\ne 0 1 1\ne 0 2 \uff11\ne 1 2 1\n")
    with pytest.raises(FormatError, match="line 1: non-ASCII"):
        parse_graph("graph 3 # caf\u00e9\n")


def test_whole_line_comments_are_ignored():
    G = parse_graph("# a comment\ngraph 3\n  # indented\ne 0 1\n")
    assert G == build_graph(3, [(0, 1)])
    col = parse_coloring("# a comment\ncoloring 3 2\n#\ne 1 2 2\n")
    assert serialize_coloring(col) == "coloring 3 2\ne 1 2 2\n"


def test_trailing_comments_are_ignored():
    G = parse_graph("graph 3 # three vertices\ne 0 1#edge\n")
    assert G == build_graph(3, [(0, 1)])
    col = parse_coloring("coloring 3 2  # k = 2\ne 0 2 1 # colour 1\n")
    assert serialize_coloring(col) == "coloring 3 2\ne 0 2 1\n"
    with pytest.raises(FormatError):
        parse_coloring("coloring 3 2\ne 0 2 # 1\n")


def test_header_over_the_size_cap_is_refused_before_any_edge_line():
    # a 21-byte file once asked the checker for 10^8 vertices
    with pytest.raises(TargetTooLarge, match="capped at 512"):
        parse_coloring("coloring 100000000 2\n")
    with pytest.raises(TargetTooLarge, match="capped at 512"):
        parse_graph("graph 2000000\n")
    # the cap is met before a bad line after the header is read
    with pytest.raises(TargetTooLarge):
        parse_coloring("coloring 513 2\ne 0 0 x\n")
    assert parse_graph("graph 512\n").vertex_count == 512
    assert parse_coloring("coloring 512 1\ne 0 511 1\n").base.edge_count == 1
    # a 24-byte file once asked for 10^6 colour classes, nearly all empty
    with pytest.raises(TargetTooLarge, match="capped at 16"):
        parse_coloring("coloring 4 1000000\ne 0 1 1\n")
    with pytest.raises(TargetTooLarge):
        parse_coloring("coloring 4 17\ne 0 0 x\n")
    assert parse_coloring("coloring 4 16\ne 0 1 16\n").color_count == 16


# --------------------------------------------------------------------------
# the one-pass parsers against the two-pass reader they replaced


def _two_pass_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise FormatError(f"line {lineno}: non-ASCII character")
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def _two_pass_ints(tokens, lineno):
    try:
        return [ascii_int(t) for t in tokens]
    except FormatError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def _two_pass_caps(lineno, v, k=1):
    if v > _MAX_ORDER:
        raise TargetTooLarge(
            f"line {lineno}: {v} vertices; files are capped at {_MAX_ORDER}"
        )
    if k > _MAX_COLORS:
        raise TargetTooLarge(
            f"line {lineno}: {k} colors; files are capped at {_MAX_COLORS}"
        )


def _two_pass_graph(text):
    lines = _two_pass_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    lineno, header = lines[0]
    if len(header) != 2 or header[0] != "graph":
        raise FormatError(f"line {lineno}: expected 'graph <V>'")
    (v,) = _two_pass_ints(header[1:], lineno)
    _two_pass_caps(lineno, v)
    edges = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != 3 or tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        edges.append(tuple(_two_pass_ints(tokens[1:], lineno)))
    return build_graph(v, edges)


def _two_pass_coloring(text):
    lines = _two_pass_lines(text)
    if not lines:
        raise FormatError("empty coloring file")
    lineno, header = lines[0]
    if len(header) != 3 or header[0] != "coloring":
        raise FormatError(f"line {lineno}: expected 'coloring <V> <k>'")
    v, k = _two_pass_ints(header[1:], lineno)
    _two_pass_caps(lineno, v, k)
    assignment = {}
    edges = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != 4 or tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected 'e <u> <v> <c>'")
        a, b, c = _two_pass_ints(tokens[1:], lineno)
        edges.append((a, b))
        assignment[(a, b)] = c
    return make_coloring(build_graph(v, edges), k, assignment)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the type and the message are compared
        return type(exc).__name__, str(exc)


def _agree(text):
    assert _outcome(parse_coloring, text) == _outcome(_two_pass_coloring, text)


def _agree_graph(text):
    assert _outcome(parse_graph, text) == _outcome(_two_pass_graph, text)


@pytest.mark.parametrize(
    "text",
    [
        "coloring 3 2\ne 1 1 1\n",  # loop
        "coloring 3 2\ne 0 1 1\ne 0 1 2\n",  # duplicate
        "coloring 3 2\ne 0 1 1\ne 1 0 2\n",  # duplicate, reversed
        "coloring 3 2\ne -1 1 1\n",  # negative vertex
        "coloring 3 2\ne 0 3 1\n",  # vertex out of range
        "coloring 3 2\ne 2 7 1\ne 0 -4 1\n",
        "coloring 3 2\ne 0 1 0\n",  # colour 0
        "coloring 3 2\ne 0 1 3\n",  # colour k+1
        "coloring 3 2\ne 0 1 -1\n",
        "coloring 3 0\ne 0 1 1\n",
        "coloring 3 0\n",
        "coloring -1 2\n",
        "coloring -1 2\ne 0 1 1\n",
        "coloring 0 1\n",
        "coloring 3 2\ne 0 1\n",  # wrong arity
        "coloring 3 2\ne 0 1 1 1\n",
        "coloring 3 2 1\n",
        "colouring 3 2\n",
        "coloring 3 2\nf 0 1 1\n",
        "coloring 3 2\ne 0 1 x\n",  # bad tokens
        "coloring 3 2\ne 0 1 +1\n",
        "coloring 3 2\ne 0_1 1 1\n",
        "coloring 3 2\ne 0 1 --1\n",
        "coloring 3 2\ne 0 1 -\n",
        "coloring x 2\n",
        "coloring 3 2\ne 0 1 \uff11\n",  # non-ASCII
        "coloring 3 2 # caf\u00e9\ne 0 1 1\n",
        "coloring 3 2\ne 0 1 1\u2028e 0 2 1\n",  # a non-ASCII line break
        "# only a comment\n\n",
        "",
        # two faults: format errors come first, then graph errors in
        # line order, then colours in edge order
        "coloring 3 2\ne 1 1 1\ne 0 1 x\n",
        "coloring 3 2\ne 0 1 1\ne 1 0 1\ne 0 2 1\ne 1 2\n",
        "coloring 3 2\ne 0 5 1\ne 1 1 1\n",
        "coloring 3 2\ne 0 1 1\ne 1 0 1\ne 2 2 1\n",
        "coloring 3 2\ne 1 2 9\ne 0 1 0\n",
        "coloring 3 2\ne 1 2 9\ne 1 1 1\n",
        "coloring 3 2\ne 0 1 x\ne 0 2 \u00e9\n",
        "coloring 3 0\ne 0 0 1\n",
        "coloring -1 2\ne 0 0 1\ne 0 5 1\n",
    ],
)
def test_coloring_parser_matches_two_pass_reader_on_faults(text):
    _agree(text)


@pytest.mark.parametrize(
    "text",
    [
        "graph 3\ne 2 2\n",
        "graph 3\ne 0 1\ne 1 0\n",
        "graph 3\ne -1 0\n",
        "graph 3\ne 0 3\ne 1 1\n",
        "graph 3\ne 0 1 1\n",
        "graph 3\ne 0\n",
        "graph -2\n",
        "graph 3\ne 0 +1\n",
        "graph 1_2\n",
        "graph 3\ne 0 1 # caf\u00e9\n",
        "graph 3\ne 1 1\ne 0 y\n",
        "graph 3\ne 0 2\ne 2 1\ne 0 2\n",
        "graph 3\n",
        "",
    ],
)
def test_graph_parser_matches_two_pass_reader_on_faults(text):
    _agree_graph(text)


_TOKENS = ("e", "0", "1", "2", "3", "-1", "x", "+1", "#", "01", "coloring")


@given(
    st.sampled_from(("coloring 3 2", "graph 3", "coloring 4 1", "graph 0", "")),
    st.lists(
        st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=6
    ),
)
@settings(max_examples=300)
def test_parsers_match_two_pass_reader_on_token_soup(header, lines):
    text = "\n".join([header, *lines])
    _agree(text)
    _agree_graph(text)


def _scrambled_files(col, rnd: random.Random, shuffle: bool = True):
    """The coloring and graph files of `col`, edge lines shuffled (when
    `shuffle`), endpoints swapped at random, comments, blank lines, tabs
    and CRLF line ends put in."""
    header, *lines = serialize_coloring(col).splitlines()
    if shuffle:
        rnd.shuffle(lines)
    out, graph_out = [header], [f"graph {col.base.vertex_count}"]
    for line in lines:
        _, u, v, c = line.split()
        if rnd.random() < 0.5:
            u, v = v, u
        comment = " # a comment" if rnd.random() < 0.3 else ""
        if rnd.random() < 0.2:
            out.append("   # a whole-line comment")
            graph_out.append("#")
        if rnd.random() < 0.1:
            out.append("")
            graph_out.append(" \t")
        out.append(f"e {u}  {v}\t{c}{comment}")
        graph_out.append(f"e {v} {u}{comment}")
    return "\r\n".join(out) + "\r\n", "\r\n".join(graph_out)


@given(colorings(max_vertices=7), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_parsers_match_two_pass_reader_on_valid_files(col, rnd: random.Random):
    text, graph_text = _scrambled_files(col, rnd)
    assert parse_coloring(text) == _two_pass_coloring(text) == col
    assert parse_graph(graph_text) == _two_pass_graph(graph_text) == col.base


@given(colorings(max_vertices=8), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=100)
def test_parsing_is_order_independent_and_seeds_sorted_edges(col, rnd, shuffle):
    # a file in canonical order is not sorted again; whatever the order,
    # the parsed edges are sorted and their colours line up with them
    text, graph_text = _scrambled_files(col, rnd, shuffle)
    parsed, G = parse_coloring(text), parse_graph(graph_text)
    assert parsed == col and G == col.base
    for base in (parsed.base, G):
        assert "sorted_edges" in base.__dict__  # seeded by the parser
        assert base.sorted_edges == tuple(sorted(base.edges))
    assert dict(zip(parsed.base.sorted_edges, parsed.colors)) == col.assignment
    canonical, canonical_graph = serialize_coloring(col), serialize_graph(col.base)
    assert serialize_coloring(parsed) == canonical
    assert serialize_graph(G) == canonical_graph
    assert serialize_coloring(parse_coloring(canonical)) == canonical
    assert serialize_graph(parse_graph(canonical_graph)) == canonical_graph


def _one_edit_mutants(text, rnd: random.Random):
    """`text`, a serialized file, and variants of it that differ by one
    edit: spacing, line ends, integer spellings, line order, an edge
    reversed, a loop, an endpoint out of range, a duplicate line, a
    colour out of range, and headers at and over the caps."""
    header, *lines = text.splitlines()
    kind, v, *k = header.split()

    def file(head, body):
        return "".join(line + "\n" for line in [" ".join(head), *body])

    out = [
        text,
        text[:-1],  # no final newline
        text + "\n",  # a blank line
        text.replace("\n", "\r\n"),
        text.replace(" ", "  ", 1),
        text.replace("\n", " \n", 1),
        text.replace(" ", "\t", 1),
        " " + text,
        file([kind, "0" + v, *k], lines),
        file([kind, "+" + v, *k], lines),
        file([kind, str(_MAX_ORDER), *k], lines),
        file([kind, str(_MAX_ORDER + 1), *k], lines),
    ]
    if k:
        out.append(file([kind, v, str(_MAX_COLORS)], lines))
        out.append(file([kind, v, str(_MAX_COLORS + 1)], lines))
    if not lines:
        return out
    i = rnd.randrange(len(lines))
    tokens = lines[i].split()
    e, a, b, *c = tokens
    j = rnd.randrange(1, len(tokens))

    def edited(*new_lines):
        return file([kind, v, *k], [*lines[:i], *new_lines, *lines[i + 1 :]])

    out += [
        edited(" ".join(tokens[:j] + ["0" + tokens[j]] + tokens[j + 1 :])),
        edited(" ".join(tokens[:j] + ["+" + tokens[j]] + tokens[j + 1 :])),
        edited(lines[i].replace(" ", "  ", 1)),
        edited(lines[i] + " "),
        edited(lines[i].replace(" ", "\t", 1)),
        edited(lines[i] + " # a comment"),
        edited(" ".join([e, b, a, *c])),  # one pair reversed
        edited(" ".join([e, a, a, *c])),  # a loop
        edited(" ".join([e, a, v, *c])),  # an endpoint out of range
        edited(lines[i], lines[i]),  # a duplicate line
    ]
    if c:
        out.append(edited(f"{e} {a} {b} 0"))
        out.append(edited(f"{e} {a} {b} {int(k[0]) + 1}"))
    if len(lines) > 1:  # two lines swapped
        i = rnd.randrange(len(lines) - 1)
        swapped = [*lines[:i], lines[i + 1], lines[i], *lines[i + 2 :]]
        out.append(file([kind, v, *k], swapped))
    return out


@given(
    colorings(min_vertices=0, max_vertices=7),
    colorings(complete=True, min_vertices=0, max_vertices=7),
    st.randoms(use_true_random=False),
)
@example(
    constant_coloring(complete_graph(0)),
    constant_coloring(complete_graph(1), 2, 2),
    random.Random(0),
)
@example(
    constant_coloring(build_graph(4, []), 3),
    constant_coloring(complete_graph(2), 3),
    random.Random(0),
)
@settings(max_examples=120)
def test_bulk_reader_matches_two_pass_reader(col, complete_col, rnd: random.Random):
    # every serialized file and every one-edit mutant of it parses to the
    # reference reader's object or raises its error, and the bulk path
    # takes a text exactly when it is the serializer's output and its
    # host is complete, which it reads as the shared K_V
    for c in (col, complete_col):
        for text, colored, parse, serialize in (
            (serialize_coloring(c), True, parse_coloring, serialize_coloring),
            (serialize_graph(c.base), False, parse_graph, serialize_graph),
        ):
            for mutant in _one_edit_mutants(text, rnd):
                _agree(mutant)
                _agree_graph(mutant)
                status, parsed = _outcome(parse, mutant)
                canonical = status == "ok" and serialize(parsed) == mutant
                if canonical:
                    G = parsed.base if colored else parsed
                    v = G.vertex_count
                    canonical = 2 * G.edge_count == v * (v - 1)
                taken = formats._complete_file(mutant, colored)
                assert (taken is not None) == canonical, repr(mutant)
                assert formats._complete_file(mutant, not colored) is None
                if taken is not None:
                    assert taken == parsed
                    base = taken.base if colored else taken
                    assert base is complete_graph(v)


def test_serialized_files_skip_the_line_parser(monkeypatch):
    col = bondy_erdos_coloring(6, 5)  # K_128
    text, graph_text = serialize_coloring(col), serialize_graph(col.base)

    def no_line_parser(*_, **__):
        raise AssertionError("line parser ran")

    monkeypatch.setattr(formats, "_edge_file", no_line_parser)
    assert parse_coloring(text) == col
    assert parse_coloring(text).base is col.base  # the shared K_128
    assert parse_graph(graph_text) is col.base
    for parse, canonical in ((parse_coloring, text), (parse_graph, graph_text)):
        for variant in ("# a comment\n" + canonical, canonical.replace("\n", "\r\n")):
            with pytest.raises(AssertionError, match="line parser ran"):
                parse(variant)
    monkeypatch.undo()

    # a canonical file of a host that is not complete runs the line parser
    # and gives the same object
    ran = []
    line_parser = formats._edge_file

    def counted(text, colored):
        ran.append(colored)
        return line_parser(text, colored)

    monkeypatch.setattr(formats, "_edge_file", counted)
    C5 = cycle_graph(5)
    col5 = make_coloring(C5, 2, {e: 1 + e[0] % 2 for e in C5.edges})
    assert parse_coloring(serialize_coloring(col5)) == col5
    assert parse_graph(serialize_graph(C5)) == C5
    assert ran == [True, False]

    # a file of K_128's length with one junk colour token is refused
    # before K_V is built, and the line parser names the token
    def no_complete_graph(v):
        raise AssertionError("K_V built")

    monkeypatch.setattr(formats, "complete_graph", no_complete_graph)
    junk = text[: text.rindex(" ")] + " x\n"
    assert len(junk.split()) == len(text.split())
    with pytest.raises(FormatError, match="bad integer 'x'"):
        parse_coloring(junk)


# --------------------------------------------------------------------------
# report serializers


def test_witness_report_lines():
    col = constant_coloring(complete_graph(9))
    w = pk_witness_search(col, 7)
    text = serialize_witness(w)
    lines = text.splitlines()
    assert lines[0] == "witness kind nonbip_component_matching color 1"
    assert lines[1].startswith("component 0 1 2")
    assert any(line.startswith("matching ") for line in lines)
    assert any(line.startswith("odd-cycle ") for line in lines)
    # matching edges use the u-v form
    matching_line = next(l for l in lines if l.startswith("matching "))
    assert "-" in matching_line.split()[1]


def test_decomposition_report():
    G = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    text = serialize_decomposition(fl_decompose(G, 5))
    assert text == (
        "decomposition\n"
        "V1 0 2\n"
        "V2 1 3\n"
        "V3 -\n"
        "hypothesis true\n"
        "sparse-edges 0 bound 0\n"
    )


def test_peel_report():
    text = serialize_peel(min_degree_peel(complete_graph(5), 3))
    assert text == (
        "peel-kept 2 3 4\npeel-removed 0 4\npeel-removed 1 3\n"
    )
    untouched = serialize_peel(min_degree_peel(complete_graph(3), 3))
    assert untouched == "peel-kept 0 1 2\npeel-removed -\n"


def test_structural_certificate_report():
    cert = structural_certificate(bondy_erdos_coloring(2, 5), 5)
    lines = serialize_structural_certificate(cert).splitlines()
    assert lines[0] == "structural-certificate n 5 colors 2"
    assert lines[1] == "component color 1 tag small vertices 0 1 2 3"
    assert lines[3].startswith("component color 2 tag bipartite")
    assert "parts 0 1 2 3 | 4 5 6 7" in lines[3]
    assert lines[-1] == "all-tagged true"


def test_sweep_report_lines():
    rep = erdos_gallai_sweep(4)
    text = serialize_sweep_report(rep)
    assert text == (
        "eg-sweep v 4 lengths 3 4\n"
        "graphs 64 checked 22\n"
        "violations 0\n"
    )


def test_chain_report_lines():
    rep = lemma4_inequality_check(4, Fraction(1, 2), 5)
    lines = serialize_chain_report(rep).splitlines()
    assert lines[0] == "chain-report"
    assert "delta 1/8192" in lines
    assert "N 480" in lines
    assert "n-cap 640 ok" in lines
    assert "link-c value 5 eps-half 5 exact" in lines
    assert lines[-1] == "holds true"


def test_search_report_omits_wall_time_and_lists_frontier():
    res = ramsey_check(2, 3, 5)
    text = serialize_search_result(res)
    assert "wall" not in text and "time" not in text
    assert text.splitlines()[1] == "verdict COUNTEREXAMPLE"

    cut = ramsey_check(2, 5, 8, budget=50)
    cut_text = serialize_search_result(cut)
    prefix_lines = [
        l for l in cut_text.splitlines() if l.startswith("prefix ")
    ]
    assert len(prefix_lines) == len(cut.open_prefixes)
    for line, prefix in zip(prefix_lines, cut.open_prefixes):
        parts = line.split()
        assert int(parts[1]) == len(prefix)
        assert tuple(int(c) for c in parts[2:]) == prefix


def test_search_report_counts_every_prune():
    # the README's R_2(C_5) = 9 sample; JSON carries the same counters
    res = ramsey_check(2, 5, 9)
    assert serialize_search_result(res).splitlines()[1:] == [
        "verdict ALL_CONTAIN",
        "nodes 575",
        "cycle-prunes 162",
        "symmetry-prunes 1",
        "orderly-prunes 126",
    ]
    stats = to_jsonable(res)["stats"]
    assert (stats["symmetry_prunes"], stats["orderly_prunes"]) == (1, 126)


# --------------------------------------------------------------------------
# JSON


def test_to_jsonable_is_json_safe_and_float_free():
    rep = lemma4_inequality_check(5, Fraction(3, 4), 7)
    payload = to_jsonable(rep)
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert decoded["delta"] == str(rep.delta)
    # the removed verdict flags are read back off the exact terms
    assert decoded["link_c_value"] == decoded["eps_half_term"] == str(rep.eps_half_term)
    assert Fraction(decoded["lower_interval"]) > Fraction(decoded["upper_interval"])
    assert {"link_a_ok", "n_cap_ok", "link_c_exact", "contradiction"}.isdisjoint(decoded)

    def no_floats(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return True

    assert no_floats(decoded)


def test_to_jsonable_coloring_shape():
    col = bondy_erdos_coloring(2, 5)
    payload = to_jsonable(col)
    assert payload["vertex_count"] == 8
    assert payload["color_count"] == 2
    assert payload["edges"][0] == [0, 1, 1]
    assert len(payload["edges"]) == 28


def test_to_jsonable_witness_uses_enum_values():
    col = constant_coloring(complete_graph(9))
    w = pk_witness_search(col, 7)
    payload = to_jsonable(w)
    assert payload["kind"] == "nonbip_component_matching"
    assert isinstance(payload["matching"]["edges"], list)


def reference_to_jsonable(obj):
    """`to_jsonable` as a plain isinstance chain, each case in the order
    it is decided; the exact-type dispatch must give the same output."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Graph):
        return {
            "vertex_count": obj.vertex_count,
            "edges": [list(e) for e in obj.sorted_edges],
        }
    if isinstance(obj, EdgeColoring):
        return {
            "vertex_count": obj.base.vertex_count,
            "color_count": obj.color_count,
            "edges": [
                [u, v, c] for (u, v), c in zip(obj.base.sorted_edges, obj.colors)
            ],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: reference_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, frozenset):
        return [reference_to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    return obj


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str, enum.Enum):
    A = "a"


class _Count(int):
    pass


@dataclasses.dataclass(frozen=True)
class _Pseudo:
    """A dataclass whose ClassVar and InitVar are not fields."""

    kind: ClassVar[str] = "pseudo"
    value: Fraction
    seed: dataclasses.InitVar[int] = 0
    flags: tuple = ()


def _jsonable_samples():
    be = bondy_erdos_coloring(2, 5)
    k8 = complete_graph(8)
    balanced = make_coloring(
        k8, 2, dict(zip(k8.sorted_edges, (1 if i < 14 else 2 for i in range(28))))
    )
    dense = build_graph(
        10, [(u, v) for u in range(10) for v in range(u + 1, 10) if (u * v + u) % 3]
    )
    return [
        be,
        k8,
        structural_certificate(be, 5),
        pk_witness_search(constant_coloring(complete_graph(9)), 7),
        even_engine(constant_coloring(complete_graph(13)), 6, Fraction(1, 12)),
        fl_decompose(dense, 5),
        min_degree_peel(dense, 4),
        lemma4_inequality_check(5, Fraction(3, 4), 7),
        lemma4_execute(be, 5, PkParameters.for_lemma(2, 5, 1)),
        even_engine(balanced, 6, Fraction(1, 12)),
        ramsey_check(2, 5, 9),
        ramsey_check(2, 5, 8),
        ramsey_check(2, 5, 9, budget=5),
        erdos_gallai_sweep(4),
        {
            "sets": frozenset({(2, 1), (0, 5)}),
            "nested": frozenset({frozenset({3, 1, 2})}),
            7: [True, 1, False, 0, None, 1.5, "x", _Count(4)],
            (1, 2): {"inner": (Fraction(-3, 4), Fraction(2))},
        },
        [SearchVerdict.INDETERMINATE, _Level.HIGH, _Name.A, (True, 1)],
        _Pseudo(Fraction(1, 3), seed=5, flags=(_Level.LOW, False)),
    ]


def test_to_jsonable_matches_the_isinstance_chain_byte_for_byte():
    samples = _jsonable_samples()
    assert set(formats._TEXT) <= {type(x) for x in samples}
    assert ramsey_check(2, 5, 9, budget=5).verdict is SearchVerdict.INDETERMINATE
    for obj in samples:
        want = json.dumps(reference_to_jsonable(obj), sort_keys=True)
        # twice: a dataclass type's first conversion fills the field cache
        assert json.dumps(to_jsonable(obj), sort_keys=True) == want
        assert json.dumps(to_jsonable(obj), sort_keys=True) == want
    # a subclass of a leaf type is converted as before: enums to their
    # values, other int subclasses kept as they are
    out = to_jsonable([True, 1, _Level.HIGH, _Name.A, _Count(4)])
    assert [type(x) for x in out] == [bool, int, int, str, _Count]
    assert out == [True, 1, 2, "a", 4]
    assert to_jsonable(_Pseudo(Fraction(1, 3))) == {"value": "1/3", "flags": []}
