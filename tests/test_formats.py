"""File formats: strict rationals, canonical graph/coloring files,
line-oriented reports, JSON conversion."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from cycle_ramsey import (
    FormatError,
    bondy_erdos_coloring,
    build_graph,
    complete_graph,
    constant_coloring,
    fl_decompose,
    lemma4_inequality_check,
    min_degree_peel,
    pk_witness_search,
    ramsey_check,
    structural_certificate,
    erdos_gallai_sweep,
)
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


@pytest.mark.parametrize(
    "text",
    ["0.5", "1e3", "1/0", "1/-2", "3 / 4", "", "half", "1/2/3", "0x1",
     "1/2\n", "\u0661/2", "1_0/2"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(FormatError):
        parse_rational(text)


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
        "nodes 1027",
        "cycle-prunes 392",
        "symmetry-prunes 1",
        "orderly-prunes 122",
    ]
    stats = to_jsonable(res)["stats"]
    assert (stats["symmetry_prunes"], stats["orderly_prunes"]) == (1, 122)


# --------------------------------------------------------------------------
# JSON


def test_to_jsonable_is_json_safe_and_float_free():
    rep = lemma4_inequality_check(5, Fraction(3, 4), 7)
    payload = to_jsonable(rep)
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert decoded["delta"] == str(rep.delta)
    assert decoded["contradiction"] is True and decoded["link_c_exact"] is True

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
