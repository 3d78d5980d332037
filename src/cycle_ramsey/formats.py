"""File formats and report serialization.

Graph and coloring files are canonical: header line, then one line per
edge with u < v, sorted lexicographically, ASCII, LF line endings — so
equal objects produce byte-identical files.  A file byte-identical to
what `serialize_graph` or `serialize_coloring` writes for the object it
holds (single spaces, no comment or blank line, plain decimals, edges
ascending, a final LF) is read in bulk by `_canonical_file`; every
other file, in any edge order or orientation, with comments, CRLF, `01`
or `+1`, and every faulty file, goes through the line parser
`_edge_file`, which raises every parse error.  A bulk-read file with
one line per pair of its V vertices holds the shared `complete_graph(V)`
itself.  Either way the parsed graph's `Graph.sorted_edges` is seeded,
so it is never sorted again.
Reports serialize to line-oriented text with no timings or other
run-dependent noise, which makes them golden-file testable;
`to_jsonable` provides the machine twin, and `render` picks which of
the two a result prints as.  Rational literals are `p/q` (or bare
integers) and never decimals, keeping the exact-arithmetic guarantee
end to end.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from fractions import Fraction

from .certificates import StructureWitness
from .constructions import ComponentTag, StructuralCertificate
from .cycles import SweepReport
from .decompose import FLDecomposition, PeelResult
from .engine import ChainReport, EvenCaseReport, Lemma4Trace
from .errors import FormatError, TargetTooLarge, _ints, parse_rational
from .graphs import (
    _MAX_COLORS,
    _MAX_ORDER,
    EdgeColoring,
    Graph,
    _sorted_graph,
    build_graph,
    complete_graph,
    normalize_edge,
)
from .search import EDGE_ORDER, SearchResult, SearchVerdict, _prefix_line

# ---------------------------------------------------------------------------
# Graph / coloring files


def serialize_graph(G: Graph) -> str:
    # Both edge-file writers join each line from strings made once per
    # vertex or colour, a few times faster than formatting every line.
    n = G.vertex_count
    heads = [f"e {u} " for u in range(n)]
    tails = [f"{v}\n" for v in range(n)]
    parts = [f"graph {n}\n"]
    for u, v in G.sorted_edges:
        parts += heads[u], tails[v]
    return "".join(parts)


def serialize_coloring(col: EdgeColoring) -> str:
    n, k = col.base.vertex_count, col.color_count
    heads = [f"e {u} " for u in range(n)]
    names = [f"{v}" for v in range(n)]
    tails = [f" {c}\n" for c in range(k + 1)]
    parts = [f"coloring {n} {k}\n"]
    for (u, v), c in zip(col.base.sorted_edges, col.colors):
        parts += heads[u], names[v], tails[c]
    return "".join(parts)


def _edge_file(text: str, colored: bool) -> tuple[Graph, list[int], list[list[int]]]:
    """(graph, header numbers, edge lines) of a coloring file, or of a
    graph file when not `colored`; each edge line is [u, v, c] or [u, v]
    as written.

    One pass over the lines; a line that is not blank once `#` and what
    follows are stripped is data, and the first is the header.  A format
    error is raised where it is met.  Once the whole file has parsed,
    `build_graph` raises the first loop, endpoint outside 0..V-1 or
    repeated edge (in either orientation) in line order.  A header
    asking for more than `_MAX_ORDER` vertices or `_MAX_COLORS` colors
    is refused before any line after it is read.
    """
    if not text.isascii():
        # name the first such line; non-ASCII line breaks alone are no fault
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if not raw.isascii():
                raise FormatError(f"line {lineno}: non-ASCII character")
    if colored:
        kind, usage, line_usage = "coloring", "coloring <V> <k>", "e <u> <v> <c>"
    else:
        kind, usage, line_usage = "graph", "graph <V>", "e <u> <v>"
    width = 4 if colored else 3
    header = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
        if not tokens:
            continue
        if header is None:
            if len(tokens) != width - 1 or tokens[0] != kind:
                raise FormatError(f"line {lineno}: expected '{usage}'")
            header = _ints(tokens[1:], lineno)
            v = header[0]
            if v > _MAX_ORDER:
                raise TargetTooLarge(
                    f"line {lineno}: {v} vertices; files are capped at {_MAX_ORDER}"
                )
            if colored and header[1] > _MAX_COLORS:
                raise TargetTooLarge(
                    f"line {lineno}: {header[1]} colors; files are capped at {_MAX_COLORS}"
                )
            continue
        if len(tokens) != width or tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected '{line_usage}'")
        rows.append(_ints(tokens[1:], lineno))
    if header is None:
        raise FormatError(f"empty {kind} file")
    return build_graph(v, (row[:2] for row in rows)), header, rows


# The decimal spelling of every integer up to the vertex cap: one lookup
# both refuses `01`, `+1` and `-1` and applies the cap.
_CANONICAL_INTS = {str(i): i for i in range(_MAX_ORDER + 1)}


def _canonical_file(
    text: str, colored: bool
) -> tuple[Graph, int, tuple[int, ...]] | None:
    """(graph, k, colors) of a coloring file, or of a graph file when not
    `colored` (k and colors then 0 and ()), when `text` is byte-identical
    to what the serializer writes for that object; else None, and the
    text is left to `_edge_file`.  A file with one line per pair of its
    V vertices is read against the shared `complete_graph(V)`."""
    width = 4 if colored else 3
    tokens = text.split()
    body = tokens[width - 1 :]
    m = len(body) // width
    if (
        len(tokens) < width - 1
        or tokens[0] != ("coloring" if colored else "graph")
        or len(body) != m * width
        or body[0::width].count("e") != m
        or " ".join(tokens).replace(" e ", "\ne ") + "\n" != text
    ):
        return None
    number = _CANONICAL_INTS.__getitem__
    try:
        v = number(tokens[1])
        if colored:
            k = number(tokens[2])
            colors = tuple(map(number, body[3::width]))
        else:
            k, colors = 0, ()
    except KeyError:
        return None
    if colored and not (
        1 <= k <= _MAX_COLORS and (not m or 1 <= min(colors) and max(colors) <= k)
    ):
        return None
    if 2 * m == v * (v - 1):
        # Strictly ascending pairs u < v < V, as many as there are pairs,
        # are every pair in order: the file is K_V's or not canonical.
        K = complete_graph(v)
        names = list(map(str, range(v)))
        firsts = [names[a] for a, _ in K.sorted_edges]
        seconds = [names[b] for _, b in K.sorted_edges]
        if body[1::width] != firsts or body[2::width] != seconds:
            return None
        return K, k, colors
    try:
        us = list(map(number, body[1::width]))
        vs = list(map(number, body[2::width]))
    except KeyError:
        return None
    edges = list(zip(us, vs))
    # u < v < V on every line and strictly ascending lines: no loop, no
    # duplicate, nothing out of range or out of order
    if m and not (
        max(vs) < v
        and all(map(int.__lt__, us, vs))
        and all(map(tuple.__lt__, edges, edges[1:]))
    ):
        return None
    return _sorted_graph(v, edges), k, colors


def parse_graph(text: str) -> Graph:
    canonical = _canonical_file(text, colored=False)
    if canonical is not None:
        return canonical[0]
    return _edge_file(text, colored=False)[0]


def parse_coloring(text: str) -> EdgeColoring:
    canonical = _canonical_file(text, colored=True)
    if canonical is not None:
        return EdgeColoring(*canonical)
    G, (_, k), rows = _edge_file(text, colored=True)
    color = {normalize_edge(u, v): c for u, v, c in rows}
    return EdgeColoring(G, k, tuple(map(color.__getitem__, G.sorted_edges)))


# ---------------------------------------------------------------------------
# Line-oriented reports (stable: no timings, fixed ordering)


def _verts(vs) -> str:
    return " ".join(str(v) for v in vs) if vs else "-"


def _edge_list(edges) -> str:
    pairs = sorted(edges)
    return " ".join(f"{u}-{v}" for u, v in pairs) if pairs else "-"


def serialize_witness(w: StructureWitness) -> str:
    lines = [f"witness kind {w.kind.value} color {w.color}"]
    lines.append(f"component {_verts(w.component)}")
    if w.cycle is not None:
        lines.append(f"cycle {_verts(w.cycle.vertices)}")
    if w.matching is not None:
        lines.append(f"matching {_edge_list(w.matching.edges)}")
    if w.odd_cycle is not None:
        lines.append(f"odd-cycle {_verts(w.odd_cycle.vertices)}")
    return "\n".join(lines) + "\n"


def serialize_decomposition(dec: FLDecomposition, color: int | None = None) -> str:
    head = "decomposition" if color is None else f"decomposition color {color}"
    lines = [
        head,
        f"V1 {_verts(dec.V1)}",
        f"V2 {_verts(dec.V2)}",
        f"V3 {_verts(dec.V3)}",
        f"hypothesis {'true' if dec.hypothesis_holds else 'false'}",
        f"sparse-edges {dec.sparse_edge_count} bound {dec.sparse_bound}",
    ]
    return "\n".join(lines) + "\n"


def serialize_peel(res: PeelResult) -> str:
    lines = [f"peel-kept {_verts(res.kept)}"]
    if res.removals:
        lines.extend(f"peel-removed {v} {d}" for v, d in res.removals)
    else:
        lines.append("peel-removed -")
    return "\n".join(lines) + "\n"


def serialize_structural_certificate(cert: StructuralCertificate) -> str:
    lines = [f"structural-certificate n {cert.n} colors {cert.color_count}"]
    for t in cert.tagged:
        line = f"component color {t.color} tag {t.tag.value} vertices {_verts(t.vertices)}"
        if t.tag is ComponentTag.BIPARTITE and t.parts is not None:
            line += f" parts {_verts(t.parts[0])} | {_verts(t.parts[1])}"
        lines.append(line)
    lines.append(f"all-tagged {'true' if cert.all_tagged else 'false'}")
    return "\n".join(lines) + "\n"


def serialize_sweep_report(rep: SweepReport) -> str:
    lines = [
        f"eg-sweep v {rep.vertex_count} lengths {_verts(rep.lengths)}",
        f"graphs {rep.graphs_enumerated} checked {rep.graphs_checked}",
        f"violations {rep.violation_count}",
    ]
    for n, edges in rep.violations:
        lines.append(f"violation n {n} edges {_edge_list(edges)}")
    return "\n".join(lines) + "\n"


def _ok(flag: bool) -> str:
    return "ok" if flag else "fail"


def serialize_chain_report(rep: ChainReport) -> str:
    lines = [
        "chain-report",
        f"k {rep.k}",
        f"n {rep.n}",
        f"eps {rep.eps}",
        f"delta {rep.delta}",
        f"N {rep.N}",
        f"n-cap {rep.n_cap} {_ok(rep.n_cap_ok)}",
        f"x-boundary {rep.x_boundary}",
        f"link-a {_ok(rep.link_a_ok)} at-boundary {rep.link_a_at_boundary}",
        f"link-b {_ok(rep.n_cap_ok)} at-boundary {rep.link_b_at_boundary} sup {rep.link_b_sup}",
        f"link-c value {rep.link_c_value} eps-half {rep.eps_half_term} "
        f"{'exact' if rep.link_c_exact else 'inexact'}",
        f"interval lower {rep.lower_interval} upper {rep.upper_interval}",
        f"contradiction {_ok(rep.contradiction)}",
        f"holds {'true' if rep.holds else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def serialize_lemma4_trace(trace: Lemma4Trace) -> str:
    p = trace.params
    lines = [
        "lemma4-trace",
        f"k {p.k}",
        f"n {trace.n}",
        f"c {p.c}",
        f"eps {p.eps}",
        f"delta {p.delta}",
        f"N {p.N}",
    ]
    for failure in trace.precondition_failures:
        lines.append(f"precondition-fail {failure}")
    lines.append(f"host {trace.peel.graph.vertex_count}")
    lines.append(serialize_peel(trace.peel).rstrip("\n"))
    for i, dec in enumerate(trace.decompositions, start=1):
        lines.append(serialize_decomposition(dec, color=i).rstrip("\n"))
    for cell in trace.cells:
        sig = ",".join(str(j) for j in cell.signature)
        lines.append(f"cell {sig} {_verts(cell.vertices)}")
    chosen_sig = ",".join(str(j) for j in trace.chosen.signature)
    lines.append(f"chosen {chosen_sig} size {trace.chosen.size}")
    lines.append(f"pigeonhole-min {trace.pigeonhole_min}")
    for i, cnt in enumerate(trace.color_edge_counts, start=1):
        lines.append(f"cell-edges color {i} {cnt}")
    lines.append(f"cell-edges total {trace.cell_edge_count}")
    lines.append(
        f"eq2 lhs {trace.cell_edge_count} bound {trace.eq2_bound} {_ok(trace.eq2_ok)}"
    )
    lines.append(
        f"eq3 lhs {trace.cell_edge_count} bound {trace.eq3_bound} {_ok(trace.eq3_ok)}"
    )
    lines.append(f"chain-a {'-' if trace.chain_a is None else trace.chain_a}")
    lines.append(f"chain-b {'-' if trace.chain_b is None else trace.chain_b}")
    lines.append(f"n-cap {trace.n_cap} {_ok(trace.n_cap_ok)}")
    lines.append(f"chain-cap {trace.chain_cap}")
    lines.append(f"eps-half {trace.eps_half_term}")
    lines.append(f"chain {_ok(trace.chain_ok)}")
    lines.append(
        f"interval lower {trace.lower_interval} upper {trace.upper_interval}"
    )
    lines.append(
        f"pigeonhole size {trace.chosen.size} required {trace.lower_interval} "
        f"{_ok(trace.pigeonhole_ok)}"
    )
    lines.append(f"verdict {trace.verdict.value}")
    return "\n".join(lines) + "\n"


def serialize_even_report(rep: EvenCaseReport) -> str:
    lines = [
        "even-report",
        f"n {rep.n}",
        f"eps {rep.eps}",
        f"colors {rep.color_count}",
        f"host {rep.host_order}",
        f"edges {rep.edge_count}",
    ]
    for failure in rep.precondition_failures:
        lines.append(f"precondition-fail {failure}")
    for i, cnt in enumerate(rep.color_edge_counts, start=1):
        lines.append(f"color-edges {i} {cnt}")
    lines.append(f"majority {rep.majority_color} count {rep.majority_count}")
    lines.append(
        f"pigeonhole lhs {rep.pigeonhole_lhs} rhs {rep.pigeonhole_rhs} "
        f"{_ok(rep.pigeonhole_ok)}"
    )
    lines.append(f"threshold {rep.threshold} short")
    return "\n".join(lines) + "\n"


def serialize_search_result(res: SearchResult) -> str:
    """Stable search report; wall time is deliberately omitted."""
    lines = [
        f"search k {res.k} n {res.n} N {res.N} order {EDGE_ORDER}",
        f"verdict {res.verdict.value}",
        f"nodes {res.stats.nodes}",
        f"cycle-prunes {res.stats.cycle_prunes}",
        f"symmetry-prunes {res.stats.symmetry_prunes}",
        f"orderly-prunes {res.stats.orderly_prunes}",
    ]
    if res.verdict is SearchVerdict.INDETERMINATE:
        lines += map(_prefix_line, res.open_prefixes)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON


# Types `to_jsonable` returns as they are, tested by exact type so that a
# subclass (an IntEnum, say) still takes the isinstance chain below.
_LEAVES = frozenset({int, str, bool, float, type(None)})
# A dataclass type's field names, from `dataclasses.fields` (which skips
# ClassVar and InitVar pseudo-fields), filled on its first conversion.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def to_jsonable(obj):
    """Recursively convert package objects to JSON-ready structures.

    Fractions become `p/q` strings (never floats); enums their values;
    graphs and colorings their canonical edge lists; dataclasses dicts.
    Leaves, lists, tuples, Fractions and dataclasses already seen are
    dispatched on their exact type; the isinstance chain after them
    decides every other object, subclasses included.
    """
    t = type(obj)
    if t in _LEAVES:
        return obj
    if t is tuple or t is list:
        return [x if type(x) in _LEAVES else to_jsonable(x) for x in obj]
    if t is Fraction:
        return str(obj)
    names = _FIELD_NAMES.get(t)
    if names is not None:
        return {name: to_jsonable(getattr(obj, name)) for name in names}
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
        names = _FIELD_NAMES[t] = tuple(f.name for f in dataclasses.fields(obj))
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, frozenset):
        return [to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# One report per result


_TEXT = {
    EdgeColoring: serialize_coloring,
    StructuralCertificate: serialize_structural_certificate,
    StructureWitness: serialize_witness,
    FLDecomposition: serialize_decomposition,
    PeelResult: lambda res: serialize_peel(res) + serialize_graph(res.graph),
    ChainReport: serialize_chain_report,
    Lemma4Trace: serialize_lemma4_trace,
    EvenCaseReport: serialize_even_report,
    SearchResult: lambda res: serialize_search_result(res) + (
        "" if res.counterexample is None else serialize_coloring(res.counterexample)
    ),
}


def render(obj, as_json: bool = False, *, color: int | None = None) -> str:
    """The report a CLI result prints as: the text of its serializer, or
    with `as_json` one sorted-key `to_jsonable` line.

    A peel also prints its surviving graph and a search its
    counterexample, if any.  `True` (no monochromatic C_n, from
    `verify_mono_cycle_free`) prints `mono-cycle-free true` and `None`
    (no `pk_witness_search` witness) `witness none`.  `color` numbers a
    decomposition.
    """
    if obj is True:
        return '{"free": true}\n' if as_json else "mono-cycle-free true\n"
    if obj is None:
        return '{"witness": null}\n' if as_json else "witness none\n"
    if not as_json:
        if color is not None:
            return serialize_decomposition(obj, color)
        return _TEXT[type(obj)](obj)
    data = to_jsonable(obj)
    if color is not None:
        data["color"] = color
    return json.dumps(data, sort_keys=True) + "\n"
