"""File formats and report serialization.

Graph and coloring files are canonical: header line, then one line per
edge with u < v, sorted lexicographically, ASCII, LF line endings — so
equal objects produce byte-identical files.  The parsers take edges in
any order and orientation; they sort them once, a single linear pass
when the file is canonical, and seed `Graph.sorted_edges` with the
result, so a parsed graph is never sorted again.  Reports serialize to
line-oriented text with no timings or other run-dependent noise, which
makes them golden-file testable; `to_jsonable` provides the machine
twin, and `render` picks which of the two a result prints as.  Rational
literals are `p/q` (or bare integers) and never decimals, keeping the
exact-arithmetic guarantee end to end.
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
from .errors import (
    DuplicateEdge,
    FormatError,
    LoopEdge,
    TargetTooLarge,
    VertexOutOfRange,
    ascii_int,
    parse_rational,
)
from .graphs import (
    _MAX_COLORS,
    _MAX_ORDER,
    Edge,
    EdgeColoring,
    Graph,
    _sorted_graph,
)
from .search import EDGE_ORDER, SearchResult, SearchVerdict

# ---------------------------------------------------------------------------
# Graph / coloring files


def serialize_graph(G: Graph) -> str:
    lines = [f"graph {G.vertex_count}"]
    lines.extend(f"e {u} {v}" for u, v in G.sorted_edges)
    return "\n".join(lines) + "\n"


def serialize_coloring(col: EdgeColoring) -> str:
    lines = [f"coloring {col.base.vertex_count} {col.color_count}"]
    lines.extend(
        f"e {u} {v} {c}" for (u, v), c in zip(col.base.sorted_edges, col.colors)
    )
    return "\n".join(lines) + "\n"


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [ascii_int(t) for t in tokens]
    except FormatError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def _edge_file(text: str, colored: bool) -> tuple[int, list[int], dict[Edge, int]]:
    """(V, header numbers, edge -> color) of a coloring file, or of a
    graph file when not `colored` (its edges then map to 0).

    One pass over the lines; a line that is not blank once `#` and what
    follows are stripped is data, and the first is the header.  A format
    error is raised where it is met.  A loop, an endpoint outside
    0..V-1 or a repeated edge (in either orientation) is raised only
    once the whole file has parsed, the first in line order.  A header
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
    v = 0
    edges: dict[Edge, int] = {}
    fault = None  # the first graph error, raised after the format checks
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
        a, b = tokens[1], tokens[2]
        c = tokens[3] if colored else "0"
        if (a + b + c).isdigit():  # plain digits need no per-token check
            a, b, c = int(a), int(b), int(c)
        else:
            nums = _ints(tokens[1:], lineno)
            a, b = nums[0], nums[1]
            c = nums[2] if colored else 0
        if fault is not None:
            continue
        if a == b:
            fault = LoopEdge(f"self-loop at vertex {a}")
        elif not (0 <= a < v and 0 <= b < v):
            fault = VertexOutOfRange(
                f"edge ({a},{b}) outside vertex range 0..{v - 1}"
            )
        else:
            e = (a, b) if a < b else (b, a)
            if e in edges:
                fault = DuplicateEdge(f"edge {e} listed twice")
            else:
                edges[e] = c
    if header is None:
        raise FormatError(f"empty {kind} file")
    if fault is not None:
        raise fault
    return v, header, edges


def parse_graph(text: str) -> Graph:
    v, _, edges = _edge_file(text, colored=False)
    return _sorted_graph(v, sorted(edges))


def parse_coloring(text: str) -> EdgeColoring:
    v, (_, k), colors = _edge_file(text, colored=True)
    lines = list(colors)
    order = sorted(lines)
    # a canonical file lists its colors in sorted edge order already
    ordered = colors.values() if order == lines else map(colors.__getitem__, order)
    return EdgeColoring(_sorted_graph(v, order), k, tuple(ordered))


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
        f"link-b {_ok(rep.link_b_ok)} at-boundary {rep.link_b_at_boundary} sup {rep.link_b_sup}",
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
    lines.append(
        f"threshold {rep.threshold} {'met' if rep.threshold_met else 'short'}"
    )
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
        for prefix in res.open_prefixes:
            lines.append(
                f"prefix {len(prefix)} {' '.join(str(c) for c in prefix)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON


def to_jsonable(obj):
    """Recursively convert package objects to JSON-ready structures.

    Fractions become `p/q` strings (never floats); enums their values;
    graphs and colorings their canonical edge lists; dataclasses dicts.
    """
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
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
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
