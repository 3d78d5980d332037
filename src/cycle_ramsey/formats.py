"""File formats and report serialization.

Graph and coloring files are canonical: header line, then one line per
edge with u < v, sorted lexicographically, ASCII, LF line endings — so
equal objects produce byte-identical files.  Reports serialize to
line-oriented text with no timings or other run-dependent noise, which
makes them golden-file testable; `to_jsonable` provides the machine
twin.  Rational literals are `p/q` (or bare integers) and never
decimals, keeping the exact-arithmetic guarantee end to end.
"""

from __future__ import annotations

import dataclasses
import enum
import re
from fractions import Fraction

from .certificates import StructureWitness
from .constructions import ComponentTag, StructuralCertificate
from .cycles import SweepReport
from .decompose import FLDecomposition, PeelResult
from .engine import ChainReport, EvenCaseReport, Lemma4Trace
from .errors import FormatError
from .graphs import EdgeColoring, Graph, build_graph, make_coloring
from .search import SearchResult, SearchVerdict

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a strict `p/q` (or integer) literal; decimals are rejected."""
    if not _RATIONAL_RE.match(text):
        raise FormatError(
            f"bad rational {text!r}: expected 'p/q' or an integer "
            "(decimals are not accepted)"
        )
    return Fraction(text)


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


def _data_lines(text: str) -> list[tuple[int, list[str]]]:
    """Numbered token lists of the non-blank lines; `#` starts a comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer token") from None


def parse_graph(text: str) -> Graph:
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty graph file")
    lineno, header = lines[0]
    if len(header) != 2 or header[0] != "graph":
        raise FormatError(f"line {lineno}: expected 'graph <V>'")
    (v,) = _ints(header[1:], lineno)
    edges = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != 3 or tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        a, b = _ints(tokens[1:], lineno)
        edges.append((a, b))
    return build_graph(v, edges)


def parse_coloring(text: str) -> EdgeColoring:
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty coloring file")
    lineno, header = lines[0]
    if len(header) != 3 or header[0] != "coloring":
        raise FormatError(f"line {lineno}: expected 'coloring <V> <k>'")
    v, k = _ints(header[1:], lineno)
    assignment = {}
    edges = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != 4 or tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected 'e <u> <v> <c>'")
        a, b, c = _ints(tokens[1:], lineno)
        edges.append((a, b))
        assignment[(a, b)] = c
    base = build_graph(v, edges)
    return make_coloring(base, k, assignment)


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
        f"search k {res.k} n {res.n} N {res.N} order {res.order_scheme}",
        f"verdict {res.verdict.value}",
        f"nodes {res.stats.nodes}",
        f"cycle-prunes {res.stats.cycle_prunes}",
        f"symmetry-prunes {res.stats.symmetry_prunes}",
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
