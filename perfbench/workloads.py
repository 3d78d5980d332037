"""The four benchmark workloads: certify, eg-sweep, hunt and analyze.

Each workload makes its inputs from the seed as plain Python data, with
no package calls, so every package call falls inside a timed section.
A pass runs two timed sections, `primary` and `secondary`; both call
the package only through `Recorder.call`, check every result inside a
`Recorder.op`, and return deterministic counters.  Every pass of a run
works on the same inputs, so its counters must repeat exactly.  See
README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from cycle_ramsey import (
    EdgeColoring,
    Lemma4Trace,
    Parity,
    PkParameters,
    SearchVerdict,
    StructureWitness,
    TraceVerdict,
    WitnessKind,
    bondy_erdos_coloring,
    check_decomposition,
    color_class,
    complete_graph,
    components,
    erdos_gallai_sweep,
    even_engine,
    fl_decompose,
    induced_subgraph,
    lemma4_execute,
    lemma4_inequality_check,
    lower_bound_witness_search,
    max_matching,
    min_degree_peel,
    pk_witness_search,
    ramsey_check,
    read_checkpoint,
    resume_search,
    verify_cycle,
    verify_matching,
    verify_mono_cycle_free,
    verify_witness,
    WitnessMode,
    write_checkpoint,
)
from cycle_ramsey import cli
from cycle_ramsey.formats import (
    parse_coloring,
    serialize_coloring,
    serialize_decomposition,
    serialize_even_report,
    serialize_lemma4_trace,
    serialize_witness,
    to_jsonable,
)


def _complete_coloring(v: int, k: int, colors: tuple[int, ...]) -> EdgeColoring:
    return EdgeColoring(complete_graph(v), k, colors)


# ---------------------------------------------------------------------------
# certify: the four small two-colour values, then a checkpoint chain


# (n, R): R_2(C_n) = R, certified as ALL_CONTAIN at R and a re-verified
# COUNTEREXAMPLE at R-1.
CERTIFY_VALUES = ((3, 6), (4, 6), (6, 8), (5, 9))
CHAIN_INSTANCE = (2, 5, 9)
CHAIN_BUDGET = 50_000
_CHAIN_MAX_LEGS = 10_000


class Certify:
    name = "certify"
    seeded_counters = False

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        self.jobs = [
            (n, N, SearchVerdict.ALL_CONTAIN if N == R else SearchVerdict.COUNTEREXAMPLE)
            for n, R in CERTIFY_VALUES
            for N in (R, R - 1)
        ]
        random.Random(seed).shuffle(self.jobs)
        self.checkpoint = work_dir / "chain.ckpt"

    def primary(self, rec) -> dict:
        out = {}
        for n, N, want in self.jobs:
            with rec.op(f"ramsey_check(2, {n}, {N})"):
                res = rec.call("search.ramsey_check", ramsey_check, 2, n, N, threads=1)
                rec.require(res.verdict is want, f"verdict {res.verdict.value}")
                if want is SearchVerdict.COUNTEREXAMPLE:
                    free = rec.call(
                        "constructions.verify_mono_cycle_free",
                        verify_mono_cycle_free, res.counterexample, n,
                    )
                    rec.require(free is True, "counterexample fails re-verification")
                s = res.stats
                out[f"{n}-{N}"] = [s.nodes, s.cycle_prunes, s.symmetry_prunes]
        return out

    def secondary(self, rec) -> dict:
        k, n, N = CHAIN_INSTANCE
        path = str(self.checkpoint)
        legs = nodes = peak = 0
        with rec.op(f"checkpoint chain {k} {n} {N} budget {CHAIN_BUDGET}"):
            res = rec.call(
                "search.ramsey_check", ramsey_check, k, n, N,
                budget=CHAIN_BUDGET, threads=1,
            )
            while True:
                legs += 1
                nodes += res.stats.nodes
                peak = max(peak, len(res.open_prefixes))
                if res.verdict is not SearchVerdict.INDETERMINATE:
                    break
                rec.require(legs < _CHAIN_MAX_LEGS, "chain does not terminate")
                rec.call("search.write_checkpoint", write_checkpoint, path, res)
                prefixes = rec.call("search.read_checkpoint", read_checkpoint, path)
                rec.require(
                    prefixes == res.open_prefixes, "checkpoint round trip changed prefixes"
                )
                res = rec.call(
                    "search.resume_search", resume_search, k, n, N, prefixes,
                    budget=CHAIN_BUDGET, threads=1,
                )
            rec.require(
                res.verdict is SearchVerdict.ALL_CONTAIN,
                f"chain ended {res.verdict.value}",
            )
        return {"legs": legs, "nodes": nodes, "max_open_prefixes": peak}


# ---------------------------------------------------------------------------
# eg-sweep: the exhaustive Erdős–Gallai sweep, v = 7 then v = 1..6


SWEEP_MAIN_ORDER = 7
SWEEP_SMALL_ROUNDS = 30  # v = 1..6 takes ~0.1 s; repeat it to time it well


class EgSweep:
    name = "eg-sweep"
    seeded_counters = False

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        # The sweep's inputs are fixed by definition; the seed only
        # permutes the small orders.
        self.small = list(range(1, SWEEP_MAIN_ORDER))
        random.Random(seed).shuffle(self.small)

    def _sweep(self, rec, v: int, out: dict) -> None:
        with rec.op(f"erdos_gallai_sweep({v})"):
            rep = rec.call("cycles.erdos_gallai_sweep", erdos_gallai_sweep, v)
            rec.require(rep.violation_count == 0, f"{rep.violation_count} violations")
            rec.require(
                rep.graphs_enumerated == 1 << (v * (v - 1) // 2),
                f"enumerated {rep.graphs_enumerated} graphs",
            )
            out[f"v{v}"] = [rep.graphs_enumerated, rep.graphs_checked, rep.violation_count]

    def primary(self, rec) -> dict:
        out = {}
        self._sweep(rec, SWEEP_MAIN_ORDER, out)
        return out

    def secondary(self, rec) -> dict:
        out = {}
        for _ in range(SWEEP_SMALL_ROUNDS):
            for v in self.small:
                self._sweep(rec, v, out)
        return out


# ---------------------------------------------------------------------------
# hunt: randomized 3-colour C_6 ladder, then direct layer probes


HUNT_K, HUNT_N = 3, 6
HUNT_RUNGS = (9, 10, 11)
HUNT_STEPS_PER_RUNG = 4000
PROBE_ORDERS = (10, 11)
PROBES_PER_ORDER = 500


class Hunt:
    name = "hunt"
    seeded_counters = True

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        rng = random.Random(seed)
        # One stream of trajectory seeds per rung; a rung restarts with
        # the next seed after each witness until its step budget is spent.
        self.rung_seeds = {N: rng.getrandbits(64) for N in HUNT_RUNGS}
        self.probes = [
            (v, tuple(rng.randint(1, HUNT_K) for _ in range(v * (v - 1) // 2)))
            for v in PROBE_ORDERS
            for _ in range(PROBES_PER_ORDER)
        ]

    def primary(self, rec) -> dict:
        out = {}
        for N in HUNT_RUNGS:
            left, trajectories, witnesses = HUNT_STEPS_PER_RUNG, 0, 0
            seeds = random.Random(self.rung_seeds[N])
            while left > 0:
                used = left  # a crashed trajectory ends the rung
                with rec.op(f"hunt K_{N}"):
                    res = rec.call(
                        "search.lower_bound_witness_search",
                        lower_bound_witness_search, HUNT_K, HUNT_N, N,
                        mode=WitnessMode.RANDOMIZED, budget=left, seed=seeds.getrandbits(32),
                    )
                    if res.coloring is None:
                        rec.require(res.steps == left, f"stopped after {res.steps} steps")
                    else:
                        used = res.steps + 1  # the step that found it
                        witnesses += 1
                        rec.require(
                            res.coloring.base.vertex_count == N
                            and res.coloring.color_count == HUNT_K,
                            "witness has the wrong shape",
                        )
                        free = rec.call(
                            "constructions.verify_mono_cycle_free",
                            verify_mono_cycle_free, res.coloring, HUNT_N,
                        )
                        rec.require(free is True, "witness fails re-verification")
                trajectories += 1
                left -= used
            out[f"K{N}"] = [HUNT_STEPS_PER_RUNG - left, trajectories, witnesses]
        return out

    def secondary(self, rec) -> dict:
        free = comps = matched = 0
        for v, colors in self.probes:
            with rec.op(f"probe K_{v}"):
                col = rec.call("graphs.build_coloring", _complete_coloring, v, HUNT_K, colors)
                for i in range(1, HUNT_K + 1):
                    G = rec.call("graphs.color_class", color_class, col, i)
                    rep = rec.call("cycles.components", components, G)
                    for comp in rep.components:
                        comps += 1
                        if len(comp.vertices) < 2:
                            continue
                        sub, _ = rec.call(
                            "graphs.induced_subgraph", induced_subgraph, G, comp.vertices
                        )
                        m = rec.call("matching.max_matching", max_matching, sub)
                        rec.require(
                            m.size == comp.matching_size and verify_matching(sub, m),
                            "matching disagrees with components()",
                        )
                        matched += m.size
                outcome = rec.call(
                    "constructions.verify_mono_cycle_free",
                    verify_mono_cycle_free, col, HUNT_N,
                )
                if outcome is True:
                    free += 1
                else:
                    rec.require(
                        outcome.cycle is not None
                        and outcome.cycle.length == HUNT_N
                        and verify_cycle(color_class(col, outcome.color), outcome.cycle),
                        "bad monochromatic-cycle witness",
                    )
        return {"probes": len(self.probes), "free": free, "components": comps, "matched": matched}


# ---------------------------------------------------------------------------
# analyze: the proof-machinery pipeline over a seeded corpus, then the CLI


# Doubling colourings (k, n) on 2^(k-1)(n-1) <= 128 vertices.
DOUBLING = ((2, 5), (3, 5), (4, 5), (6, 5), (3, 9), (5, 9), (2, 6), (3, 6), (4, 8))
# Random dense colourings (v, k, n); the last colour is drawn rarely,
# so that class is sparse.
RANDOM_DENSE = ((20, 2, 5), (40, 3, 7), (60, 3, 5), (80, 4, 9), (30, 2, 6), (50, 3, 8))
# Shuffled block colourings (k, n): 2^(k-1) blocks of 2..n-1 vertices,
# colour 1 inside blocks and a bipartite colour across, plus a sparse
# extra colour k+1 on a few cross edges.
BLOCKS = ((3, 5), (4, 7), (5, 9), (3, 11))
ENGINE_EPS = {True: Fraction(1), False: Fraction(1, 2)}  # odd n, even n
INEQ_GRID = [
    (k, eps, n)
    for k in (4, 5, 6, 7)
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for n in (5, 7, 101)
]
GOLDEN = Path("tests") / "data" / "lemma4_be25_trace.txt"
CLI_EVERY = 2  # every other corpus colouring also goes through cli.run


def _random_dense(rng: random.Random, v: int, k: int) -> tuple[int, ...]:
    weights = [1.0] * (k - 1) + [0.25]
    return tuple(rng.choices(range(1, k + 1), weights, k=v * (v - 1) // 2))


def _block_coloring(rng: random.Random, k: int, n: int) -> tuple[int, tuple[int, ...]]:
    # Block sizes cycle through 2..n-1, so the order is the same for
    # every seed; which block gets which size is random.
    sizes = [2 + i % (n - 2) for i in range(1 << (k - 1))]
    rng.shuffle(sizes)
    block = [b for b, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(block)
    v = len(block)
    colors = []
    for a in range(v):
        for b in range(a + 1, v):
            x = block[a] ^ block[b]
            colors.append(1 if x == 0 else x.bit_length() + 1)
    cross = [i for i, c in enumerate(colors) if c > 1]
    for i in rng.sample(cross, v // 2):
        colors[i] = k + 1
    return v, tuple(colors)


class _Item:
    """One corpus colouring and what the library pipeline said about it."""

    def __init__(self, label: str, n: int, build, expect_free: bool | None) -> None:
        self.label = label
        self.n = n
        self.build = build  # (layer call name, fn, args)
        self.expect_free = expect_free
        self.path = ""
        self.expected = {}  # cli subcommand -> (exit code, stdout, match suffix only)


class Analyze:
    name = "analyze"
    seeded_counters = True

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        rng = random.Random(seed)
        items = []
        for k, n in DOUBLING:
            # Free of C_n for odd n; for even n the bipartite classes hold one.
            items.append(_Item(
                f"doubling k{k} n{n}", n,
                ("constructions.bondy_erdos_coloring", bondy_erdos_coloring, (k, n)),
                n % 2 == 1,
            ))
        for v, k, n in RANDOM_DENSE:
            items.append(_Item(
                f"random K{v} k{k} n{n}", n,
                ("graphs.build_coloring", _complete_coloring, (v, k, _random_dense(rng, v, k))),
                None,
            ))
        for k, n in BLOCKS:
            v, colors = _block_coloring(rng, k, n)
            items.append(_Item(
                f"blocks K{v} k{k + 1} n{n}", n,
                ("graphs.build_coloring", _complete_coloring, (v, k + 1, colors)),
                None,
            ))
        self.cli_items = items[::CLI_EVERY]
        rng.shuffle(items)
        rng.shuffle(self.cli_items)
        for i, item in enumerate(items):
            item.path = str(work_dir / f"coloring-{i}.txt")
        self.items = items
        self.golden = (root / GOLDEN).read_text(encoding="ascii")

    # -- primary: the library pipeline ------------------------------------

    def primary(self, rec) -> dict:
        out = {"bytes": 0}
        for item in self.items:
            with rec.op(f"pipeline {item.label}"):
                out[item.label] = self._pipeline(rec, item, out)
        with rec.op("lemma4_inequality_check grid"):
            for k, eps, n in INEQ_GRID:
                rep = rec.call("engine.lemma4_inequality_check", lemma4_inequality_check, k, eps, n)
                rec.require(
                    rep.holds and rep.lower_interval > rep.upper_interval,
                    f"chain fails at k={k} eps={eps} n={n}",
                )
        with rec.op("lemma4 trace golden file"):
            col = rec.call("constructions.bondy_erdos_coloring", bondy_erdos_coloring, 2, 5)
            params = PkParameters.for_lemma(2, 5, 1)
            trace = rec.call("engine.lemma4_execute", lemma4_execute, col, 5, params)
            text = rec.call("formats.serialize_lemma4_trace", serialize_lemma4_trace, trace)
            rec.require(text == self.golden, "trace differs from the golden file")
        out["ineq_checks"] = len(INEQ_GRID)
        return out

    def _pipeline(self, rec, item: _Item, out: dict) -> list:
        n = item.n
        odd = n % 2 == 1
        name, fn, args = item.build
        built = rec.call(name, fn, *args)
        text = rec.call("formats.serialize_coloring", serialize_coloring, built)
        col = rec.call("formats.parse_coloring", parse_coloring, text)
        rec.require(col == built, "parse_coloring(serialize_coloring(c)) != c")
        with open(item.path, "w", encoding="ascii") as fh:
            fh.write(text)
        k = col.color_count

        free = rec.call("constructions.verify_mono_cycle_free", verify_mono_cycle_free, col, n)
        if item.expect_free is not None:
            rec.require((free is True) == item.expect_free, f"verify said {free is True}")
        if free is True:
            verify_out = "mono-cycle-free true\n"
        else:
            rec.require(
                free.kind is WitnessKind.MONO_CYCLE
                and rec.call("engine.verify_witness", verify_witness, col, n, free),
                "monochromatic-cycle witness fails verify_witness",
            )
            verify_out = rec.call("formats.serialize_witness", serialize_witness, free)
        item.expected["verify"] = (0 if free is True else 1, verify_out, True)

        decomposition = []
        densest, densest_edges = None, -1
        for i in range(1, k + 1):
            G = rec.call("graphs.color_class", color_class, col, i)
            dec = rec.call("decompose.fl_decompose", fl_decompose, G, n)
            check = rec.call("decompose.check_decomposition", check_decomposition, G, n, dec)
            rec.require(check.all_ok, f"decomposition audit of colour {i}: {check}")
            decomposition.append(
                rec.call("formats.serialize_decomposition", serialize_decomposition, dec, i)
            )
            rep = rec.call("cycles.components", components, G)
            for comp in rep.components:
                if len(comp.vertices) < 2:
                    continue
                sub, _ = rec.call("graphs.induced_subgraph", induced_subgraph, G, comp.vertices)
                m = rec.call("matching.max_matching", max_matching, sub)
                rec.require(
                    m.size == comp.matching_size and verify_matching(sub, m),
                    "matching disagrees with components()",
                )
            if G.edge_count > densest_edges:
                densest, densest_edges = G, G.edge_count
        item.expected["decompose"] = (0, "".join(decomposition), False)

        v = densest.vertex_count
        target = v // 2
        peel = rec.call("decompose.min_degree_peel", min_degree_peel, densest, target)
        rec.require(
            peel.graph.vertex_count == target
            and Fraction(peel.graph.edge_count, max(1, target * (target - 1)))
            >= Fraction(densest.edge_count, v * (v - 1)),
            "peeling lowered the relative density",
        )

        eps = ENGINE_EPS[odd]
        if odd:
            params = PkParameters.for_lemma(k, n, eps)
            engine = rec.call("engine.lemma4_execute", lemma4_execute, col, n, params)
            if isinstance(engine, Lemma4Trace):
                rec.require(
                    engine.verdict is not TraceVerdict.CONTRADICTION_ESTABLISHED,
                    "the odd-case executor established a contradiction",
                )
                engine_out = rec.call("formats.serialize_lemma4_trace", serialize_lemma4_trace, engine)
        else:
            engine = rec.call("engine.even_engine", even_engine, col, n, eps)
            if not isinstance(engine, StructureWitness):
                engine_out = rec.call("formats.serialize_even_report", serialize_even_report, engine)
        if isinstance(engine, StructureWitness):
            rec.require(
                rec.call("engine.verify_witness", verify_witness, col, n, engine),
                "engine witness fails verify_witness",
            )
            engine_out = rec.call("formats.serialize_witness", serialize_witness, engine)
        engine_code = 0 if isinstance(engine, StructureWitness) else 1
        item.expected["engine"] = (engine_code, engine_out, False)

        parity = Parity.ODD if odd else Parity.EVEN
        w = rec.call("engine.pk_witness_search", pk_witness_search, col, n, parity)
        if w is None:
            witness_out = "witness none\n"
        else:
            rec.require(
                rec.call("engine.verify_witness", verify_witness, col, n, w),
                "density witness fails verify_witness",
            )
            witness_out = rec.call("formats.serialize_witness", serialize_witness, w)
        if odd:
            rec.require(
                (w is None) == isinstance(engine, Lemma4Trace) and (w is None or w == engine),
                "lemma4_execute and pk_witness_search disagree",
            )
        item.expected["witness"] = (0 if w is not None else 1, witness_out, False)

        report = rec.call("formats.to_jsonable", to_jsonable, engine)
        blob = json.dumps(report, sort_keys=True)
        out["bytes"] += len(text) + len(engine_out) + len(blob)
        return [
            col.base.vertex_count,
            k,
            free is True,
            type(engine).__name__,
            w is not None,
            len(peel.removals),
        ]

    # -- secondary: the same colourings through cli.run --------------------

    def secondary(self, rec) -> dict:
        codes = []
        for item in self.cli_items:
            n = str(item.n)
            eps = str(ENGINE_EPS[item.n % 2 == 1])
            argvs = {
                "verify": ["verify", "--n", n, "--in", item.path],
                "decompose": ["decompose", "--n", n, "--in", item.path],
                "engine": ["engine", "--n", n, "--eps", eps, "--in", item.path],
                "witness": ["witness", "--n", n, "--in", item.path],
            }
            for sub, argv in argvs.items():
                with rec.op(f"cli {sub} {item.label}"):
                    want_code, want_out, suffix_only = item.expected[sub]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = rec.call("cli.run", cli.run, argv)
                    got = stdout.getvalue()
                    rec.require(code == want_code, f"exit {code}, expected {want_code}: {stderr.getvalue()}")
                    rec.require(
                        got.endswith(want_out) if suffix_only else got == want_out,
                        "stdout differs from the library's report",
                    )
                    codes.append(code)
        return {"calls": len(codes), "exit_codes": codes}


WORKLOADS = {w.name: w for w in (Certify, EgSweep, Hunt, Analyze)}
