"""Command-line driver.

Exit codes: 0 definite positive result, 1 counterexample or negative
witness outcome, 2 indeterminate (budget exhausted), 3 usage error, 4
internal error (a bug, never a verdict).
Reports go to stdout in the line formats from `formats`; `--json`
switches every report to one JSON object per line.  Rational flags take
exact `p/q` strings — decimals are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .constructions import (
    bondy_erdos_coloring,
    structural_certificate,
    verify_mono_cycle_free,
)
from .decompose import fl_decompose, min_degree_peel
from .engine import (
    EvenCaseReport,
    Lemma4Trace,
    Parity,
    PkParameters,
    even_engine,
    lemma4_execute,
    lemma4_inequality_check,
    pk_witness_search,
)
from .errors import CycleRamseyError
from .formats import (
    parse_coloring,
    parse_graph,
    parse_rational,
    serialize_chain_report,
    serialize_coloring,
    serialize_decomposition,
    serialize_even_report,
    serialize_graph,
    serialize_lemma4_trace,
    serialize_peel,
    serialize_search_result,
    serialize_structural_certificate,
    serialize_witness,
    to_jsonable,
)
from .graphs import color_class
from .search import (
    SearchVerdict,
    ramsey_check,
    read_checkpoint,
    resume_search,
    write_checkpoint,
)

THREADS_ENV = "CYCLE_RAMSEY_THREADS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 3, not 2."""

    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, decoded from flags."""

    subcommand: str
    input_path: str | None = None
    output_path: str | None = None
    k: int | None = None
    n: int | None = None
    N: int | None = None
    eps: Fraction | None = None
    parity: str | None = None
    order: str = "lex"
    threads: int = 1
    budget: int | None = None
    checkpoint: str | None = None
    resume: str | None = None
    json_output: bool = False


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except CycleRamseyError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> _Parser:
    parser = _Parser(prog="cycle-ramsey", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool = False) -> None:
        p.add_argument("--json", action="store_true", dest="json_output")
        if needs_input:
            p.add_argument(
                "--in", dest="input_path", default=None,
                help="input file ('-' or omitted: stdin)",
            )

    p = sub.add_parser("construct", help="emit the doubling lower-bound coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", dest="output_path", default=None)
    common(p)

    p = sub.add_parser("verify", help="check a coloring for monochromatic C_n")
    p.add_argument("--n", type=int, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("decompose", help="decompose each color class")
    p.add_argument("--n", type=int, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("peel", help="min-degree peel a graph")
    p.add_argument("--target", dest="N", type=int, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("engine", help="run the odd/even proof engine on a coloring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=_rational_arg, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("ineq", help="verify the odd-case inequality chain")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=_rational_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("search", help="exhaustive monochromatic-C_n search on K_N")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--order", choices=("lex", "colex"), default="lex")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", default=None)
    common(p)

    p = sub.add_parser("witness", help="look for the density property's structure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parity", choices=("odd", "even"), default=None)
    common(p, needs_input=True)

    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    for flag in ("threads", "budget"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise _UsageError(f"--{flag} must be >= 1, got {value}")
    threads = getattr(args, "threads", None)
    if threads is None:
        threads = _default_threads()
    return RunConfig(
        subcommand=args.subcommand,
        input_path=getattr(args, "input_path", None),
        output_path=getattr(args, "output_path", None),
        k=getattr(args, "k", None),
        n=getattr(args, "n", None),
        N=getattr(args, "N", None),
        eps=getattr(args, "eps", None),
        parity=getattr(args, "parity", None),
        order=getattr(args, "order", "lex"),
        threads=threads,
        budget=getattr(args, "budget", None),
        checkpoint=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", None),
        json_output=getattr(args, "json_output", False),
    )


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _emit(text: str, path: str | None = None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _json_line(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True) + "\n"


def _cmd_construct(cfg: RunConfig) -> int:
    col = bondy_erdos_coloring(cfg.k, cfg.n)
    out = _json_line(col) if cfg.json_output else serialize_coloring(col)
    _emit(out, cfg.output_path)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    col = parse_coloring(_read_text(cfg.input_path))
    chunks = []
    if cfg.n % 2 == 1:
        cert = structural_certificate(col, cfg.n)
        chunks.append(
            _json_line(cert) if cfg.json_output
            else serialize_structural_certificate(cert)
        )
    outcome = verify_mono_cycle_free(col, cfg.n)
    if outcome is True:
        chunks.append(
            _json_line({"free": True}) if cfg.json_output
            else "mono-cycle-free true\n"
        )
        _emit("".join(chunks))
        return 0
    chunks.append(
        _json_line(outcome) if cfg.json_output else serialize_witness(outcome)
    )
    _emit("".join(chunks))
    return 1


def _cmd_decompose(cfg: RunConfig) -> int:
    col = parse_coloring(_read_text(cfg.input_path))
    chunks = []
    for i in range(1, col.color_count + 1):
        dec = fl_decompose(color_class(col, i), cfg.n)
        if cfg.json_output:
            obj = to_jsonable(dec)
            obj["color"] = i
            chunks.append(json.dumps(obj, sort_keys=True) + "\n")
        else:
            chunks.append(serialize_decomposition(dec, color=i))
    _emit("".join(chunks))
    return 0


def _cmd_peel(cfg: RunConfig) -> int:
    G = parse_graph(_read_text(cfg.input_path))
    res = min_degree_peel(G, cfg.N)
    if cfg.json_output:
        _emit(_json_line(res))
    else:
        _emit(serialize_peel(res) + serialize_graph(res.graph))
    return 0


def _cmd_engine(cfg: RunConfig) -> int:
    col = parse_coloring(_read_text(cfg.input_path))
    if cfg.n % 2 == 1:
        params = PkParameters.for_lemma(col.color_count, cfg.n, cfg.eps)
        outcome = lemma4_execute(col, cfg.n, params)
        if isinstance(outcome, Lemma4Trace):
            _emit(
                _json_line(outcome) if cfg.json_output
                else serialize_lemma4_trace(outcome)
            )
            return 1
    else:
        outcome = even_engine(col, cfg.n, cfg.eps)
        if isinstance(outcome, EvenCaseReport):
            _emit(
                _json_line(outcome) if cfg.json_output
                else serialize_even_report(outcome)
            )
            return 1
    _emit(_json_line(outcome) if cfg.json_output else serialize_witness(outcome))
    return 0


def _cmd_ineq(cfg: RunConfig) -> int:
    rep = lemma4_inequality_check(cfg.k, cfg.eps, cfg.n)
    _emit(_json_line(rep) if cfg.json_output else serialize_chain_report(rep))
    return 0 if rep.holds else 1


def _cmd_search(cfg: RunConfig) -> int:
    if cfg.resume is not None:
        prefixes = read_checkpoint(cfg.resume, (cfg.k, cfg.n, cfg.N, cfg.order))
        res = resume_search(
            cfg.k, cfg.n, cfg.N, prefixes,
            order=cfg.order, budget=cfg.budget, threads=cfg.threads,
        )
    else:
        res = ramsey_check(
            cfg.k, cfg.n, cfg.N,
            order=cfg.order, budget=cfg.budget, threads=cfg.threads,
        )
    if cfg.json_output:
        _emit(_json_line(res))
    else:
        out = serialize_search_result(res)
        if res.counterexample is not None:
            out += serialize_coloring(res.counterexample)
        _emit(out)
    if res.verdict is SearchVerdict.INDETERMINATE:
        if cfg.checkpoint is not None:
            write_checkpoint(cfg.checkpoint, res)
        return 2
    return 0 if res.verdict is SearchVerdict.ALL_CONTAIN else 1


def _cmd_witness(cfg: RunConfig) -> int:
    col = parse_coloring(_read_text(cfg.input_path))
    if cfg.parity is None:
        parity = Parity.ODD if cfg.n % 2 == 1 else Parity.EVEN
    else:
        parity = Parity.ODD if cfg.parity == "odd" else Parity.EVEN
    w = pk_witness_search(col, cfg.n, parity)
    if w is None:
        _emit(
            _json_line({"witness": None}) if cfg.json_output
            else "witness none\n"
        )
        return 1
    _emit(_json_line(w) if cfg.json_output else serialize_witness(w))
    return 0


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "peel": _cmd_peel,
    "engine": _cmd_engine,
    "ineq": _cmd_ineq,
    "search": _cmd_search,
    "witness": _cmd_witness,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CycleRamseyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # only on this path: every invocation pays import time

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
