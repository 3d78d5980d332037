"""Command-line driver.

Exit codes: 0 definite positive result, 1 counterexample or negative
witness outcome, 2 indeterminate (budget spent), 3 usage error, 4
internal error (a bug, never a verdict).
Reports go to stdout in the line formats from `formats`; `--json`
switches every report to one JSON object per line.  Integer flags take
plain ASCII digits (`-?[0-9]+`) and rational flags exact `p/q` strings;
anything else, decimals included, is a usage error.  `search` colors the
edges in colex order, the one order its checkpoints name.

`run` may be called many times in one process: it builds its parser on
the first call and reuses it, since parsing leaves no state on it.
`build_parser()` returns a new parser on every call, so changing that
copy cannot change what `run` accepts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
from .errors import CycleRamseyError, ascii_int, ascii_text
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

class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse finished the call itself (`--help`); args[0] is its status."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 3, not 2, and
    lets `run` return the status of `--help` instead of exiting."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)


def _flag_type(parse):
    """An argparse `type` that reports a parse error as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except CycleRamseyError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_int_arg = _flag_type(ascii_int)
_rational_arg = _flag_type(parse_rational)


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
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--out", dest="output_path", default=None)
    common(p)

    p = sub.add_parser("verify", help="check a coloring for monochromatic C_n")
    p.add_argument("--n", type=_int_arg, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("decompose", help="decompose each color class")
    p.add_argument("--n", type=_int_arg, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("peel", help="min-degree peel a graph")
    p.add_argument("--target", dest="N", type=_int_arg, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("engine", help="run the odd/even proof engine on a coloring")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--eps", type=_rational_arg, required=True)
    common(p, needs_input=True)

    p = sub.add_parser("ineq", help="verify the odd-case inequality chain")
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--eps", type=_rational_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    common(p)

    p = sub.add_parser("search", help="exhaustive monochromatic-C_n search on K_N")
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--N", type=_int_arg, required=True)
    p.add_argument("--budget", type=_int_arg, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", default=None)
    common(p)

    p = sub.add_parser("witness", help="look for the density property's structure")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--parity", choices=("odd", "even"), default=None)
    common(p, needs_input=True)

    return parser


@functools.cache
def _run_parser() -> _Parser:
    # built on first use, not at import: importing the CLI stays cheap
    return build_parser()


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        stdin = sys.stdin
        if hasattr(stdin, "buffer"):
            return ascii_text(stdin.buffer.read())
        # a text stream (an in-process caller's StringIO): check its
        # characters as the bytes they would be on a real stdin
        return ascii_text(stdin.read().encode("utf-8", "surrogatepass"))
    with open(path, "rb") as fh:
        return ascii_text(fh.read())


def _emit(text: str, path: str | None = None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _json_line(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True) + "\n"


def _cmd_construct(args: argparse.Namespace) -> int:
    col = bondy_erdos_coloring(args.k, args.n)
    out = _json_line(col) if args.json_output else serialize_coloring(col)
    _emit(out, args.output_path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    chunks = []
    if args.n % 2 == 1:
        cert = structural_certificate(col, args.n)
        chunks.append(
            _json_line(cert) if args.json_output
            else serialize_structural_certificate(cert)
        )
    outcome = verify_mono_cycle_free(col, args.n)
    if outcome is True:
        chunks.append(
            _json_line({"free": True}) if args.json_output
            else "mono-cycle-free true\n"
        )
        _emit("".join(chunks))
        return 0
    chunks.append(
        _json_line(outcome) if args.json_output else serialize_witness(outcome)
    )
    _emit("".join(chunks))
    return 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    chunks = []
    for i in range(1, col.color_count + 1):
        dec = fl_decompose(color_class(col, i), args.n)
        if args.json_output:
            obj = to_jsonable(dec)
            obj["color"] = i
            chunks.append(json.dumps(obj, sort_keys=True) + "\n")
        else:
            chunks.append(serialize_decomposition(dec, color=i))
    _emit("".join(chunks))
    return 0


def _cmd_peel(args: argparse.Namespace) -> int:
    G = parse_graph(_read_text(args.input_path))
    res = min_degree_peel(G, args.N)
    if args.json_output:
        _emit(_json_line(res))
    else:
        _emit(serialize_peel(res) + serialize_graph(res.graph))
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    if args.n % 2 == 1:
        params = PkParameters.for_lemma(col.color_count, args.n, args.eps)
        outcome = lemma4_execute(col, args.n, params)
        if isinstance(outcome, Lemma4Trace):
            _emit(
                _json_line(outcome) if args.json_output
                else serialize_lemma4_trace(outcome)
            )
            return 1
    else:
        outcome = even_engine(col, args.n, args.eps)
        if isinstance(outcome, EvenCaseReport):
            _emit(
                _json_line(outcome) if args.json_output
                else serialize_even_report(outcome)
            )
            return 1
    _emit(_json_line(outcome) if args.json_output else serialize_witness(outcome))
    return 0


def _cmd_ineq(args: argparse.Namespace) -> int:
    rep = lemma4_inequality_check(args.k, args.eps, args.n)
    _emit(_json_line(rep) if args.json_output else serialize_chain_report(rep))
    return 0 if rep.holds else 1


def _cmd_search(args: argparse.Namespace) -> int:
    if args.resume is not None:
        prefixes = read_checkpoint(args.resume, (args.k, args.n, args.N))
        res = resume_search(args.k, args.n, args.N, prefixes, budget=args.budget)
    else:
        res = ramsey_check(args.k, args.n, args.N, budget=args.budget)
    if args.json_output:
        _emit(_json_line(res))
    else:
        out = serialize_search_result(res)
        if res.counterexample is not None:
            out += serialize_coloring(res.counterexample)
        _emit(out)
    if res.verdict is SearchVerdict.INDETERMINATE:
        if args.checkpoint is not None:
            write_checkpoint(args.checkpoint, res)
        return 2
    return 0 if res.verdict is SearchVerdict.ALL_CONTAIN else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    if args.parity is None:
        parity = Parity.ODD if args.n % 2 == 1 else Parity.EVEN
    else:
        parity = Parity.ODD if args.parity == "odd" else Parity.EVEN
    w = pk_witness_search(col, args.n, parity)
    if w is None:
        _emit(
            _json_line({"witness": None}) if args.json_output
            else "witness none\n"
        )
        return 1
    _emit(_json_line(w) if args.json_output else serialize_witness(w))
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
    try:
        args = _run_parser().parse_args(argv)
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 1:
            raise _UsageError(f"--budget must be >= 1, got {budget}")
        return _HANDLERS[args.subcommand](args)
    except _Exit as exc:
        return exc.args[0]
    except (_UsageError, CycleRamseyError, OSError) as exc:
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
