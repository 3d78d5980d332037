"""Command-line driver.

Exit codes: 0 definite positive result, 1 counterexample or negative
witness outcome, 2 indeterminate (budget spent), 3 usage error, 4
internal error (a bug, never a verdict).
Each subcommand computes its result and prints `formats.render` of it:
a line-format report, or with `--json` one JSON object per line.
Integer flags take plain ASCII digits (`-?[0-9]+`) and rational flags
exact `p/q` strings; anything else, decimals included, is a usage
error.  `construct` takes odd n only (exit 3 otherwise).  `search`
colors the edges in colex order, the one order its checkpoints name.

`run` may be called many times in one process: it builds its parser on
the first call and reuses it, since parsing leaves no state on it.
`build_parser()` returns a new parser on every call, so changing that
copy cannot change what `run` accepts.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .certificates import StructureWitness
from .constructions import (
    bondy_erdos_coloring,
    structural_certificate,
    verify_mono_cycle_free,
)
from .decompose import fl_decompose, min_degree_peel
from .engine import (
    Parity,
    PkParameters,
    even_engine,
    lemma4_execute,
    lemma4_inequality_check,
    pk_witness_search,
)
from .errors import CycleRamseyError, EvenCycleLength, ascii_int, ascii_text
from .formats import parse_coloring, parse_graph, parse_rational, render
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

    p = sub.add_parser("construct", help="emit the doubling lower-bound coloring (odd n)")
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


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.n % 2 == 0:
        raise EvenCycleLength(
            f"n = {args.n} is even: the doubling coloring's bipartite classes "
            f"hold a C_{args.n}, so it is no lower-bound witness"
        )
    col = bondy_erdos_coloring(args.k, args.n)
    _emit(render(col, args.json_output), args.output_path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    reports = [structural_certificate(col, args.n)] if args.n % 2 == 1 else []
    outcome = verify_mono_cycle_free(col, args.n)
    _emit("".join(render(r, args.json_output) for r in [*reports, outcome]))
    return 0 if outcome is True else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    _emit("".join(
        render(fl_decompose(color_class(col, i), args.n), args.json_output, color=i)
        for i in range(1, col.color_count + 1)
    ))
    return 0


def _cmd_peel(args: argparse.Namespace) -> int:
    G = parse_graph(_read_text(args.input_path))
    _emit(render(min_degree_peel(G, args.N), args.json_output))
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    col = parse_coloring(_read_text(args.input_path))
    if args.n % 2 == 1:
        params = PkParameters.for_lemma(col.color_count, args.n, args.eps)
        outcome = lemma4_execute(col, args.n, params)
    else:
        outcome = even_engine(col, args.n, args.eps)
    _emit(render(outcome, args.json_output))
    return 0 if isinstance(outcome, StructureWitness) else 1


def _cmd_ineq(args: argparse.Namespace) -> int:
    rep = lemma4_inequality_check(args.k, args.eps, args.n)
    _emit(render(rep, args.json_output))
    return 0 if rep.holds else 1


def _claim_checkpoint(path: str) -> None:
    """Raise OSError now if `path` cannot be written, so that a budgeted
    search never runs only to lose its frontier; a file the probe made
    is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="ascii"):
        pass
    if not existed:
        os.remove(path)


def _cmd_search(args: argparse.Namespace) -> int:
    if args.checkpoint is not None:
        _claim_checkpoint(args.checkpoint)
    if args.resume is not None:
        prefixes = read_checkpoint(args.resume, (args.k, args.n, args.N))
        res = resume_search(args.k, args.n, args.N, prefixes, budget=args.budget)
    else:
        res = ramsey_check(args.k, args.n, args.N, budget=args.budget)
    _emit(render(res, args.json_output))
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
        parity = Parity(args.parity)
    w = pk_witness_search(col, args.n, parity)
    _emit(render(w, args.json_output))
    return 1 if w is None else 0


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


if __name__ == "__main__":
    sys.exit(run())
