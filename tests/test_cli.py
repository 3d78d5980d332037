"""Command-line interface: exit codes, file round-trips, JSON mode."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cycle_ramsey import bondy_erdos_coloring, cli, decompose, engine, search
from cycle_ramsey.formats import parse_coloring, serialize_coloring


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_be25(tmp_path):
    path = tmp_path / "be25.txt"
    path.write_text(serialize_coloring(bondy_erdos_coloring(2, 5)))
    return str(path)


def write_mono_k6(tmp_path):
    lines = ["coloring 6 1"]
    lines += [f"e {u} {v} 1" for u in range(6) for v in range(u + 1, 6)]
    path = tmp_path / "k6.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --------------------------------------------------------------------------
# exit code 3: usage and input problems


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 3
    assert "error:" in err


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "construct", "--k", "2")
    assert code == 3


def test_decimal_eps_rejected(capsys):
    code, _, err = run(capsys, "ineq", "--k", "4", "--eps", "0.5", "--n", "5")
    assert code == 3
    assert "decimals" in err


def test_color_header_over_the_cap_exits_three(capsys, tmp_path):
    path = tmp_path / "palette.txt"
    path.write_text("coloring 4 1000000\ne 0 1 1\n")
    for command in ("verify", "decompose"):
        code, out, err = run(capsys, command, "--n", "5", "--in", str(path))
        assert (code, out) == (3, "")
        assert "capped at 16" in err


def test_domain_error_maps_to_three(capsys):
    # k = 1 is invalid for the construction
    code, _, err = run(capsys, "construct", "--k", "1", "--n", "5")
    assert code == 3


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "verify", "--n", "5", "--in", "/nonexistent")
    assert code == 3


def test_malformed_coloring_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("coloring 3\n")
    code, _, err = run(capsys, "verify", "--n", "5", "--in", str(path))
    assert code == 3


@pytest.mark.parametrize(
    "argv,text",
    [
        (("verify", "--n", "5"), "coloring 513 2\n"),
        (("peel", "--target", "3"), "graph 513\n"),
    ],
    ids=["coloring", "graph"],
)
def test_header_over_the_size_cap_exits_three(capsys, tmp_path, argv, text):
    # refused at the header; one vertex over the cap keeps a missing cap
    # a quick failure here, where 10^8 vertices would run out of memory
    path = tmp_path / "in.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert code == 3
    assert out == "" and "capped at 512" in err


@pytest.mark.parametrize("flag,value", [("--budget", "-5")])
def test_search_rejects_non_positive_counts(capsys, flag, value):
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "4", flag, value
    )
    assert code == 3
    assert out == "" and "must be >= 1" in err


def test_search_has_no_threads_option(capsys):
    # the search runs in one process
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "4", "--threads", "2"
    )
    assert code == 3
    assert out == "" and "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize(
    "argv", [("--help",), ("verify", "--help")], ids=["top", "subcommand"]
)
def test_help_returns_zero_instead_of_exiting(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: cycle-ramsey") and err == ""


def test_checkpoint_prefix_longer_than_edge_order(capsys, tmp_path):
    ck = tmp_path / "ck.txt"
    # K_4 has 6 edges
    ck.write_text("checkpoint 2 5 4 colex\nprefix 8 1 2 1 2 1 2 1 2\nend 1\n")
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "4", "--resume", str(ck)
    )
    assert code == 3
    assert out == "" and "exceeds the 6 edges" in err


def test_non_ascii_checkpoint_exits_three(capsys, tmp_path):
    ck = tmp_path / "ck.txt"
    ck.write_bytes(b"checkpoint 2 5 8 colex\nprefix 1 \xff\nend 1\n")
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "8", "--resume", str(ck)
    )
    assert code == 3
    assert out == "" and "line 2: non-ASCII byte 0xff" in err


def test_non_ascii_input_file_exits_three(capsys, tmp_path):
    path = tmp_path / "col.txt"
    path.write_bytes(b"coloring 3 1\ne 0 1 1\ne 0 2 \xe9\ne 1 2 1\n")
    code, out, err = run(capsys, "verify", "--n", "3", "--in", str(path))
    assert code == 3
    assert out == "" and "line 3: non-ASCII byte 0xe9" in err


def test_full_width_digit_on_stdin_exits_three(capsys, monkeypatch):
    # int() takes a full-width 1 as colour 1; the reader must refuse it
    text = "coloring 3 1\ne 0 1 1\ne 0 2 \uff11\ne 1 2 1\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 3
    assert out == "" and "line 3: non-ASCII byte 0xef" in err


def test_non_ascii_on_text_stdin_exits_three(capsys, monkeypatch):
    # an in-process caller's StringIO has no byte buffer; its characters
    # are checked as the UTF-8 bytes a real stdin would carry
    text = "coloring 3 1\ne 0 1 1\ne 0 2 \uff11\ne 1 2 1\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "verify", "--n", "3")
    assert code == 3
    assert out == "" and "line 3: non-ASCII byte 0xef" in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (("peel", "--target", "3"), "graph 1_2\n"),
        (("verify", "--n", "3"), "coloring 3 1\ne 0 1 +1\ne 0 2 1\ne 1 2 1\n"),
    ],
    ids=["separator-in-order", "signed-color"],
)
def test_non_plain_integer_in_file_exits_three(capsys, tmp_path, argv, text):
    # int() would read these as 12 vertices and colour 1
    path = tmp_path / "in.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert code == 3
    assert out == "" and "bad integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--k", "2", "--n", "5", "--N", "1_0"),
        ("search", "--k", "\uff12", "--n", "5", "--N", "6"),
        ("ineq", "--k", "4", "--eps", "\u0661/2", "--n", "5"),
    ],
    ids=["separator-in-N", "full-width-k", "arabic-indic-eps"],
)
def test_non_plain_integer_flag_exits_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "bad " in err


# --------------------------------------------------------------------------
# exit code 4: internal errors


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("tuple index out of range")

    monkeypatch.setattr(cli, "ramsey_check", broken)
    code, out, err = run(capsys, "search", "--k", "2", "--n", "3", "--N", "5")
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert "internal error: IndexError('tuple index out of range')" in err


# A self-check that fails is a bug, never a verdict or a usage error:
# each raises AssertionError, which exits 4 with nothing on stdout.


def assert_internal(code, out, err, message):
    assert code == 4
    assert out == ""
    assert f"internal error: AssertionError('{message}" in err


def test_failed_counterexample_reverification_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(search, "verify_mono_cycle_free", lambda col, n: False)
    code, out, err = run(capsys, "search", "--k", "2", "--n", "3", "--N", "5")
    assert_internal(code, out, err, "counterexample failed")


def test_failed_decomposition_audit_exits_four(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(
        decompose, "check_decomposition", lambda G, n, dec: SimpleNamespace(all_ok=False)
    )
    path = write_be25(tmp_path)
    code, out, err = run(capsys, "decompose", "--n", "5", "--in", path)
    assert_internal(code, out, err, "decomposition audit failed")


def test_missing_erdos_gallai_cycle_exits_four(capsys, monkeypatch, tmp_path):
    # K_13 in one color: its 78 edges meet the threshold for a C_7, so
    # the engine may not fall back to a report when the cycle is missing
    lines = ["coloring 13 1"]
    lines += [f"e {u} {v} 1" for u in range(13) for v in range(u + 1, 13)]
    path = tmp_path / "k13.txt"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(engine, "_mask_cycle", lambda *_: None)
    code, out, err = run(capsys, "engine", "--n", "6", "--eps", "1", "--in", str(path))
    assert_internal(code, out, err, "color 1 meets the threshold but has no C_>=7")


# --------------------------------------------------------------------------
# construct / verify round trip


def test_construct_emits_canonical_coloring(capsys, tmp_path):
    out = tmp_path / "col.txt"
    code, _, _ = run(
        capsys, "construct", "--k", "2", "--n", "5", "--out", str(out)
    )
    assert code == 0
    col = parse_coloring(out.read_text())
    assert col == bondy_erdos_coloring(2, 5)


def test_construct_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "--k", "2", "--n", "5")
    assert code == 0
    assert out.startswith("coloring 8 2\n")
    assert len(out.splitlines()) == 29  # header + 28 edges


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_constructed_coloring_verifies_or_is_refused(capsys, tmp_path, k, n):
    # for even n the doubling coloring's bipartite classes hold a C_n,
    # so exit 0 ("definite positive result") would be a false claim
    path = tmp_path / "col.txt"
    code, out, err = run(
        capsys, "construct", "--k", str(k), "--n", str(n), "--out", str(path)
    )
    if n % 2 == 0:
        assert (code, out) == (3, "") and "is even" in err
        assert not path.exists()
        return
    assert code == 0
    code, out, _ = run(capsys, "verify", "--n", str(n), "--in", str(path))
    assert code == 0 and out.endswith("mono-cycle-free true\n")


def test_verify_free_coloring_exits_zero(capsys, tmp_path):
    path = write_be25(tmp_path)
    code, out, _ = run(capsys, "verify", "--n", "5", "--in", path)
    assert code == 0
    assert "structural-certificate n 5 colors 2" in out
    assert "mono-cycle-free true" in out


def test_verify_finds_witness_exits_one(capsys, tmp_path):
    path = write_mono_k6(tmp_path)
    code, out, _ = run(capsys, "verify", "--n", "5", "--in", path)
    assert code == 1
    assert "witness kind mono_cycle color 1" in out


# --------------------------------------------------------------------------
# decompose / peel


def test_decompose_reports_per_color(capsys, tmp_path):
    path = write_be25(tmp_path)
    code, out, _ = run(capsys, "decompose", "--n", "5", "--in", path)
    assert code == 0
    assert "decomposition color 1" in out
    assert "decomposition color 2" in out
    assert "V1 0 1 2 3" in out  # the bipartite color-2 class


def test_peel_emits_survivor_graph(capsys, tmp_path):
    path = tmp_path / "k5.txt"
    lines = ["graph 5"] + [
        f"e {u} {v}" for u in range(5) for v in range(u + 1, 5)
    ]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "peel", "--target", "3", "--in", str(path))
    assert code == 0
    assert "peel-kept 2 3 4" in out
    assert "graph 3" in out


# --------------------------------------------------------------------------
# engine / ineq


def test_engine_odd_diagnostic_exits_one(capsys, tmp_path):
    path = write_be25(tmp_path)
    code, out, _ = run(
        capsys, "engine", "--n", "5", "--eps", "1", "--in", path
    )
    assert code == 1
    assert out.startswith("lemma4-trace\n")
    assert "verdict pigeonhole_fails" in out


def test_engine_witness_exits_zero(capsys, tmp_path):
    path = write_mono_k6(tmp_path)
    code, out, _ = run(
        capsys, "engine", "--n", "5", "--eps", "1", "--in", path
    )
    assert code == 0
    assert "witness kind nonbip_component_matching" in out


def test_engine_even_report(capsys, tmp_path):
    path = write_be25(tmp_path)
    code, out, _ = run(
        capsys, "engine", "--n", "6", "--eps", "1/12", "--in", path
    )
    assert code == 1
    assert out.startswith("even-report\n")
    assert "threshold 22 short" in out


def test_engine_even_report_on_an_empty_host(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("coloring 0 1\n"))
    code, out, err = run(capsys, "engine", "--n", "4", "--eps", "1")
    assert code == 1 and err == ""
    assert out.startswith("even-report\n")
    assert "precondition-fail host order 0 <= (1+eps)*n*k = 8" in out
    assert "threshold 1 short" in out


def test_ineq_exit_codes(capsys):
    code, out, _ = run(capsys, "ineq", "--k", "4", "--eps", "1/2", "--n", "5")
    assert code == 0
    assert "holds true" in out
    # k < 4 is a parameter error, not a failed chain
    code, _, err = run(capsys, "ineq", "--k", "3", "--eps", "1/2", "--n", "5")
    assert code == 3
    # so is a k over the colour cap; at k = 10000, δ = ε/2^(2k+4) has
    # too many digits to print
    code, _, err = run(capsys, "ineq", "--k", "10000", "--eps", "1/2", "--n", "5")
    assert code == 3 and "color count 10000 > 16" in err


# --------------------------------------------------------------------------
# search


def test_search_color_count_over_the_cap_exits_three(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, "search", "--k", "16", "--n", "3", "--N", "3")
    assert code == 1 and "verdict COUNTEREXAMPLE" in out

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    # refused before any node is counted, with or without a checkpoint
    monkeypatch.setattr(search, "_aggregate", no_search)
    ck = tmp_path / "ck.txt"
    ck.write_text("checkpoint 17 5 6 colex\nprefix 1 1\nend 1\n")
    for extra in ((), ("--resume", str(ck))):
        code, out, err = run(
            capsys, "search", "--k", "17", "--n", "5", "--N", "6", *extra
        )
        assert (code, out) == (3, "")
        assert "color count 17 > 16" in err


def test_search_refuses_an_unwritable_checkpoint_before_searching(
    capsys, monkeypatch, tmp_path
):
    # a path the frontier could not be written to is refused up front,
    # and a path the finished search never needed is left absent
    unused = tmp_path / "unused.txt"
    code, out, _ = run(capsys, "search", "--k", "2", "--n", "3", "--N", "6",
                       "--checkpoint", str(unused))
    assert code == 0 and "verdict ALL_CONTAIN" in out

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "_aggregate", no_search)
    for path in (tmp_path / "missing" / "ck.txt", tmp_path):
        code, out, err = run(
            capsys, "search", "--k", "2", "--n", "5", "--N", "9",
            "--budget", "10", "--checkpoint", str(path),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_search_all_contain_exits_zero(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--n", "3", "--N", "6")
    assert code == 0
    assert "verdict ALL_CONTAIN" in out


def test_search_counterexample_exits_one_and_prints_coloring(capsys):
    code, out, _ = run(capsys, "search", "--k", "2", "--n", "3", "--N", "5")
    assert code == 1
    assert "verdict COUNTEREXAMPLE" in out
    tail = out[out.index("coloring") :]
    col = parse_coloring(tail)
    assert col.base.vertex_count == 5


def test_search_budget_checkpoint_resume(capsys, tmp_path):
    ck = tmp_path / "ck.txt"
    code, out, _ = run(
        capsys,
        "search", "--k", "2", "--n", "5", "--N", "8",
        "--budget", "50", "--checkpoint", str(ck),
    )
    assert code == 2
    assert "verdict INDETERMINATE" in out
    assert ck.exists() and ck.read_text().startswith("checkpoint 2 5 8 colex\nprefix ")

    code, out, _ = run(
        capsys,
        "search", "--k", "2", "--n", "5", "--N", "8", "--resume", str(ck),
    )
    assert code == 1
    assert "verdict COUNTEREXAMPLE" in out


def test_resume_of_header_only_checkpoint_is_no_proof(capsys, tmp_path):
    # (2, 5, 8) has a counterexample; a frontier that lost its prefix
    # lines must not resume into ALL_CONTAIN.
    ck = tmp_path / "ck.txt"
    ck.write_text("checkpoint 2 5 8 colex\n")
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "8", "--resume", str(ck)
    )
    assert code == 3
    assert out == "" and "truncated" in err


@pytest.mark.parametrize(
    "k,n,N", [("2", "5", "9"), ("2", "4", "8"), ("3", "5", "8")]
)
def test_resume_rejects_checkpoint_of_another_instance(capsys, tmp_path, k, n, N):
    ck = tmp_path / "ck.txt"
    run(
        capsys,
        "search", "--k", "2", "--n", "5", "--N", "8",
        "--budget", "50", "--checkpoint", str(ck),
    )
    code, out, err = run(
        capsys, "search", "--k", k, "--n", n, "--N", N, "--resume", str(ck)
    )
    assert code == 3
    assert out == "" and "checkpoint is for k=2 n=5 N=8, not" in err


def test_resume_refuses_lex_checkpoint(capsys, tmp_path):
    # an older build wrote lex checkpoints; their prefixes index other edges
    ck = tmp_path / "ck.txt"
    ck.write_text("checkpoint 2 5 8 lex\nprefix 1 1\nend 1\n")
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "8", "--resume", str(ck)
    )
    assert code == 3
    assert out == "" and "edge order 'lex'" in err


def test_search_json_single_object(capsys):
    code, out, _ = run(
        capsys, "search", "--k", "2", "--n", "3", "--N", "5", "--json"
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["verdict"] == "COUNTEREXAMPLE"
    assert obj["counterexample"]["vertex_count"] == 5


# --------------------------------------------------------------------------
# stdin and repeated in-process calls


@pytest.mark.parametrize(
    "argv,text",
    [
        (("verify", "--n", "3"), "coloring 3 1\ne 0 1 1\ne 0 2 1\ne 1 2 1\n"),
        (("verify", "--n", "5"), serialize_coloring(bondy_erdos_coloring(2, 5))),
        (("decompose", "--n", "5"), serialize_coloring(bondy_erdos_coloring(2, 5))),
        (("peel", "--target", "2"), "graph 4\ne 0 1\ne 1 2\ne 0 2\ne 2 3\n"),
    ],
    ids=["mono-triangle", "verify-be25", "decompose-be25", "peel"],
)
def test_text_stdin_reads_like_an_input_file(capsys, monkeypatch, tmp_path, argv, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    want = run(capsys, *argv, "--in", str(path))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, *argv) == want
    assert want[0] in (0, 1) and want[2] == ""


def test_reused_parser_carries_no_state_between_calls(capsys, tmp_path):
    ck = str(tmp_path / "ck.txt")
    search_9 = ("search", "--k", "2", "--n", "5", "--N", "9")
    code, out, _ = run(capsys, *search_9, "--budget", "5", "--checkpoint", ck)
    assert code == 2 and "verdict INDETERMINATE" in out
    # neither --budget nor --checkpoint survives into the next call
    (tmp_path / "ck.txt").unlink()
    code, out, _ = run(capsys, *search_9)
    assert code == 0 and "verdict ALL_CONTAIN" in out
    assert not (tmp_path / "ck.txt").exists()

    ineq = ("ineq", "--k", "4", "--eps", "1/2", "--n", "5")
    code, out, _ = run(capsys, *ineq, "--json")
    assert json.loads(out)["k"] == 4
    code, plain, _ = run(capsys, *ineq)
    assert plain.startswith("chain-report\n")

    for argv, want in [(search_9[:-2], 3), (search_9, 0), (search_9[:-2], 3)]:
        code, out, err = run(capsys, *argv)
        assert code == want
        assert ("the following arguments are required: --N" in err) == (want == 3)


def test_build_parser_returns_a_new_parser_each_call(capsys):
    assert cli.build_parser() is not cli.build_parser()
    assert cli._run_parser() is cli._run_parser()  # run's own, built once
    copy = cli.build_parser()
    copy.add_argument("--extra")
    ineq = ("ineq", "--k", "4", "--eps", "1/2", "--n", "5")
    assert copy.parse_args(["--extra", "x", *ineq]).extra == "x"
    code, out, err = run(capsys, "--extra", "x", *ineq)
    assert (code, out) == (3, "")
    assert "invalid choice: 'x'" in err  # --extra is not run's flag


def _child_env() -> dict[str, str]:
    """This environment with the repository's `src` first on PYTHONPATH,
    so a child interpreter imports the package under test."""
    env = dict(os.environ)
    paths = [str(Path(__file__).resolve().parents[1] / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first run, so importing stays cheap
    code = (
        "import cycle_ramsey.cli as cli; "
        "assert cli._run_parser.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=_child_env())


def test_importing_the_cli_loads_no_multiprocessing():
    # the search runs in one process, so start-up skips that import
    code = (
        "import sys, cycle_ramsey, cycle_ramsey.cli; "
        "assert 'multiprocessing' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=_child_env())


# --------------------------------------------------------------------------
# witness


def test_witness_found_and_not_found(capsys, tmp_path):
    k6 = write_mono_k6(tmp_path)
    code, out, _ = run(capsys, "witness", "--n", "5", "--in", k6)
    assert code == 0
    assert "witness kind nonbip_component_matching" in out

    be = write_be25(tmp_path)
    code, out, _ = run(capsys, "witness", "--n", "5", "--in", be)
    assert code == 1
    assert out == "witness none\n"


@pytest.mark.parametrize("n", ["2", "1"])
def test_witness_refuses_cycles_shorter_than_three(capsys, tmp_path, n):
    k6 = write_mono_k6(tmp_path)
    code, out, err = run(capsys, "witness", "--n", n, "--in", k6)
    assert code == 3 and out == ""
    assert f"cycle length {n} < 3" in err


def test_witness_parity_override(capsys, tmp_path):
    be = write_be25(tmp_path)
    # EVEN mode sees the bipartite class's matching
    code, out, _ = run(
        capsys, "witness", "--n", "5", "--parity", "even", "--in", be
    )
    assert code == 0
    assert "witness kind component_matching color 2" in out


def test_witness_json_none(capsys, tmp_path):
    be = write_be25(tmp_path)
    code, out, _ = run(
        capsys, "witness", "--n", "5", "--in", be, "--json"
    )
    assert code == 1
    assert json.loads(out.strip()) == {"witness": None}


# --------------------------------------------------------------------------
# JSON mode everywhere emits one object per line


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--k", "2", "--n", "5", "--json"),
        ("ineq", "--k", "4", "--eps", "1/2", "--n", "5", "--json"),
    ],
)
def test_json_outputs_parse(capsys, argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        json.loads(line)


def test_json_verify_emits_object_per_line(capsys, tmp_path):
    path = write_be25(tmp_path)
    code, out, _ = run(
        capsys, "verify", "--n", "5", "--in", path, "--json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # structural certificate, then the free flag
    assert json.loads(lines[1]) == {"free": True}
