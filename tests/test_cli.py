"""Command-line interface: exit codes, file round-trips, JSON mode."""

from __future__ import annotations

import json

import pytest

from cycle_ramsey import bondy_erdos_coloring, cli
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


@pytest.mark.parametrize("flag,value", [("--threads", "0"), ("--budget", "-5")])
def test_search_rejects_non_positive_counts(capsys, flag, value):
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "4", flag, value
    )
    assert code == 3
    assert out == "" and "must be >= 1" in err


def test_checkpoint_prefix_longer_than_edge_order(capsys, tmp_path):
    ck = tmp_path / "ck.txt"
    ck.write_text("prefix 8 1 2 1 2 1 2 1 2\n")  # K_4 has 6 edges
    code, out, err = run(
        capsys, "search", "--k", "2", "--n", "5", "--N", "4", "--resume", str(ck)
    )
    assert code == 3
    assert out == "" and "exceeds the 6 edges" in err


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


def test_ineq_exit_codes(capsys):
    code, out, _ = run(capsys, "ineq", "--k", "4", "--eps", "1/2", "--n", "5")
    assert code == 0
    assert "holds true" in out
    # k < 4 is a parameter error, not a failed chain
    code, _, err = run(capsys, "ineq", "--k", "3", "--eps", "1/2", "--n", "5")
    assert code == 3


# --------------------------------------------------------------------------
# search


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
    assert ck.exists() and ck.read_text().startswith("prefix ")

    code, out, _ = run(
        capsys,
        "search", "--k", "2", "--n", "5", "--N", "8", "--resume", str(ck),
    )
    assert code == 1
    assert "verdict COUNTEREXAMPLE" in out


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


def test_threads_env_variable(capsys, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    code, out, _ = run(capsys, "search", "--k", "2", "--n", "3", "--N", "6")
    assert code == 0
    assert "verdict ALL_CONTAIN" in out
    monkeypatch.setenv(cli.THREADS_ENV, "not-a-number")
    code, _, _ = run(capsys, "search", "--k", "2", "--n", "3", "--N", "5")
    assert code == 1  # falls back to one thread rather than crashing


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
