"""Golden CLI transcript: every subcommand's stdout and exit code, in
text and in `--json`, pinned byte for byte by `data/cli_golden.txt`.

Each block of the data file is a `$ <argv>` line, an `exit <code>` line
and the expected stdout.  An argv word naming an entry of `INPUTS` is
replaced by the path of that input, written to a temporary directory.
Search JSON carries a wall time, so `"wall_time"` values are compared
as 0.  Regenerate the file after a deliberate output change with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from cycle_ramsey import (
    bondy_erdos_coloring,
    cli,
    complete_graph,
    make_coloring,
)
from cycle_ramsey.formats import serialize_coloring, serialize_graph

from strategies import constant_coloring

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"


def _k9_with_mono_k6() -> str:
    # colour 1 is a K_6 on 3..8, so the C_5 witness lies above vertex 0
    K9 = complete_graph(9)
    color = {e: 1 if e[0] >= 3 else 2 for e in K9.sorted_edges}
    return serialize_coloring(make_coloring(K9, 2, color))


INPUTS = {
    "be25.txt": lambda: serialize_coloring(bondy_erdos_coloring(2, 5)),
    "be36.txt": lambda: serialize_coloring(bondy_erdos_coloring(3, 6)),
    "k6-mono.txt": lambda: serialize_coloring(constant_coloring(complete_graph(6))),
    "k9-mono-k6.txt": _k9_with_mono_k6,
    "k5.txt": lambda: serialize_graph(complete_graph(5)),
}

_TEXT = [
    "construct --k 2 --n 5",
    "construct --k 3 --n 5",
    "verify --n 5 --in be25.txt",
    "verify --n 6 --in be36.txt",
    "verify --n 5 --in k9-mono-k6.txt",
    "engine --n 5 --eps 1 --in be25.txt",
    "engine --n 6 --eps 1/12 --in be25.txt",
    "engine --n 5 --eps 1 --in k6-mono.txt",
    "search --k 2 --n 3 --N 6",
    "search --k 2 --n 3 --N 5",
    "search --k 2 --n 5 --N 8 --budget 50",
    "witness --n 5 --in k6-mono.txt",
    "witness --n 5 --in be25.txt",
    "witness --n 5 --parity even --in be25.txt",
    "decompose --n 5 --in be25.txt",
    "peel --target 3 --in k5.txt",
    "ineq --k 4 --eps 1/2 --n 5",
]
CASES = [argv for text in _TEXT for argv in (text, text + " --json")]

_WALL_TIME = re.compile(r'"wall_time": [-+0-9.e]+')


def _run(command: str, inputs: dict[str, str]) -> tuple[int, str]:
    argv = [inputs.get(word, word) for word in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, _WALL_TIME.sub('"wall_time": 0', out.getvalue())


def _write_inputs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, make in INPUTS.items():
        path = directory / name
        path.write_text(make(), encoding="ascii")
        paths[name] = str(path)
    return paths


def _blocks(text: str) -> dict[str, tuple[int, str]]:
    blocks = {}
    for block in text.split("$ ")[1:]:
        command, status, out = block.split("\n", 2)
        blocks[command] = (int(status.removeprefix("exit ")), out)
    return blocks


@pytest.fixture(scope="module")
def golden() -> dict[str, tuple[int, str]]:
    return _blocks(GOLDEN.read_text(encoding="ascii"))


def test_golden_file_lists_every_case(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("command", CASES)
def test_cli_matches_golden_transcript(golden, tmp_path, command):
    assert _run(command, _write_inputs(tmp_path)) == golden[command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        inputs = _write_inputs(Path(tmp))
        with GOLDEN.open("w", encoding="ascii") as fh:
            for command in CASES:
                code, out = _run(command, inputs)
                fh.write(f"$ {command}\nexit {code}\n{out}")
