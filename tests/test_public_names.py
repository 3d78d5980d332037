"""Every exported name has a caller outside the tests.

A name in `cycle_ramsey.__all__` that only tests call is surface kept
for nothing.  The callers are the package's own modules (its
`__init__.py` aside, which only re-exports), the scripts and the
benchmark harness, read with `ast`: a use is a `Name`, an `Attribute` or
an imported alias.  A definition or a docstring is not a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

import cycle_ramsey

ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set[str]:
    package = ROOT / "src" / "cycle_ramsey"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used: set[str] = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_exported_name_has_a_non_test_caller():
    unused = sorted(set(cycle_ramsey.__all__) - _used_names())
    assert unused == []
