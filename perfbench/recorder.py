"""Checked ops and in-memory spans for the cycle-ramsey benchmark.

An op is one call into the package whose result the benchmark checks.
A span is (id, parent, op, name, start, end) around one call the
benchmark makes into a package module; the span name's first dotted
part names the layer.  Spans are kept in memory only while tracing is
on, and are written out when the run ends; with tracing off `call`
goes straight through.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import traceback
from collections import defaultdict

LAYERS = (
    "graphs",
    "matching",
    "cycles",
    "decompose",
    "constructions",
    "engine",
    "search",
    "formats",
    "cli",
)

_MAX_REPORTED_FAILURES = 20


class CheckFailed(Exception):
    """A package call returned a result the benchmark rejects."""


class Recorder:
    def __init__(self) -> None:
        self.tracing = False
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._op = 0
        self.attempted = 0
        self.failed = 0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self._op
        self.spans.append((sid, parent, op, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, op, name, start, end)

    @contextlib.contextmanager
    def op(self, label: str):
        """One checked op: any exception or failed `require` inside the
        block counts it as failed, is reported on stderr, and is
        swallowed so the run goes on."""
        self.attempted += 1
        self._op += 1
        try:
            yield
        except CheckFailed as exc:
            self._fail(label, str(exc))
        except Exception:  # a crash inside the package is a failed op
            self._fail(label, traceback.format_exc())

    @staticmethod
    def require(ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def _fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= _MAX_REPORTED_FAILURES:
            print(f"FAILED op {label}: {detail}", file=sys.stderr)

    def write_spans(self, path, pass_of_span) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op,
                            "pass": pass_of_span(sid),
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def summarize(spans, unit_s: dict[str, float]) -> dict:
    """Per-name call counts and times, split by the root span each call
    sits under, plus each layer's self time (span time minus the part
    of it covered by child spans).  A span's time is its seconds
    divided by `unit_s[root]`, the unit in force while its root ran."""
    root_of: dict[int, str] = {}
    duration: dict[int, float] = {}
    child_time = defaultdict(float)
    for sid, parent, _, name, start, end in spans:
        root = name if parent < 0 else root_of[parent]
        root_of[sid] = root
        duration[sid] = (end - start) / unit_s[root]
        if parent >= 0:
            child_time[parent] += duration[sid]
    calls: dict[tuple[str, str], int] = defaultdict(int)
    time_in: dict[tuple[str, str], float] = defaultdict(float)
    self_time = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for sid, _, _, name, _, _ in spans:
        calls[root_of[sid], name] += 1
        time_in[root_of[sid], name] += duration[sid]
        self_time[name.split(".", 1)[0]] += duration[sid] - child_time[sid]
    return {"calls": calls, "time": time_in, "self": self_time}
