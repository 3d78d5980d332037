"""A frozen reference job, timed while each section runs, to cancel machine drift.

On a shared virtual machine the same Python code runs up to twice as
slow at some moments as at others, in phases of seconds, so raw wall
times from different runs are not comparable. The package's code slows
down with the machine. While a timed section runs, `SpeedProbe`
interrupts it every `INTERVAL` seconds with a wall-clock signal and
times one short reference job in the handler. The section's *cost* is
its own time, with the handler time taken out, divided by the mean
reference-job time over the same moments. README.md gives the measured
spreads of both.

The job imitates the package's hot paths. It is a bitmask path DFS like
the search closure test, plus the tuple, frozenset and dict churn of
building graphs. It never imports the package, so a change to the
package cannot move it. Do not edit it: a new job makes every earlier
cost incomparable.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL = 0.025  # seconds between probes; the job takes ~0.6 ms, ~2.5 %

_ORDER = 11
# Circulant graph on 11 vertices with offsets 1, 2 and 4 (degree 6).
_NEIGH = [
    sum(1 << ((v + d) % _ORDER) | 1 << ((v - d) % _ORDER) for d in (1, 2, 4))
    for v in range(_ORDER)
]


def _paths(length: int) -> int:
    """Count simple paths with `length` edges from vertex 0 to vertex 1."""
    target = 1
    count = 0
    stack = [(0, 1, length)]
    while stack:
        cur, mask, rem = stack.pop()
        if rem == 1:
            count += _NEIGH[cur] >> target & 1
            continue
        cand = _NEIGH[cur] & ~mask & ~(1 << target)
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append((low.bit_length() - 1, mask | low, rem - 1))
    return count


def _churn(rounds: int) -> int:
    total = 0
    for r in range(rounds):
        edges = frozenset(
            (u, v) for u in range(_ORDER) for v in range(u + 1, _ORDER) if (u * v + r) % 3
        )
        index = {e: i for i, e in enumerate(sorted(edges))}
        total += len(index) + sum(u for u, _ in edges)
    return total


def reference_job() -> int:
    return _paths(5) + _churn(10)


class SpeedProbe:
    """Context manager that times the reference job on a SIGALRM timer
    while the block runs.  Only one may be active at a time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0  # time the probes took inside the block
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.busy_s = sum(self.samples)
        if not self.samples:  # a block shorter than INTERVAL: probe once after it
            self._tick(None, None)

    def _tick(self, signum, frame) -> None:
        # With the cyclic GC on, the job's churn would trigger collections
        # that scan the package's live objects, tying the probe to the
        # program's heap size rather than to the machine's speed.
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_job()
        self.samples.append(time.perf_counter() - t0)
        if gc_was_on:
            gc.enable()

    @property
    def job_s(self) -> float:
        """Mean time of one reference job while the block ran."""
        return statistics.fmean(self.samples)
