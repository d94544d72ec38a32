"""The speed of the host, sampled while the benchmark runs.

The benchmark shares a few cores with other tenants. Their load makes the same
code run up to 1.6x slower, in phases of seconds to minutes, so wall times of
one commit taken minutes apart differ by more than the bounds in
BENCHMARK.json. A gauge times a fixed reference task between the calls of a
run. No change to the package can make that task faster or slower. A call is
then reported at the reference speed: its wall time times `ref_s` over the
median of the samples taken within WINDOW_S of the call. On a host that runs
the reference task in `ref_s`, that is the wall time.

Two reference tasks, one for each kind of workload:

- `scan_gauge()`, for calls made in the benchmark's process: one pass over
  frozen dataclass rows, reading attributes and comparing strings. This is
  the kind of interpreter work, and the size of working set, that the
  package's calls do.
- `start_gauge()`, for calls that start a process: one bare interpreter
  start, `python -I -c pass`.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

WINDOW_S = 2.0     # a call is scaled by the samples within this many seconds of it


class Gauge:
    def __init__(self, task, ref_s: float, every_s: float):
        self.task, self.ref_s, self.every_s = task, ref_s, every_s
        self.mids: list[float] = []
        self.secs: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = perf_counter()
            self.task()
            t1 = perf_counter()
            self.mids.append((t0 + t1) / 2)
            self.secs.append(t1 - t0)

    def tick(self, n: int = 1) -> None:
        """Sample n times if `every_s` has passed since the last sample."""
        if not self.mids or perf_counter() - self.mids[-1] >= self.every_s:
            self.sample(n)

    def at_ref(self, start: float, seconds: float) -> float:
        """`seconds` of wall time from `start`, at the reference speed."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, start + seconds + WINDOW_S)
        return seconds * self.ref_s / statistics.median(self.secs[lo:hi])

    def speed(self) -> float:
        """The host's speed over the run; 1 is the reference speed."""
        return self.ref_s / statistics.median(self.secs)


@dataclass(frozen=True)
class _Concept:
    kind: str
    name: str


@dataclass(frozen=True)
class _Row:
    word: str
    category: str
    concept: _Concept


def scan_gauge() -> Gauge:
    rows = frozenset(
        _Row(f"w{i:05d}", "content" if i % 7 else "form",
             _Concept("entity" if i % 3 else "action", f"c{i}"))
        for i in range(5000))

    def scan() -> None:
        for _ in range(12):
            words = {}
            for row in rows:
                if row.concept.kind == "entity" and row.category == "content":
                    words[row.word] = True

    return Gauge(scan, ref_s=0.012, every_s=0.1)


def start_gauge(cwd) -> Gauge:
    argv = [sys.executable, "-I", "-c", "pass"]
    return Gauge(lambda: subprocess.run(argv, cwd=cwd, check=True), ref_s=0.050, every_s=0.5)
