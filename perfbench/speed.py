"""Machine-speed gauge: a fixed reference loop timed between operations.

On a shared machine the processor's speed changes by tens of percent
as other tenants come and go, switching within a fraction of a second,
and the library slows with it.  The gauge times a short fixed
pure-Python loop every few milliseconds.  How much a piece of code
slows under contention depends on its kind, so there are two loops:
one of integer arithmetic, like the big-field digit loops, and one
that allocates, indexes and sorts small objects, like the table-backed
and campaign paths.  shapes.REFERENCE picks one per workload.

The benchmark divides its times by the gauge's factor: the loop's
median time over its last few runs, over NOMINAL_NS.  A contended
stretch slows the loop and the library alike, so the factor cancels
most of the change.  A time so divided is in reference-speed units:
what it would be on a machine where the loop takes NOMINAL_NS, which is
about what an idle 2-core Intel Xeon VM takes.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter_ns

NOMINAL_NS = 250_000
SAMPLE_EVERY_NS = 5_000_000


def arithmetic_loop(n: int = 1875) -> int:
    table = list(range(1, 257))
    seen = {}
    acc = 1
    for i in range(n):
        a = table[acc & 255]
        acc = (acc * 31 + a ^ i) & 0xFFFF
        seen[acc & 63] = i
    return acc + len(seen)


def allocating_loop(n: int = 600) -> int:
    rng = random.Random(5)
    rows = []
    index = {}
    for i in range(n):
        row = (i, rng.getrandbits(16), str(i))
        rows.append(row)
        index[row[1] & 127] = row
    rows.sort(key=lambda row: row[1])
    return len(rows) + len(index)


LOOPS = {"arithmetic": arithmetic_loop, "allocating": allocating_loop}


class SpeedGauge:
    """Rolling median of a reference loop's time."""

    def __init__(self, loop: str, window: int = 3):
        self.loop = LOOPS[loop]
        self.samples: deque[int] = deque(maxlen=window)
        self.last = 0
        for _ in range(window):
            self.sample()

    def sample(self) -> None:
        start = perf_counter_ns()
        self.loop()
        self.last = perf_counter_ns()
        self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        """Sample if SAMPLE_EVERY_NS have passed since the last sample."""
        if perf_counter_ns() - self.last >= SAMPLE_EVERY_NS:
            self.sample()

    def factor(self) -> float:
        """Current slowness relative to NOMINAL_NS (above 1: slower)."""
        return statistics.median(self.samples) / NOMINAL_NS
