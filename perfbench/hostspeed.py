"""How fast the host runs at the moment: a fixed reference computation.

The benchmark shares a host whose speed drifts by a third and more, in
states that last from seconds to minutes.  The process's CPU time drifts
with its wall time, so the time is not stolen from the process: the same
instructions run slower.  Runs of 42 s cannot average such states out:
over ten runs of the same code the measured wall time spread by up to a
quarter of its median.

So every pass times a fixed reference computation right after its set-up
and then between its operations, about every :data:`INTERVAL_S` seconds,
and scales each time by ``REFERENCE_S / r``.  For an operation, ``r`` is
the median of the :data:`WINDOW` samples before it and the :data:`WINDOW`
after it; for the set-up, the median of the samples right after it.
:data:`REFERENCE_S` is a round figure for the reference's time on the
2-vCPU VM the benchmark was defined on, so scaled times read as seconds
on that VM.  The reference is the benchmark's own code, so a change to
the program moves the scaled times as much as the measured ones.  The run
reports the measured times beside the scaled ones.

The reference does what the program's hot paths do: interpreter
arithmetic, method calls on objects picked at random from a list larger
than the CPU's L2 cache, and numpy sorting and counting over an array of
ranks.  It creates no container objects and runs with the collector off,
so the program's heap adds no collector work to its time.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_right

import numpy as np

#: A round figure for a sample's time (the fastest of :data:`REPEATS`
#: calls) on the VM the benchmark was defined on: 4-6 ms as its speed drifts.
REFERENCE_S = 0.0050

#: Seconds between two samples during a pass, at least.
INTERVAL_S = 1.0

#: Calls per sample; the fastest is kept, which drops interrupts.
REPEATS = 3

#: Samples taken right after set-up.
FIRST_SAMPLES = 3

#: Samples on each side of an operation that give its scale.
WINDOW = 2


class _Item:
    __slots__ = ("rank", "node")

    def __init__(self, rank: int, node: int) -> None:
        self.rank = rank
        self.node = node

    def cost(self, size: int) -> int:
        return self.rank * size + self.node


_RNG = np.random.default_rng(0)
_ITEMS = [_Item(rank, rank % 16) for rank in range(32768)]
_PICKS = [int(index) for index in _RNG.integers(0, len(_ITEMS), 1500)]
_NODES = _RNG.integers(0, 4096, 16384)
_TABLE = [0] * 1024


def reference() -> int:
    """The fixed reference computation."""
    table = _TABLE
    total = 0
    for index in range(8000):
        total += (index * index) % 7
        table[index & 1023] = total
    items = _ITEMS
    for index in _PICKS:
        total += items[index].cost(3)
    order = np.argsort(_NODES, kind="stable")
    counts = np.bincount(_NODES)
    return total + int(order[0]) + int(counts[0]) + int(np.unique(_NODES).size)


def sample_s() -> float:
    """One sample: the fastest of :data:`REPEATS` timed reference calls."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = clock()
            reference()
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class HostMeter:
    """The reference samples of one pass, and the scales they give.

    ``positions[k]`` is the number of operations done when sample ``k``
    was taken.  ``spent_s`` is the time sampling took after the first
    samples, so the caller can take it out of the pass's wall time.
    """

    def __init__(self) -> None:
        reference()  # warm-up, untimed
        self.samples_s = [sample_s() for _ in range(FIRST_SAMPLES)]
        self.positions = [0] * FIRST_SAMPLES
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def sample(self, done: int) -> None:
        """Take a sample now, after ``done`` operations."""
        start = time.perf_counter()
        self.samples_s.append(sample_s())
        self.positions.append(done)
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def maybe_sample(self, done: int) -> None:
        """Take a sample if :data:`INTERVAL_S` has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample(done)

    def setup_factor(self) -> float:
        """The scale for the set-up time: the samples right after it."""
        return REFERENCE_S / statistics.median(self.samples_s[:FIRST_SAMPLES])

    def factors(self, count: int) -> list[float]:
        """The scale for each of the first ``count`` operations.

        An operation's scale comes from the median of the :data:`WINDOW`
        samples before it and the :data:`WINDOW` after it, a few seconds
        of the host's speed around the operation.
        """
        scales = []
        for index in range(count):
            after = bisect_right(self.positions, index)
            window = self.samples_s[max(0, after - WINDOW) : after + WINDOW]
            scales.append(REFERENCE_S / statistics.median(window))
        return scales
