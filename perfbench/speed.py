"""Host-speed reference for the end-to-end timings.

The benchmark runs on a shared host whose speed changes by up to about 1.7x,
in phases that last from under a second to over a minute. The same cell, run
again in the same process, takes anywhere from 1.6 s to 2.8 s. So every
timed stretch of work is scaled by how fast the host ran at that moment.

``SpeedSampler`` measures that speed from inside the benchmark process, on
the core the work runs on: a wall-clock interval timer interrupts the work
every ``PERIOD_S`` and the signal handler times one run of a fixed
pure-Python kernel that does not depend on circlematch. ``scale`` then
expresses each timed segment in reference seconds: seconds on a host where
one kernel run takes ``REF_S``, about the typical speed of the shared 2-core
VM that README.md's figures were recorded on. On a host of steady speed a
reference second is a fixed multiple of a wall second, so a change to the
program moves the scaled times as it moves wall times.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02  # interval between samples, in wall time
REF_S = 0.0005  # one kernel run at the nominal speed
CHUNK_S = 1.0  # shortest stretch of work scaled by one speed estimate

_TABLE = {i: (i * 7919) % 1009 for i in range(1009)}


def reference_kernel() -> int:
    """Fixed dict-lookup loop; allocates no containers, so never starts the
    garbage collector inside a sample."""
    acc = 0
    table = _TABLE
    for i in range(3000):
        acc = table[(acc + i) % 1009]
    return acc


class SpeedSampler:
    """Times ``reference_kernel`` every ``PERIOD_S`` while active.

    The handler runs between bytecodes, so during a long C call the next
    sample waits until the call returns. ``spent`` is the wall time the
    samples took, which the caller subtracts from the work it timed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def sample(self, *signal_args) -> None:
        """Time one kernel run; also the signal handler."""
        start = perf_counter()
        reference_kernel()
        duration = perf_counter() - start
        self.samples.append((start, duration))
        self.spent += duration

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(segments: list[tuple[float, float, float]],
          samples: list[tuple[float, float]]) -> list[float]:
    """Reference seconds of each timed segment ``(start, end, seconds)``.

    Consecutive segments are grouped into chunks of at least ``CHUNK_S`` of
    wall time, and each chunk is scaled by the median sample taken between
    its first start and its last end. A chunk without a sample takes the
    median of all samples.
    """
    overall = statistics.median(d for _, d in samples)
    scaled = []
    i = 0
    while i < len(segments):
        j = i + 1
        while j < len(segments) and segments[j - 1][1] - segments[i][0] < CHUNK_S:
            j += 1
        lo, hi = segments[i][0], segments[j - 1][1]
        inside = [d for t, d in samples if lo <= t <= hi]
        factor = REF_S / (statistics.median(inside) if inside else overall)
        scaled += [seconds * factor for _, _, seconds in segments[i:j]]
        i = j
    return scaled
