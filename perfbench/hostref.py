"""Host-speed reference: a fixed kernel timed alongside the program.

The host this benchmark was built on changes speed by up to 1.7x, in
regimes that last from seconds to minutes (other tenants contend for
the physical cores), so raw CPU times of identical work do not repeat
from one run to the next.  The kernel below is a miniature
event-driven cache model -- a heap of events, slotted objects, dict
lookups and method calls, the kind of work the simulator does -- that
shares no code with the program and never changes.  Its measured time
against its nominal time is the host's current slowdown; host times
are divided by it.  ``host.probe_ms`` is this kernel's time.

Changing the kernel or ``NOMINAL_MS`` changes every host metric: do
not, except in a change that redefines the benchmark.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from typing import List, Tuple

#: The kernel's CPU time on an uncontended host: the unit "reference
#: milliseconds" are scaled to.
NOMINAL_MS = 3.0
#: Program CPU seconds between two interleaved samples.
SAMPLE_EVERY_S = 0.25


class _Line:
    __slots__ = ("tag", "stamp", "dirty")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp
        self.dirty = False


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [dict() for _ in range(sets)]
        self.ways = ways
        self.hits = 0

    def access(self, addr: int, write: bool, now: int) -> int:
        ways = self.sets[addr % len(self.sets)]
        line = ways.get(addr)
        if line is not None:
            self.hits += 1
            line.stamp = now
            line.dirty |= write
            return 1
        if len(ways) >= self.ways:
            victim = min(ways.values(), key=lambda entry: entry.stamp)
            del ways[victim.tag]
        ways[addr] = _Line(addr, now)
        return 20


def kernel() -> int:
    """One pass of the fixed reference work (about 3 ms uncontended)."""
    cache, heap = _Cache(64, 4), []
    seq = now = 0
    x = 12345
    for index in range(200):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        heapq.heappush(heap, (x & 15, seq, x >> 8, index & 1))
    for _ in range(1500):
        now, _, addr, write = heapq.heappop(heap)
        latency = cache.access(addr % 1024, bool(write), now)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        heapq.heappush(heap, (now + latency, seq, x >> 8, x & 1))
    return cache.hits


def kernel_ms(reps: int = 1) -> float:
    """Median CPU milliseconds of ``reps`` kernel passes."""
    samples = []
    for _ in range(reps):
        start = time.process_time()
        kernel()
        samples.append((time.process_time() - start) * 1000)
    return statistics.median(samples)


class HostClock:
    """The program's CPU clock, with reference samples interleaved.

    ``now()`` is process CPU time minus the time spent in reference
    samples, so the samples never count as program work.  Call
    ``tick()`` between units of work: it takes a sample once
    ``SAMPLE_EVERY_S`` of program time has passed.  ``slowdown(a, b)``
    is the host's slowdown over program interval [a, b], from the
    samples in and around it.
    """

    def __init__(self) -> None:
        self._excluded = 0.0
        self._stamps: List[float] = []      # program time of each sample
        self._values: List[float] = []      # its kernel ms
        self._due = 0.0
        self.sample()

    def now(self) -> float:
        return time.process_time() - self._excluded

    def sample(self) -> None:
        start = time.process_time()
        kernel()
        spent = time.process_time() - start
        stamp = start - self._excluded       # program time of the sample
        self._excluded += spent
        self._stamps.append(stamp)
        self._values.append(spent * 1000)
        self._due = stamp + SAMPLE_EVERY_S

    def tick(self) -> None:
        if self.now() >= self._due:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end], plus the last sample
        before and the first after it, over ``NOMINAL_MS``."""
        first = max(0, bisect.bisect_right(self._stamps, start) - 1)
        last = bisect.bisect_left(self._stamps, end) + 1
        window = self._values[first:last]
        return statistics.fmean(window) / NOMINAL_MS

    def normalize(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Reference seconds of each (start, end) program interval."""
        return [(end - start) / self.slowdown(start, end)
                for start, end in spans]

    def probe_ms(self) -> float:
        return statistics.median(self._values)
