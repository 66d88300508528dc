"""Host-speed probe: every time the benchmark reports is rescaled by it.

The benchmark's host is shared: the same query's wall time drifts by up
to 2x over minutes with the load of the machine's other tenants, far
more than any bound a regression check could use.  So each measured
interval is paired with this fixed pure-Python computation, timed just
before and just after it on the same CPUs, and reported in *reference
seconds*: wall seconds x ``REFERENCE_S`` / probe seconds, i.e. the time
the interval would have taken on a host where the probe takes
``REFERENCE_S``.  The probe shares no code with the program, so a change
to the program moves the rescaled times exactly as it moves the wall
times.  Its work must never change: that would move every reported time.
"""

from __future__ import annotations

import gc
import os
import random
import time
from collections import defaultdict

#: Probe seconds on the reference host (about this computation's time on
#: an unloaded 2-vCPU Sapphire Rapids KVM guest).
REFERENCE_S = 0.05


class _Item:
    __slots__ = ("key", "start", "end")

    def __init__(self, key: int, start: float, end: float) -> None:
        self.key = key
        self.start = start
        self.end = end


def _work(n: int = 30_000) -> int:
    """Allocate, sort, group and sweep small objects, as the reducers do."""
    rng = random.Random(2014)
    items = [_Item(i % 61, rng.random(), 0.0) for i in range(n)]
    for item in items:
        item.end = item.start + rng.random() * 0.01
    groups = defaultdict(list)
    for item in sorted(items, key=lambda item: item.start):
        groups[item.key].append(item)
    hits = 0
    for members in groups.values():
        active: list = []
        for item in members:
            active = [other for other in active if other.end >= item.start]
            hits += len(active)
            active.append(item)
    return hits


def probe_seconds() -> float:
    """Mean probe time over the CPUs this process may run on, each
    measured pinned to that CPU, with the collector off."""
    cpus = os.sched_getaffinity(0)
    seconds = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            _work()
            seconds.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, cpus)
        if enabled:
            gc.enable()
    return sum(seconds) / len(seconds)


class HostClock:
    """Rescales consecutive measured intervals to reference seconds, each
    by the mean of the probes taken just before and just after it."""

    def __init__(self) -> None:
        _work()  # warm the allocator before the first timed probe
        self.last = probe_seconds()
        #: every probe time taken, for the report.
        self.probes = [self.last]

    def scale(self) -> float:
        """Probe now; the factor for the interval since the last probe."""
        now = probe_seconds()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.probes.append(now)
        return factor
