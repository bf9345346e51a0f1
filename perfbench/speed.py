"""Timing in reference seconds, steady under a drifting machine speed.

The benchmark runs on shared virtual machines whose speed drifts with the
load of their neighbours.  On a 2-vCPU Intel Xeon VM, one fixed pure-Python
loop took 9.5 to 18 ms within ten seconds, its medians over 5-second
windows ranged over a factor of 1.6 in two minutes, and the process's CPU
time drifted with its wall time.  Ten runs of one paper pass spread 29%
(interquartile range over median) in wall time.

So every timed piece of work is bracketed by a fixed pure-Python kernel
that never touches the program, and its wall time is scaled by how fast the
machine ran that kernel right then::

    reference seconds = wall seconds * REFERENCE_S / (mean kernel time)

On the same ten runs that spread 29% in wall time, the paper pass in
reference seconds spread 5%.  A change to the program moves its reference
time just as it moves its wall time; only the machine's drift cancels.
:func:`pin` keeps the benchmark and the processes it starts on one CPU, so
the kernel runs where the work runs.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import Any, Callable, List, Tuple

#: The kernel's time on the reference machine: about its fastest time on a
#: 2-vCPU Intel Xeon VM (2.1 GHz), where its median was 13.6 ms.
REFERENCE_S = 0.010
#: Probes taken on each side of a request.  One probe alone is often off by
#: a preemption; between short requests probes come often enough that six
#: of them still span well under a second.
PROBES_PER_SIDE = 3


def kernel() -> int:
    """Fixed work in the interpreter's common paths: dict reads and
    writes, integer bit operations, a sort and function calls."""
    table: dict = {}
    acc = 0
    for i in range(15000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= (key << 3) | (i & 7)
    acc += len(sorted(table.items()))

    def step(x: int) -> int:
        return x + 1

    for _ in range(10000):
        acc = step(acc) & 0xFFFFFFFF
    return acc


def probe() -> float:
    """Wall seconds of one :func:`kernel` run."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def pin() -> None:
    """Bind this process, and every process it starts later, to the lowest
    CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def factor(before: float, after: float) -> float:
    """Reference seconds per wall second, from the kernel times around a
    piece of work."""
    return REFERENCE_S / ((before + after) / 2.0)


class Meter:
    """Times calls in reference seconds.  The kernel run after one call
    also serves as the one before the next call."""

    def __init__(self) -> None:
        self.last = probe()
        #: wall seconds and reference seconds per wall second, per call
        self.walls: List[float] = []
        self.factors: List[float] = []

    def time(self, call: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Tuple[float, Any]:
        """``(reference seconds, result)`` of ``call(*args, **kwargs)``."""
        before = self.last
        started = time.perf_counter()
        result = call(*args, **kwargs)
        wall = time.perf_counter() - started
        self.last = probe()
        self.walls.append(wall)
        self.factors.append(factor(before, self.last))
        return wall * self.factors[-1], result


def factor_between(probes: List[Tuple[float, float]], start: float,
                   end: float) -> float:
    """The factor for work from ``start`` to ``end`` (``perf_counter``
    times), from ``(time, kernel seconds)`` probes sorted by time, the
    first before every piece of work: the median of the last
    :data:`PROBES_PER_SIDE` probes before ``start`` and the first ones
    after ``end``."""
    times = [t for t, _ in probes]
    before = bisect.bisect_right(times, start)
    after = bisect.bisect_left(times, end)
    side = PROBES_PER_SIDE
    near = probes[max(before - side, 0):before] + probes[after:after + side]
    return REFERENCE_S / statistics.median(seconds for _, seconds in near)
