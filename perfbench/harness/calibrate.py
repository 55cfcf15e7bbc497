"""Host-speed reference: a fixed pure-Python loop timed during a run.

On a shared 2-vCPU KVM guest (Intel Xeon) each vCPU switches on its
own, from second to second and sometimes for minutes, between two
speed levels about 1.9x apart for this loop, and the share of a run
spent at the faster level ranged from 0% to 93%. Every raw host time
of a run moves with that share: ten runs of the same code spread by
0.2-0.5 (quartile distance over median). The loop uses none of the
program's code, so a change to the program cannot move it.

A :class:`Probe` times the loop (:data:`PROBE` iterations, scaled to
:data:`LOOP`) at most every :data:`PROBE_EVERY_S` seconds inside a
unit of work, and a time measured alongside probes is reported at
:data:`REFERENCE_MS`, the loop's time at the slower level:

    reported seconds = measured seconds
                       * (REFERENCE_MS / probe mean) ** SPEED_EXPONENT

with the mean leaving out probes slower than twice the median, which
are hiccups rather than a level. The program gains less than the loop
from the faster level: between the two levels the loop's time changes
by 1.8-1.95x, a simulation's by 1.5-1.55x and a warm sweep pass's by
1.7x, so the program's time goes as the loop's to the power 0.7-0.85.
The raw values and every probe are kept in the result file.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the reference loop.
LOOP = 40_000
#: The loop's time at the host's slower level, in milliseconds, on the
#: 2-vCPU KVM guest the bounds were set on (Python 3.11.7).
REFERENCE_MS = 22.5
#: How the program's host time scales with the loop's across the
#: host's speed levels (see above).
SPEED_EXPONENT = 0.75
#: Iterations of a short probe (3-6 ms on that guest).
PROBE = 10_000
#: Least time between two probes of one :class:`Probe`.
PROBE_EVERY_S = 0.1


def reference_loop(count: int = LOOP) -> int:
    """Dict, list and integer work typical of an interpreted simulator."""
    table: dict[int, int] = {}
    queue: list[int] = []
    acc = 0
    for index in range(count):
        key = (index * 7919) & 1023
        acc ^= table.get(key, index) + (index >> 3)
        table[key] = acc & 0xFFFF
        queue.append(acc & 7)
        if len(queue) > 64:
            acc += queue.pop(0)
    return acc


def timed_loop(count: int) -> tuple[float, float]:
    """Run the loop ``count`` times: ``(seconds taken, seconds scaled to
    LOOP iterations)``."""
    started = time.perf_counter()
    reference_loop(count)
    elapsed = time.perf_counter() - started
    return elapsed, elapsed * LOOP / count


def mean_ms(values: list[float]) -> float:
    """Mean of loop samples (seconds) in milliseconds, leaving out
    hiccups: samples slower than twice the median."""
    limit = 2 * statistics.median(values)
    return statistics.fmean(v for v in values if v <= limit) * 1e3


def to_reference(values: list[float]) -> float:
    """Factor from host seconds measured alongside loop ``values`` to
    seconds at the reference host speed."""
    return (REFERENCE_MS / mean_ms(values)) ** SPEED_EXPONENT


class Reference:
    """Reference-loop samples of one run, by workload."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def add(self, workload: str, values: list[float]) -> None:
        """Record a :class:`Probe`'s samples."""
        self.samples.setdefault(workload, []).extend(values)

    def milliseconds(self, workload: str) -> float:
        """Mean loop time of ``workload``'s samples, hiccups left out."""
        return mean_ms(self.samples[workload])


class Probe:
    """Short loop samples taken inside one unit of work.

    :meth:`tick` runs a probe when :data:`PROBE_EVERY_S` has passed since
    the last one; :meth:`take` runs one now. ``spent`` is the time the
    probes took, to be left out of the unit's wall time."""

    def __init__(self, every: float = PROBE_EVERY_S):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def take(self) -> None:
        elapsed, scaled = timed_loop(PROBE)
        self.samples.append(scaled)
        self.spent += elapsed
        self.last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.take()
