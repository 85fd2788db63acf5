"""Machine pace: a fixed reference kernel sampled all through each unit of work.

On a shared host the speed of a vCPU drifts by ±20 % within seconds and
between runs minutes apart, and the process's CPU time drifts with it, so
raw wall times of the same code disagree by more than any useful bound.
The benchmark therefore measures the machine's pace while it times a unit
of work: a wall-clock interval timer interrupts the unit every ``PERIOD_S``
and runs a short fixed reference kernel (numpy and plain-Python work of the
same mix as sbc-lab, none of it sbc-lab code) in the same process. The unit
is reported at the reference pace:

    work  = wall - time spent in the kernel
    paced = work * TICK_S / mean(kernel time)

``TICK_S`` is the kernel's typical time on the machine the baseline in
PREDICTIONS.md was measured on, so paced times read as seconds on that
machine. A change to sbc-lab moves ``work`` and leaves the kernel alone; a
change of machine pace moves both and cancels. The kernel takes about a
tenth of each unit's wall time, the same share on every commit.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
TICK_ROUNDS = 6
# Typical reference(TICK_ROUNDS) time on the baseline machine (PREDICTIONS.md).
TICK_S = 0.0056


def reference(rounds: int = TICK_ROUNDS) -> float:
    """Run the fixed reference kernel; return its wall time in seconds."""
    start = perf_counter()
    rng = np.random.default_rng(20221104)
    acc = 0.0
    for _ in range(rounds):
        a = rng.standard_normal((200, 100))
        s = np.sort(a, axis=1)
        acc += float(np.log1p(np.abs(np.cumsum(s, axis=0))).sum())
        d: dict[int, int] = {}
        for j in range(2000):
            d[j % 97] = d.get(j % 97, 0) + j
        acc += sum(d.values())
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return perf_counter() - start


class Paced:
    """Times one unit of work with the reference kernel ticking inside it.

        with Paced() as unit:
            work()
        unit.paced, unit.wall, unit.work, unit.ticks

    Only the main thread of the calling process is interrupted; the
    workloads run sbc-lab on one thread.
    """

    def __enter__(self) -> "Paced":
        reference(1)  # first-call costs stay out of the ticks
        self.ticks: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.ticks.append(reference())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ticks:  # a unit shorter than one period
            self.ticks.append(reference())
        self.work = self.wall - sum(self.ticks)
        self.paced = self.work * TICK_S / statistics.fmean(self.ticks)

    def record(self) -> dict:
        return {"wall": self.wall, "work": self.work, "paced": self.paced,
                "ticks": len(self.ticks), "tick_mean": statistics.fmean(self.ticks)}
