"""Host-speed reference for the shiftpat benchmark.

The machines the benchmark runs on share their cores with other work, and
their speed moves by 15 % over seconds and by 30-70 % for minutes at a
time, for CPU time as much as for wall time. A fixed pure-Python kernel,
kept here and never changed, samples that speed while the program runs: a
one-shot timer, re-armed after each sample, interrupts the program after
every INTERVAL_S to run the kernel once, and each stretch of program time
between two samples is scaled by REF_S over the mean of the kernel's times
at its two ends. The kernel's own time is left out. A scaled time is the
time the program would take on a host where the kernel takes REF_S, so a
slow phase moves both and cancels, while a change to the program moves
only the program.
"""

from __future__ import annotations

import bisect
import signal
import time
from itertools import permutations

# About the kernel's time on a calm 2-vCPU x86-64 VM (Intel Xeon, 2.1 GHz),
# CPython 3.11.7: the host speed every scaled time is quoted at. Fixed, like
# the kernel, so that scaled times compare across runs and commits.
REF_S = 0.006
# Wall time from the end of one sample to the next while a pass runs.
INTERVAL_S = 0.05


def kernel() -> int:
    """Fixed work in the program's mix: tuple building and dict counting
    over the permutations of S_7, then big-integer arithmetic."""
    counts = {}
    for p in permutations(range(7)):
        des = tuple(i for i in range(6) if p[i] > p[i + 1])
        counts[des] = counts.get(des, 0) + 1
    big = 1
    for k in range(1, 600):
        big = big * k + counts.get((k % 6,), 0)
    return len(counts) + big % 1000003


class Meter:
    """Samples the kernel and scales program times by it.

    ``sample()`` runs the kernel once and returns its time; ``scale`` turns
    the samples before and after a stretch of program time into its factor.
    ``start()`` samples and arms the timer that samples INTERVAL_S after
    the end of each sample (re-armed only once the kernel has run, so
    samples never nest), ``stop()`` disarms it and samples once more, so
    every time taken between the two lies between samples; ``scaled(t0,
    t1)`` is then the program time in [t0, t1] at REF_S. ``took`` keeps
    every kernel time.
    """

    def __init__(self):
        self.took = []
        self._starts, self._ends, self._factors = [], [], []
        self._armed = False
        kernel()  # warm; not recorded

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t1)
        self.took.append(t1 - t0)
        return t1 - t0

    @staticmethod
    def scale(before: float, after: float) -> float:
        return 2 * REF_S / (before + after)

    def _tick(self, *_) -> None:
        # A tick that lands inside stop() must not re-arm the timer.
        if self._armed:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._starts, self._ends = [], []
        self.sample()
        self._armed = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        took = [e - s for s, e in zip(self._starts, self._ends)]
        self._factors = [self.scale(a, b) for a, b in zip(took, took[1:])]

    def scaled(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1], without kernel runs, each stretch
        between samples i and i+1 scaled by the factor of its two ends."""
        total = 0.0
        i = max(0, bisect.bisect_right(self._starts, t0) - 1)
        while i < len(self._factors) and self._ends[i] < t1:
            lo, hi = max(t0, self._ends[i]), min(t1, self._starts[i + 1])
            if hi > lo:
                total += (hi - lo) * self._factors[i]
            i += 1
        return total
