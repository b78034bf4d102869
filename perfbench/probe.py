"""Host-speed probe: turns measured times into times at a fixed host speed.

The shared host runs the benchmark at one of two speeds, the slow one taking
1.8-2 times as long as the fast one, and switches between them from second to
second and sometimes stays slow for minutes.  A whole run can fall inside a
slow stretch, so no statistic over one run's own timings sees past it.

A ``Probe`` times a fixed piece of standard-library work (``work``, which
never touches the package) every ``PERIOD_S`` seconds of wall time, from a
SIGALRM handler, so its samples are spread evenly over the time the workload
runs, on the same vCPU and interleaved with it.  For an interval of the
workload that took ``raw`` seconds, ``raw * factor(start, end)`` is its
duration at the speed at which ``work`` takes ``NOMINAL_S``:

    factor = mean over the samples in the interval of NOMINAL_S / duration

If the host runs at speed-up ``v(t)``, the work the interval did is the
integral of ``v(t) dt``; samples taken at even steps of wall time estimate
that integral's mean, which is the mean of ``NOMINAL_S / duration``, not its
reciprocal.  An interval too short to hold a sample takes the samples next to
it on either side.  Time spent in the handler is counted in ``spent`` and
taken out of the intervals it falls in.
"""

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.01
# What ``work`` takes on the 2-vCPU Xeon host the bounds were set on, at its
# fast speed (CPython 3.11).  Only a scale: every calibrated time is
# proportional to it.
NOMINAL_S = 250e-6


def work() -> Fraction:
    """A fixed mix of what the package spends its time on: Fraction
    arithmetic, dicts keyed by tuples, sorting and small loops."""
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 40):
        key = (i % 7, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, i % 13 + 1)
        total += table[key]
    for key in sorted(table, key=lambda k: (k[1], -k[0])):
        total -= table[key] * Fraction(1, key[0] + 1)
    return total


class Probe:
    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        begin = time.perf_counter()
        work()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - begin)
        self.spent += end - begin

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the probe's duration, averaged over the samples that
        end inside [start, end] and the nearest sample on either side."""
        lo = max(bisect_left(self.ends, start) - 1, 0)
        hi = min(bisect_right(self.ends, end) + 1, len(self.ends))
        window = self.durations[lo:hi]
        return sum(NOMINAL_S / d for d in window) / len(window)
