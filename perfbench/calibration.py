"""Machine-speed calibration for the end-to-end timings.

A shared 2-core virtual machine runs the same code at speeds up to 2x
apart, in regimes that last from about a second to minutes, so two runs of
the same code can differ by a quarter even after medians over rounds.  The
benchmark therefore measures the machine's speed while it times, with a
fixed kernel that calls nothing in zigzagspec, and reports every time at
reference speed.

During the timed rounds a ``Sampler`` runs the kernel on SIGALRM every
PERIOD_S of wall time, between bytecodes of whatever is running.  An op's
net time is its wall time minus the kernel runs inside it; its time at
reference speed is

    net time * REFERENCE_S * mean(1 / kernel time)

over the kernel runs inside the op and within PERIOD_S of either end.  The
mean of 1 / kernel time over evenly spaced runs is the mean speed over the
interval, the quantity that sets how long a fixed amount of work takes.
Setup probes run in a child process, so ``around`` scales them by kernel
runs taken just before and just after instead.

REFERENCE_S is about the kernel's median time on the machine the benchmark
was written on (2 vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, scipy
1.17.1), so the metrics read as seconds on that machine.  A change to the
package moves the op times and not the kernel, so it moves the metrics in
full.  The kernel mixes what the package spends its time on: scalar complex
arithmetic in Python, small complex numpy arrays and scipy's erfcx.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy import special

REFERENCE_S = 0.001
PERIOD_S = 0.05  # the kernel takes about 2% of the timed rounds
REPEATS = 3  # kernel runs before and after a setup probe

_X = np.linspace(-3.0, 3.0, 31) + 0.5j


def kernel():
    acc = 0j
    for i in range(300):
        acc += abs(complex(i % 97, 1.0) * 0.5) ** 0.5
    for i in range(50):
        s = 1.0 + 1e-3 * i
        acc += (np.exp(-_X * _X * s) * _X).sum()
        acc += special.erfcx(_X * s).sum()
    return acc


class Sampler:
    """Runs the kernel every PERIOD_S while started and keeps the start and
    end (perf_counter) of each run."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0, t1):
        """(net seconds, seconds at reference speed) of the interval t0..t1."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        net = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in range(first, last))
        lo = bisect.bisect_left(self.ends, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD_S)
        # a long C call can hold the ticks off: then use the nearest runs
        lo, hi = (max(lo - 1, 0), min(hi + 1, len(self.ends))) if hi <= lo else (lo, hi)
        speed = statistics.fmean(1.0 / (self.ends[i] - self.starts[i]) for i in range(lo, hi))
        return net, net * REFERENCE_S * speed


def samples():
    """REPEATS kernel times, taken now."""
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def around(measure):
    """measure() returns seconds; gives them and the same at reference speed,
    scaled by the median of the kernel times taken just before and after."""
    before = samples()
    seconds = measure()
    return seconds, seconds * REFERENCE_S / statistics.median(before + samples())
