"""Host-speed sampling, so that timings read in reference seconds.

The benchmark's machine is a few vCPUs of a shared host whose speed changes
by up to 1.8 times within seconds, as other tenants' load comes and goes;
everything in the process slows together.  Wall time alone then measures
the neighbours as much as the program.

``HostClock.sampling()`` runs a fixed reference kernel from a SIGALRM
handler every ``SAMPLE_INTERVAL_S`` of wall time, in the benchmark's own
process and thread, while the program runs.  The kernel is benchmark code
that orbimorse never touches: numpy arithmetic on 720-element arrays, the
size of the flow integrator's batches.  It is run once before it is timed,
so its few KB are in cache and what the program left there does not change
its time.  On the test machine, over four minutes of fast and slow
spells, solve time against kernel time had a log-log slope of 0.82-0.89 on
all four workloads, and dividing by the kernel time cut the solve-to-solve
spread (standard deviation / mean) from 0.15-0.18 to 0.04-0.07.

``reference_seconds(a, b)`` integrates ``KERNEL_REFERENCE_S / kernel time``
over the wall interval [a, b], with the kernel time between two samples
taken as their mean, and leaves out the time the sampling itself took.  A
solve's reference seconds are then its wall seconds on a host where one
kernel call takes ``KERNEL_REFERENCE_S``, whatever the host did meanwhile.
An interval shorter than ``MIN_WINDOW_S`` takes the mean rate of the
``MIN_WINDOW_S`` around its middle instead, so that a millisecond solve is
scaled by ten samples rather than by the one or two nearest it, whose own
noise would otherwise widen the tail of the solve times.

Importing the package is interpreter work (unmarshalling bytecode, running
module bodies), which slowed 1.55 times where the numpy kernel slowed 1.85
times; scaled by the numpy kernel, import times fell into two clusters 25 %
apart by host state.  The import probes are scaled by
``interpreter_kernel``, pure-Python arithmetic: over 40 probes the ratio of
import time to kernel time varied by 0.08 (standard deviation / mean)
against 0.15 for the numpy kernel and 0.17 for the import time alone.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# About each kernel's time on the test machine when the host is quiet.
KERNEL_REFERENCE_S = 0.0004
INTERPRETER_REFERENCE_S = 0.0002
SAMPLE_INTERVAL_S = 0.1
MIN_WINDOW_S = 1.0

_ANGLES = np.linspace(0.0, 1.0, 720)


def reference_kernel():
    """The fixed work whose time measures the host's speed."""
    a = _ANGLES
    for _ in range(40):
        a = np.sin(a) * 0.5 + np.sqrt(a * a + 1.0) * 0.1
    return a


def interpreter_kernel():
    """Fixed pure-Python work, the measure for import times."""
    total = 0
    for i in range(3000):
        total += (i * 7919) % 104729
    return total


def kernel_seconds(kernel=reference_kernel):
    """Wall time of one kernel call after a warming call."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def time_kernel(kernel, repeats):
    """Median time of ``repeats`` kernel calls."""
    return statistics.median(kernel_seconds(kernel) for _ in range(repeats))


class HostClock:
    """Kernel samples taken during one ``sampling()`` block."""

    def __init__(self):
        self.samples = []          # (start, end, kernel seconds)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel = kernel_seconds()
        self.samples.append((t0, time.perf_counter(), kernel))

    @contextmanager
    def sampling(self):
        """Sample the host while the block runs; one sample at each end."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)
        self._gaps()

    def _gaps(self):
        """Wall intervals between kernel calls, with the rate at which each
        turns wall seconds into reference seconds.  Each kernel time is the
        median of it and its neighbours, so one call hit by a stall does not
        set the rate of the gaps beside it."""
        raw = [k for _, _, k in self.samples]
        kernel = [statistics.median(raw[max(0, i - 1):i + 2])
                  for i in range(len(raw))]
        self._starts = [-math.inf] + [end for _, end, _ in self.samples]
        self._ends = [start for start, _, _ in self.samples] + [math.inf]
        means = ([kernel[0]]
                 + [(k + n) / 2 for k, n in zip(kernel, kernel[1:])]
                 + [kernel[-1]])
        self._rates = [KERNEL_REFERENCE_S / k for k in means]

    def _integral(self, a, b):
        """(reference seconds, unsampled wall seconds) in [a, b]."""
        reference = wall = 0.0
        j = bisect.bisect_right(self._ends, a)
        while j < len(self._starts) and self._starts[j] < b:
            overlap = min(b, self._ends[j]) - max(a, self._starts[j])
            if overlap > 0:
                reference += overlap * self._rates[j]
                wall += overlap
            j += 1
        return reference, wall

    def reference_seconds(self, a, b):
        """Reference seconds in the wall interval [a, b] of a sampled block."""
        if b - a >= MIN_WINDOW_S:
            return self._integral(a, b)[0]
        middle = (a + b) / 2
        reference, wall = self._integral(middle - MIN_WINDOW_S / 2,
                                         middle + MIN_WINDOW_S / 2)
        return self._integral(a, b)[1] * reference / wall

    def slowdown(self):
        """Median kernel time ÷ KERNEL_REFERENCE_S over the block: about 1
        on a quiet host, higher while it was slow."""
        return statistics.median(
            k for _, _, k in self.samples) / KERNEL_REFERENCE_S
