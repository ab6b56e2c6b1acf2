"""How fast the host runs Python right now, relative to an idle host.

On a shared virtual machine other tenants slow a core down by up to 1.8x, in
swings that last from seconds to minutes (seen on a 2-vCPU x86-64 VM).  The
process's CPU time slows as much as its wall time, so CPU time does not
help.  The benchmark divides its timings by :func:`host_factor`, a fixed
kernel's time over its time on an idle host.

This module imports only the standard library, so a fresh interpreter can
sample the factor before it imports the program.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

REF_ITERATIONS = 5000
REF_SECONDS = 0.00065   # reference_kernel() on an idle host
REF_REPEATS = 3         # host_factor() keeps the fastest of this many timings
REF_SPACING = 0.05      # HostClock samples this often, in seconds


def reference_kernel():
    """Fixed 113-bit integer arithmetic.  It allocates nothing the garbage
    collector tracks, so the size of the program's heap cannot change its
    time."""
    acc = (1 << 112) + 12345
    mask = (1 << 113) - 1
    for i in range(REF_ITERATIONS):
        acc = (acc * 0x9E3779B97F4A7C15 + i) & mask
    return acc


def host_factor():
    """How much slower than an idle host this host runs Python right now.
    The fastest of a few kernel timings ignores an interrupt that hits one."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REF_SECONDS


class HostClock:
    """Host factor samples taken every REF_SPACING seconds from a timer
    signal, on a clock that stops while a sample is taken.

    The handler runs between bytecodes of whatever the process is doing, so
    an op of any length is sampled while it runs.  Time stamps from
    :meth:`clock` exclude the sampling, so the samples add nothing to the
    op times, and the samples are stamped on the same clock."""

    def __init__(self):
        self.times = []
        self.factors = []
        self.spent = 0.0        # seconds spent sampling
        self._sampling = False

    def clock(self):
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:     # no sample ran in between
                return now - spent

    def sample(self):
        if self._sampling:      # a tick that fires during a slow sample
            return
        self._sampling = True
        start = time.perf_counter()
        self.times.append(start - self.spent)
        self.factors.append(host_factor())
        self.spent += time.perf_counter() - start
        self._sampling = False

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REF_SPACING, REF_SPACING)
        try:
            self.sample()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def over(self, start, end):
        """Mean factor of the samples in [start, end] on :meth:`clock`, or
        the two nearest samples interpolated at the midpoint if none fell
        inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return math.fsum(self.factors[lo:hi]) / (hi - lo)
        moment = (start + end) / 2.0
        if lo == 0:
            return self.factors[0]
        if lo == len(self.times):
            return self.factors[-1]
        t0, t1 = self.times[lo - 1], self.times[lo]
        w = (moment - t0) / (t1 - t0)
        return (1.0 - w) * self.factors[lo - 1] + w * self.factors[lo]
