"""Machine-speed correction for the end-to-end times.

On a shared host the same code runs at two or more speeds that alternate in
phases of a few seconds to tens of seconds; a fixed pure-Python loop reads
1.3-1.5x slower in its slow phases, in CPU time as much as in wall time.  A run
of 25-60 s catches these phases in a different mix each time, so raw times of
identical runs spread by 15-20%.

While a run is measured, a timer signal interrupts it every SAMPLE_EVERY_S
and times a fixed reference workload, written here and calling no gpde code.
The time the samples take is kept off `Speed.clock()` and `Speed.cpu_clock()`,
which the loop uses for every latency and CPU time.  A request's time is then scaled by
REFERENCE_S over the median reference time within MARGIN_S of it: it is given
in seconds of a machine on which the reference takes REFERENCE_S.  A change to
gpde does not change the reference, so a gain or a regression shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# the reference's time at the nominal speed, about its median on the 2-core
# box on which the benchmark was written, so that corrected times read close
# to raw ones there
REFERENCE_S = 1.7e-3
SAMPLE_EVERY_S = 0.25
# samples within this distance of a request count toward its speed; the
# phases last seconds, so a wide window averages the samples' own jitter
MARGIN_S = 3.0
KEYS = [(i % 17, i * 7 % 13, ("x", i % 5)) for i in range(200)]


def reference():
    """Fixed interpreter work of the two kinds gpde spends its time on:
    integer arithmetic in a bytecode loop, and Fractions summed in a dict
    keyed by tuples."""
    s = 0
    for i in range(10_000):
        s += i * i % 7
    terms = {}
    for i, key in enumerate(KEYS):
        terms[key] = terms.get(key, 0) + Fraction(i % 5 + 1, i % 3 + 1)
    return s, terms


class Speed:
    """Reference times sampled by a timer signal while the context is open,
    each stamped with `clock()` at its end."""

    def __init__(self):
        self.stamps, self.times = [], []
        self.wall_spent = self.cpu_spent = 0.0   # taken by the samples so far
        self.busy = False

    def clock(self):
        """Wall time that stands still while a sample runs."""
        return time.perf_counter() - self.wall_spent

    def cpu_clock(self):
        """Process CPU time without the samples'."""
        return time.process_time() - self.cpu_spent

    def sample(self, *_):
        """Record sample_once(), keeping its time off the clocks."""
        if self.busy:  # a signal that arrives during a sample is dropped
            return
        self.busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        reference_s = self.sample_once()
        self.wall_spent += time.perf_counter() - w0
        self.cpu_spent += time.process_time() - c0
        self.stamps.append(self.clock())
        self.times.append(reference_s)
        self.busy = False

    @staticmethod
    def sample_once():
        """The faster of two back-to-back reference runs, so that a single
        preemption does not read as a slow phase."""
        w0 = time.perf_counter()
        reference()
        w1 = time.perf_counter()
        reference()
        return min(w1 - w0, time.perf_counter() - w1)

    def __enter__(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def factor(self, start, end):
        """REFERENCE_S over the median reference time of the samples within
        MARGIN_S of [start, end] (in `clock()` time), and at least the last
        sample before start and the first after end."""
        lo = min(bisect.bisect_left(self.stamps, start - MARGIN_S),
                 bisect.bisect_right(self.stamps, start) - 1)
        hi = max(bisect.bisect_right(self.stamps, end + MARGIN_S),
                 bisect.bisect_left(self.stamps, end) + 1)
        return REFERENCE_S / statistics.median(self.times[max(lo, 0):hi])
