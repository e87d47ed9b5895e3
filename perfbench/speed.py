"""A probe of the machine's speed, sampled while the program runs.

The benchmark gets a few cores of a host shared with other tenants.  Their
load slows the same code by up to a third, for seconds to minutes at a time,
in CPU time as much as in wall time.  So a time measured minutes later on
the same code can differ by more than any useful bound.

``Probe`` times a fixed piece of pure-Python work, ``kernel``, every
``INTERVAL_S`` seconds of wall time, from a SIGALRM handler in the process
that runs the program.  The samples fall between the program's own
bytecodes, on the same core and at the same moment, so they slow down when
the program slows down.  ``at_nominal`` divides a time by the (trimmed)
mean sample taken while it was measured, and multiplies it by ``NOMINAL_S``: the time
the same work would take at the machine's nominal speed.  The probe's own
time is counted separately, so it can be taken out of the program's times.

The kernel is the benchmark's own code: a change to the program changes
the program's times but not the probe's.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.05
# About the mean sample taken while the program runs on the 2-core VM where
# the baseline was measured (Linux 6.18, Python 3.11.7).  It only sets the
# unit: scaled times read as seconds on that machine at its usual speed.
NOMINAL_S = 0.00035
WINDOW_S = 0.25  # a job is scaled by the samples this close to it
EDGE_SAMPLES = 5  # samples taken at once when a probe starts and stops
TRIM = 0.1  # share of samples dropped at each end before averaging

_MASK = (1 << 64) - 1
_TABLE = [0] * 1024
_INDEX: dict[int, int] = {}


def kernel() -> int:
    """About a third of a millisecond of the kind of work the program does:
    integer bit operations, list updates, dict look-ups and inserts.  It
    creates no object the garbage collector tracks, so it does not change
    when the program's collections run."""
    table, index = _TABLE, _INDEX
    index.clear()
    x = 0x2545F4914F6CDD1D
    hits = 0
    for i in range(512):
        x ^= (x << 13) & _MASK
        x ^= x >> 7
        x ^= (x << 17) & _MASK
        slot = x & 1023
        table[slot] += i
        if slot in index:
            hits += 1
        else:
            index[slot] = i
    return hits


class Probe:
    """Samples ``kernel`` every ``interval`` seconds between ``start`` and
    ``stop``, and ``EDGE_SAMPLES`` times at once on each, so that even a
    short stretch of time has samples."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []  # kernel durations
        self.times: list[float] = []  # when each was taken, by perf_counter
        self.spent = 0.0  # time inside the handler, kernel and all
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The first call warms the caches the program has just used; only the
        # second is timed, so the sample hardly depends on the program's
        # working set.
        entered = perf_counter()
        kernel()
        began = perf_counter()
        kernel()
        self.samples.append(perf_counter() - began)
        self.times.append(began)
        self.spent += perf_counter() - entered

    def sample_now(self, count: int = 1) -> None:
        """Take ``count`` samples at once, outside any timer."""
        for _ in range(count):
            self._sample(None, None)

    def start(self) -> None:
        self.sample_now(EDGE_SAMPLES)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample_now(EDGE_SAMPLES)


def at_nominal(seconds: float, samples: list[float]) -> float:
    """``seconds``, measured while ``samples`` were taken, at the machine's
    nominal speed.

    The host switches between a fast and a slow state about 1.5x apart, and
    the program's time grows with the share of time spent in the slow one.
    A mean follows that share; a median jumps from one state to the other
    when it crosses a half.  The mean is trimmed by ``TRIM`` at each end, so
    that a sample that met a context switch does not scale a short job."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return seconds * NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def job_at_nominal(start: float, seconds: float, times: list[float], samples: list[float]) -> float:
    """A job's time at nominal speed, scaled by the samples taken within
    ``WINDOW_S`` of it, or by the ``EDGE_SAMPLES`` nearest if there are fewer.

    The host's slow spells can last well under a second, so a job is scaled
    by the samples around it rather than by those of its whole repetition."""
    lo = bisect_left(times, start - WINDOW_S)
    hi = bisect_right(times, start + seconds + WINDOW_S)
    while hi - lo < EDGE_SAMPLES and (lo > 0 or hi < len(times)):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
    return at_nominal(seconds, samples[lo:hi])
