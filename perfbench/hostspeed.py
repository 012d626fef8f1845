"""Host-speed metering: timings in reference-speed seconds.

The benchmark runs on a few cores of a shared host.  Other tenants slow a
single thread by 1.2-2x for seconds at a time (a fixed pure-Python loop
read 0.63 ms when the host was quiet and over 1.1 ms for stretches of
several seconds within one minute), so raw wall times of identical work
spread far beyond any useful regression bound.

While a :class:`SpeedMeter` runs, a ``SIGALRM`` interval timer interrupts
the main thread every :data:`PERIOD_S` and times one call of a fixed
calibration kernel that belongs to the benchmark, never to the program
under test.  The kernel mixes the kinds of work the program does:
interpreter-bound integer arithmetic, ``bisect`` over Python ints, numpy
calls on one-row arrays and numpy over a few thousand rows.  Its time
divided by :data:`KERNEL_REF_S` (its time on a quiet host), as a rolling
median over :data:`SMOOTH` samples, is the host's slowdown at that moment.

:meth:`SpeedMeter.reference_s` turns a wall-clock interval into
reference-speed seconds: the wall time minus the time spent in the
kernel, each stretch between two samples divided by the slowdown measured
around it.  On a quiet host that equals the wall time; when the host slows
the program and the kernel alike, it stays put.  The kernel's own time is
never counted as the program's.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left

import numpy as np

#: Interval between two kernel samples (wall time).
PERIOD_S = 0.02
#: Wall time of one :func:`kernel` call on a quiet host (2-core x86_64 VM,
#: Xeon at 2.1 GHz, Python 3.11, numpy 2.4): the lower envelope of many
#: samples.  It only scales every reported time by the same factor.
KERNEL_REF_S = 3.0e-4
#: Samples per centred rolling median of the slowdown (0.4 s): one sample
#: is noisy, while the host's slowdowns last seconds.
SMOOTH = 21

_VALUES = list(range(0, 1 << 48, 1 << 36))
_ARRAY = np.arange(4096, dtype=np.uint64) * np.uint64(977)
_SHUFFLED = np.random.default_rng(0).permutation(8192).astype(np.uint64) * np.uint64(977)


def kernel() -> int:
    """A fixed amount of interpreter, ``bisect`` and numpy work.

    Four parts of about equal time: integer arithmetic in the interpreter,
    ``bisect`` over Python ints, numpy calls on one-row arrays, and numpy
    sorting and searching over 8k rows.
    """
    total = 0
    for i in range(750):
        total += (i * 2654435761) & 1023
    for i in range(230):
        total += bisect_left(_VALUES, i << 38)
    for i in range(46):
        total += int(np.searchsorted(_ARRAY, _ARRAY[i : i + 1])[0])
    ordered = np.sort(_SHUFFLED)
    total += int(np.searchsorted(ordered, _SHUFFLED[::8]).sum())
    return total


class SpeedMeter:
    """Samples the host's slowdown while running (see the module docstring).

    Use as a context manager around timed work in the main thread; the
    samples stay available for :meth:`reference_s` after it stops.
    """

    def __init__(self) -> None:
        #: (kernel start, kernel end) of every sample, in ``perf_counter`` time.
        self.samples: list[tuple[float, float]] = []
        self._started = self._stopped = 0.0
        self._saved: tuple | None = None
        self._knots: np.ndarray | None = None
        self._scaled: np.ndarray | None = None

    def _sample(self, *_: object) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedMeter":
        self.samples.clear()
        self._knots = None
        self._started = time.perf_counter()
        self._sample()
        handler = signal.signal(signal.SIGALRM, self._sample)
        timer = signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._saved = (handler, timer)
        return self

    def __exit__(self, *exc: object) -> None:
        handler, timer = self._saved
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)
        self._sample()
        self._stopped = time.perf_counter()

    # -- conversion ---------------------------------------------------------

    def slowdowns(self) -> np.ndarray:
        """Smoothed slowdown at each sample (kernel time / reference)."""
        spans = np.array([end - start for start, end in self.samples])
        padded = np.pad(spans, SMOOTH // 2, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTH)
        return np.median(windows, axis=1) / KERNEL_REF_S

    def _integrate(self) -> None:
        """Cumulative reference-speed seconds at every knot.

        Knots are the meter's start and stop and both ends of every sample.
        Between two samples the program ran at the mean of their slowdowns;
        during a sample it did no work at all.
        """
        slow = self.slowdowns()
        knots = np.concatenate(([self._started], np.ravel(self.samples), [self._stopped]))
        # Rates of the 2n+1 segments: before the first sample, then per
        # sample "inside" (0) and "after" (up to the next sample or the stop).
        rate = np.zeros(2 * len(slow) + 1)
        rate[0] = 1 / slow[0]
        rate[2::2] = 1 / np.append((slow[:-1] + slow[1:]) / 2, slow[-1])
        self._knots = knots
        self._scaled = np.concatenate(([0.0], np.cumsum(rate * np.diff(knots))))

    def reference_s(self, start, end):
        """Reference-speed seconds of the wall interval(s) ``[start, end]``."""
        if self._knots is None:
            self._integrate()
        return np.interp(end, self._knots, self._scaled) - np.interp(
            start, self._knots, self._scaled
        )
