"""A deterministic discrete-event scheduler over a simulated clock.

The service historically ticks in whole days, but the dynamics the paper's
measurements are shaped by -- ICMP rate limiters recovering between probe
waves, eyeball prefixes rotating mid-scan, two scanners competing for the
same token budgets -- happen on finer timescales.  :class:`EventScheduler`
is the substrate for all of them: a heap-based priority queue of
``(time, seq, action)`` entries over a simulated clock measured in
fractional days (``23.5`` is noon of day 23).

Determinism contract
--------------------

* Time never comes from a wall clock; callers pass simulated timestamps.
* Events with equal timestamps fire in the order they were scheduled: the
  monotonically increasing ``seq`` breaks heap ties, so execution order is a
  pure function of the schedule calls -- no identity-hash or insertion-map
  ordering leaks in.
* Actions may schedule further events (including at the currently running
  timestamp); :meth:`run_until` keeps draining until nothing at or before
  the horizon remains, so reentrant scheduling is deterministic too.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventScheduler:
    """A heap of timestamped actions executed in ``(time, seq)`` order."""

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self, start_time: float = 0.0):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = float(start_time)

    @property
    def now(self) -> float:
        """The simulated clock, in fractional days (monotone)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, action: Callable[[], None]) -> int:
        """Enqueue *action* at simulated *time*; returns its tie-break seq.

        Scheduling in the past is allowed (the event fires on the next run
        call) -- backdated events are how a cold scheduler catches up after
        construction.
        """
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (float(time), seq, action))
        return seq

    def run_until(self, time: float) -> int:
        """Fire every event with timestamp <= *time*; returns the count.

        The clock advances to each event's timestamp as it fires and ends at
        ``max(now, time)``.  Actions scheduling new events at or before
        *time* have those fired in the same call.
        """
        fired = 0
        while self._heap and self._heap[0][0] <= time:
            event_time, _, action = heapq.heappop(self._heap)
            if event_time > self._now:
                self._now = event_time
            action()
            fired += 1
        if time > self._now:
            self._now = time
        return fired
