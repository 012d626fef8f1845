"""Loss resilience for APD: the multi-day sliding window (Section 5.2).

Packet loss can make an aliased prefix look non-aliased (a false negative).
On top of cross-protocol merging, the paper requires each fan-out address to
have answered *any* protocol within the past N days.  Table 4 compares window
sizes 0..5 by the number of prefixes that remain "unstable" -- i.e. flip
between aliased and non-aliased across days -- and selects a window of 3 days
(reducing unstable prefixes by almost 80 %).

Two implementations coexist, selected by ``policy.reference``:

* the fast engine (default) -- daily outcomes are materialised once into
  ``(prefix, day)`` matrices (a uint64 branch bitmask, the expected fan-out
  and an outcome-present flag); each window size is then a handful of
  column shifts-and-ORs plus one ``bitwise_count``, instead of
  O(prefixes x days x windows) dict walks.
* the reference engine -- per-prefix walks over each day's outcome, kept
  for parity tests and as the implementation behind the public per-prefix
  queries.  A sweep fetches each (prefix, day) outcome once per window size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.addr.generate import FANOUT
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import APDResult
from repro.exec import ExecutionPolicy

#: One day's observation of a prefix: its fan-out size and responsive branches.
_Observed = tuple[int, set[int]]


def window_verdict_block(
    masks: np.ndarray,
    expected: np.ndarray,
    present: np.ndarray,
    days: Sequence[int],
    window: int,
) -> np.ndarray:
    """Windowed aliased verdicts of every (prefix, day) cell.

    The vectorized sweep: every prefix row is classified from its own day
    columns only, with integer bit-ORs and counts.
    """
    column_of = {d: j for j, d in enumerate(days)}
    acc_masks = np.zeros_like(masks)
    acc_expected = np.zeros_like(expected)
    found = np.zeros_like(present)
    for j, day in enumerate(days):
        # Most recent day first, exactly like _expected_targets.
        for offset in range(window + 1):
            src = column_of.get(day - offset)
            if src is None:
                continue
            acc_masks[:, j] |= masks[:, src]
            take = ~found[:, j] & present[:, src]
            acc_expected[take, j] = expected[take, src]
            found[:, j] |= present[:, src]
    acc_expected[~found] = FANOUT
    responsive = np.bitwise_count(acc_masks).astype(np.int64)
    return responsive >= acc_expected


@dataclass(slots=True)
class WindowStats:
    """Unstable-prefix statistics for one window size (one Table 4 column)."""

    window: int
    unstable_prefixes: int
    aliased_final: int
    total_prefixes: int


class SlidingWindowMerger:
    """Merge daily APD outcomes over a trailing window of days."""

    def __init__(
        self,
        daily_results: Mapping[int, APDResult],
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        if not daily_results:
            raise ValueError("at least one daily APD result is required")
        self._daily = dict(sorted(daily_results.items()))
        self._days = list(self._daily)
        self.policy = policy
        self._matrices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._prefixes: list[IPv6Prefix] | None = None
        self._verdict_cache: dict[int, np.ndarray] = {}

    @property
    def days(self) -> list[int]:
        return list(self._days)

    def prefixes(self) -> list[IPv6Prefix]:
        """All prefixes probed on any day."""
        if self._prefixes is None:
            prefixes: set[IPv6Prefix] = set()
            for result in self._daily.values():
                prefixes.update(result.outcomes)
            self._prefixes = sorted(prefixes)
        return list(self._prefixes)

    # -- windowed classification (scalar reference, also the per-prefix API) ------

    def _history(self, prefix: IPv6Prefix, days: Iterable[int]) -> dict[int, _Observed]:
        """The prefix's fan-out size and responsive branches on each of *days*
        that probed it: one outcome lookup per day."""
        history: dict[int, _Observed] = {}
        for d in days:
            result = self._daily.get(d)
            outcome = None if result is None else result.outcomes.get(prefix)
            if outcome is not None:
                history[d] = (outcome.num_targets, outcome.responsive_branches)
        return history

    @staticmethod
    def _judge(history: Mapping[int, _Observed], day: int, window: int) -> bool:
        """Aliased verdict on *day* under a window size, from a prefix's history.

        The fan-out size a full alias response must reach comes from the
        prefix's outcome on the queried day; when the prefix was not probed
        that day, from its most recent outcome within the window (so
        non-default fan-outs -- e.g. prefixes longer than /124 with fewer
        than 16 targets -- are not misjudged against a hardcoded 16), and
        only as a last resort from the shared APD fan-out constant.
        """
        recent_first = [history[d] for d in range(day, day - window - 1, -1) if d in history]
        expected = recent_first[0][0] if recent_first else FANOUT
        return len(set().union(*(branches for _, branches in recent_first))) >= expected

    def _verdict_days(self, window: int) -> list[int]:
        """The days that get a verdict: from the ``window``-th observed day on."""
        return [d for d in self._days if d - self._days[0] >= window]

    def windowed_responsive_branches(
        self, prefix: IPv6Prefix, day: int, window: int
    ) -> set[int]:
        """Fan-out branches responsive on any protocol within the window.

        ``window = 0`` uses only the given day; ``window = n`` additionally
        merges the n previous days.
        """
        history = self._history(prefix, range(day - window, day + 1))
        return set().union(*(branches for _, branches in history.values()))

    def windowed_is_aliased(self, prefix: IPv6Prefix, day: int, window: int) -> bool:
        """Aliased verdict for a prefix on a day under a window size."""
        return self._judge(self._history(prefix, range(day - window, day + 1)), day, window)

    def daily_verdicts(self, prefix: IPv6Prefix, window: int) -> list[bool]:
        """Per-day aliased verdicts for one prefix under a window size.

        Verdicts start once the window has filled (from the ``window``-th
        observed day onwards) so that short histories do not masquerade as
        instability.
        """
        history = self._history(prefix, self._days)
        return [self._judge(history, d, window) for d in self._verdict_days(window)]

    def is_unstable(self, prefix: IPv6Prefix, window: int) -> bool:
        """Does the prefix change nature across days under this window?"""
        verdicts = self.daily_verdicts(prefix, window)
        return len(set(verdicts)) > 1

    # -- vectorized engine --------------------------------------------------------

    def _ensure_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(branch bitmask, expected fan-out, outcome present) per (prefix, day).

        Built once from the outcome dicts, then every window size is pure
        array work.
        """
        if self._matrices is None:
            prefixes = self.prefixes()
            index = {p: i for i, p in enumerate(prefixes)}
            shape = (len(prefixes), len(self._days))
            masks = np.zeros(shape, dtype=np.uint64)
            expected = np.zeros(shape, dtype=np.int64)
            present = np.zeros(shape, dtype=bool)
            for j, day in enumerate(self._days):
                for outcome in self._daily[day].outcomes.values():
                    i = index[outcome.prefix]
                    mask = 0
                    for branch in outcome.responsive_branches:
                        if branch >= 64:
                            raise ValueError(
                                f"branch {branch} of {outcome.prefix} exceeds the 64-bit "
                                "mask of the fast engine; use ExecutionPolicy(reference=True)"
                            )
                        mask |= 1 << branch
                    masks[i, j] = mask
                    expected[i, j] = outcome.num_targets
                    present[i, j] = True
            self._matrices = (masks, expected, present)
        return self._matrices

    def _windowed_verdicts(self, window: int) -> np.ndarray:
        """Boolean (prefix, day) matrix of windowed aliased verdicts.

        Cached per window size: ``window_stats`` and
        ``final_aliased_prefixes`` on the same window share one computation.
        """
        cached = self._verdict_cache.get(window)
        if cached is None:
            masks, expected, present = self._ensure_matrices()
            cached = self._verdict_cache[window] = window_verdict_block(
                masks, expected, present, self._days, window
            )
        return cached

    # -- Table 4 ------------------------------------------------------------------

    def window_stats(self, window: int) -> WindowStats:
        """Unstable-prefix count and final aliased count for one window size."""
        prefixes = self.prefixes()
        if self.policy.reference:
            verdict_days = self._verdict_days(window)
            unstable = aliased_final = 0
            for prefix in prefixes:
                history = self._history(prefix, self._days)
                verdicts = [self._judge(history, d, window) for d in verdict_days]
                unstable += len(set(verdicts)) > 1
                # The last day is the last verdict day once the window has filled.
                aliased_final += (
                    verdicts[-1] if verdicts else self._judge(history, self._days[-1], window)
                )
        else:
            verdicts = self._windowed_verdicts(window)
            first = self._days[0]
            verdict_columns = [
                j for j, d in enumerate(self._days) if d - first >= window
            ]
            if verdict_columns:
                in_window = verdicts[:, verdict_columns]
                unstable = int(
                    np.count_nonzero(in_window.any(axis=1) & ~in_window.all(axis=1))
                )
            else:
                unstable = 0
            aliased_final = int(np.count_nonzero(verdicts[:, -1]))
        return WindowStats(
            window=window,
            unstable_prefixes=unstable,
            aliased_final=aliased_final,
            total_prefixes=len(prefixes),
        )

    def sweep_windows(self, windows: Sequence[int] = range(6)) -> list[WindowStats]:
        """Table 4: unstable prefixes for each candidate window size."""
        return [self.window_stats(w) for w in windows]

    def final_aliased_prefixes(self, window: int = 3) -> list[IPv6Prefix]:
        """Aliased prefixes on the last day under the chosen window."""
        prefixes = self.prefixes()
        if self.policy.reference:
            last_day = self._days[-1]
            return [
                p for p in prefixes if self.windowed_is_aliased(p, last_day, window)
            ]
        verdicts = self._windowed_verdicts(window)
        return [prefixes[i] for i in np.flatnonzero(verdicts[:, -1]).tolist()]
