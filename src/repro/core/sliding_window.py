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
* the reference engine -- the original per-prefix dict walks, kept for
  parity tests and as the implementation behind the public per-prefix
  queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.addr.generate import FANOUT
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import APDResult
from repro.exec import (
    ExecutionPolicy,
    map_shards,
    plan_chunk_spans,
    plan_worker_spans,
)


def window_verdict_block(
    masks: np.ndarray,
    expected: np.ndarray,
    present: np.ndarray,
    days: Sequence[int],
    window: int,
) -> np.ndarray:
    """Windowed aliased verdicts for a block of prefix rows.

    The row-independent core of the vectorized sweep: every prefix row is
    classified from its own ``(day)`` columns only, so computing the matrix
    in row blocks (or shards) yields exactly the whole-matrix result --
    integer bit-ORs and counts, no floating point to reassociate.
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

    def windowed_responsive_branches(
        self, prefix: IPv6Prefix, day: int, window: int
    ) -> set[int]:
        """Fan-out branches responsive on any protocol within the window.

        ``window = 0`` uses only the given day; ``window = n`` additionally
        merges the n previous days.
        """
        branches: set[int] = set()
        for d in range(day - window, day + 1):
            result = self._daily.get(d)
            if result is None:
                continue
            outcome = result.outcomes.get(prefix)
            if outcome is not None:
                branches |= outcome.responsive_branches
        return branches

    def _expected_targets(self, prefix: IPv6Prefix, day: int, window: int) -> int:
        """Fan-out size a full alias response must reach for this prefix.

        Taken from the prefix's outcome on the queried day; when the prefix
        was not probed that day, from its most recent outcome within the
        window (so non-default fan-outs -- e.g. prefixes longer than /124
        with fewer than 16 targets -- are not misjudged against a hardcoded
        16), and only as a last resort from the shared APD fan-out constant.
        """
        for d in range(day, day - window - 1, -1):
            result = self._daily.get(d)
            if result is None:
                continue
            outcome = result.outcomes.get(prefix)
            if outcome is not None:
                return outcome.num_targets
        return FANOUT

    def windowed_is_aliased(self, prefix: IPv6Prefix, day: int, window: int) -> bool:
        """Aliased verdict for a prefix on a day under a window size."""
        expected = self._expected_targets(prefix, day, window)
        return len(self.windowed_responsive_branches(prefix, day, window)) >= expected

    def daily_verdicts(self, prefix: IPv6Prefix, window: int) -> list[bool]:
        """Per-day aliased verdicts for one prefix under a window size.

        Verdicts start once the window has filled (from the ``window``-th
        observed day onwards) so that short histories do not masquerade as
        instability.
        """
        verdict_days = [d for d in self._days if d - self._days[0] >= window]
        return [self.windowed_is_aliased(prefix, d, window) for d in verdict_days]

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
                for prefix, outcome in self._daily[day].outcomes.items():
                    i = index[prefix]
                    mask = 0
                    for branch in outcome.responsive_branches:
                        if branch >= 64:
                            raise ValueError(
                                f"branch {branch} of {prefix} exceeds the 64-bit "
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
        if cached is not None:
            return cached
        masks, expected, present = self._ensure_matrices()
        if self.policy.is_streaming and masks.shape[0]:
            verdicts = self._windowed_verdicts_streaming(
                masks, expected, present, window
            )
        else:
            verdicts = window_verdict_block(
                masks, expected, present, self._days, window
            )
        self._verdict_cache[window] = verdicts
        return verdicts

    def _windowed_verdicts_streaming(
        self,
        masks: np.ndarray,
        expected: np.ndarray,
        present: np.ndarray,
        window: int,
    ) -> np.ndarray:
        """Chunked/sharded sweep: :func:`window_verdict_block` over row spans.

        The block kernel is row-independent integer work, so any chunking or
        sharding reproduces the whole-matrix verdicts bit for bit; spans are
        merged back in fixed order.
        """
        days = self._days
        chunk_rows = self.policy.effective_chunk_rows or masks.shape[0]

        def run_span(span: tuple[int, int]) -> np.ndarray:
            s, e = span
            return window_verdict_block(
                masks[s:e], expected[s:e], present[s:e], days, window
            )

        if self.policy.workers > 1:
            spans = plan_worker_spans(masks.shape[0], self.policy.workers, chunk_rows)
            parts = map_shards(run_span, spans, self.policy.workers)
        else:
            parts = [
                run_span(span) for span in plan_chunk_spans(masks.shape[0], chunk_rows)
            ]
        return np.concatenate(parts)

    # -- Table 4 ------------------------------------------------------------------

    def window_stats(self, window: int) -> WindowStats:
        """Unstable-prefix count and final aliased count for one window size."""
        prefixes = self.prefixes()
        if self.policy.reference:
            unstable = sum(1 for p in prefixes if self.is_unstable(p, window))
            last_day = self._days[-1]
            aliased_final = sum(
                1 for p in prefixes if self.windowed_is_aliased(p, last_day, window)
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
