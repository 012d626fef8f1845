"""Longitudinal responsiveness analysis (Section 6.3, Figure 8; Section 9.3).

Figure 8 tracks, per source (and per protocol for the flaky QUIC cases), the
fraction of day-0-responsive addresses that still respond on each subsequent
day.  Section 9.3 reports uptime statistics of crowdsourced client addresses.

Retention is computed on the days' (target x protocol) scan matrices, which
both scan engines publish, so there is one code path for every campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, median
from typing import Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, find128
from repro.netmodel.services import Protocol
from repro.probing.scheduler import BatchDailyScanResult


@dataclass(slots=True)
class ResponsivenessTimeline:
    """Retention of day-0 responders over the campaign for one group."""

    group: str
    days: list[int]
    baseline_size: int
    retention: list[float] = field(default_factory=list)

    @property
    def final_retention(self) -> float:
        """Share of the baseline still responsive on the last day."""
        return self.retention[-1] if self.retention else 0.0

    @property
    def loss(self) -> float:
        """Share of the baseline lost by the last day."""
        return 1.0 - self.final_retention if self.retention else 0.0


def responsiveness_over_time(
    campaign: "Sequence[BatchDailyScanResult]",
    groups: "Mapping[str, Sequence[IPv6Address] | AddressBatch]",
    protocol: Protocol | None = None,
) -> list[ResponsivenessTimeline]:
    """Figure 8: per-group retention of day-0 responders over the campaign.

    ``groups`` maps a label (source name, optionally suffixed by protocol) to
    the addresses attributed to it.  The baseline for each group is the subset
    of its addresses responsive on the campaign's first day (on *protocol*,
    or on any protocol).

    Evaluated on the days' (target x protocol) matrices: baseline membership
    and per-day retention are binary searches over each day's target batch,
    with no address-set materialisation.  A day whose targets are not sorted
    (a custom campaign) is sorted first; the scan engines' own campaigns
    (the batch service, the experiment context) are sorted already.
    """
    if not campaign:
        raise ValueError("campaign must contain at least one daily result")
    days_sorted = [_sorted_day(result, protocol) for result in campaign]
    days = [result.day for result in campaign]
    first_targets, first_mask = days_sorted[0]
    timelines: list[ResponsivenessTimeline] = []
    for label, addresses in groups.items():
        batch = (
            addresses
            if isinstance(addresses, AddressBatch)
            else AddressBatch.from_addresses(addresses)
        ).unique()
        pos = find128(first_targets.hi, first_targets.lo, batch.hi, batch.lo)
        in_baseline = (pos >= 0) & first_mask[np.maximum(pos, 0)]
        baseline = batch.take(in_baseline)
        timeline = ResponsivenessTimeline(
            group=label, days=days, baseline_size=len(baseline)
        )
        for targets, mask in days_sorted:
            if not len(baseline):
                timeline.retention.append(0.0)
                continue
            pos = find128(targets.hi, targets.lo, baseline.hi, baseline.lo)
            responsive = (pos >= 0) & mask[np.maximum(pos, 0)]
            timeline.retention.append(float(responsive.sum()) / len(baseline))
        timelines.append(timeline)
    return timelines


def _sorted_day(
    result: BatchDailyScanResult, protocol: Protocol | None
) -> tuple[AddressBatch, np.ndarray]:
    """One day's targets in ascending order with their responsiveness mask."""
    targets = result.targets_batch
    mask = result.responsive_mask(protocol)
    if targets.is_sorted():
        return targets, mask
    order = targets.argsort()
    return targets.take(order), mask[order]


@dataclass(frozen=True, slots=True)
class UptimeStats:
    """Client uptime statistics (Section 9.3)."""

    count: int
    mean_hours: float
    median_hours: float
    share_under_one_hour: float
    share_under_eight_hours: float
    share_full_month: float


def uptime_statistics(uptime_hours: Sequence[float], month_hours: float = 24.0 * 30) -> UptimeStats:
    """Summarise responsive-client uptimes as the paper does."""
    if not uptime_hours:
        return UptimeStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(uptime_hours)
    return UptimeStats(
        count=count,
        mean_hours=float(mean(uptime_hours)),
        median_hours=float(median(uptime_hours)),
        share_under_one_hour=sum(1 for h in uptime_hours if h < 1.0) / count,
        share_under_eight_hours=sum(1 for h in uptime_hours if h <= 8.0) / count,
        share_full_month=sum(1 for h in uptime_hours if h >= month_hours) / count,
    )
