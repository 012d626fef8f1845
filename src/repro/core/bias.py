"""Hitlist bias metrics: AS and prefix balance.

The paper judges hitlist quality not by address count but by balance over
ASes and announced prefixes (Figures 1b, 4, 9, 10): a source is biased when a
handful of ASes contribute most of its addresses.  This module provides the
top-X cumulative fraction curves used by those figures plus scalar
concentration summaries.

The per-prefix and per-AS counts behind them come from one flattened-LPM
lookup of the whole address set rather than a trie walk per address.  Every
summary here depends only on the multiset of counts, never on their order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.addr.prefix import IPv6Prefix
from repro.netmodel.bgp import BGPAnnouncement
from repro.netmodel.internet import SimulatedInternet


def group_counts(
    addresses: Iterable[IPv6Address],
    key: Callable[[IPv6Address], Hashable | None],
) -> Counter:
    """Count addresses per group (AS, prefix, ...), skipping unmapped ones."""
    counts: Counter = Counter()
    for address in addresses:
        group = key(address)
        if group is not None:
            counts[group] += 1
    return counts


def _announcement_counts(
    addresses: "Iterable[IPv6Address] | AddressBatch", internet: SimulatedInternet
) -> list[tuple[BGPAnnouncement, int]]:
    """Addresses per covering BGP announcement, unrouted ones skipped.

    One flattened-LPM lookup (shared with ``probe_batch``) for the whole
    address set instead of a trie walk per address; announcements come in
    table order.
    """
    batch = (
        addresses if isinstance(addresses, AddressBatch) else AddressBatch.from_addresses(addresses)
    )
    if not len(batch):
        return []
    flat = internet.bgp_lpm()
    indices = flat.lookup_indices(batch)
    covered, counts = np.unique(indices[indices >= 0], return_counts=True)
    return [(flat.objects[i], c) for i, c in zip(covered.tolist(), counts.tolist())]


def _origin_counts(by_announcement: list[tuple[BGPAnnouncement, int]]) -> Counter:
    """Addresses per origin AS, summed over its announcements."""
    counts: Counter = Counter()
    for ann, count in by_announcement:
        counts[ann.origin_asn] += count
    return counts


def bgp_prefix_counts(
    addresses: "Iterable[IPv6Address] | AddressBatch", internet: SimulatedInternet
) -> dict[IPv6Prefix, int]:
    """Addresses per covering announced prefix (zesplot colour values)."""
    return {ann.prefix: count for ann, count in _announcement_counts(addresses, internet)}


def top_x_fractions(counts: Counter) -> list[float]:
    """Cumulative fraction of addresses covered by the top-X groups.

    Element ``i`` (0-based) is the fraction of all addresses contributed by
    the ``i+1`` largest groups -- exactly the y-axis of the paper's
    "Fraction of addresses in top X ASes/prefixes" CDFs.
    """
    total = sum(counts.values())
    if total == 0:
        return []
    fractions: list[float] = []
    cumulative = 0
    for _, count in counts.most_common():
        cumulative += count
        fractions.append(cumulative / total)
    return fractions


def concentration_index(counts: Counter, top: int = 1) -> float:
    """Fraction of addresses in the *top* largest groups (e.g. top-AS share)."""
    fractions = top_x_fractions(counts)
    if not fractions:
        return 0.0
    return fractions[min(top, len(fractions)) - 1]


def gini_coefficient(counts: Counter) -> float:
    """Gini coefficient of the per-group address counts (0 = perfectly even)."""
    values = sorted(counts.values())
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return 0.0
    cumulative = 0.0
    weighted = 0.0
    for i, value in enumerate(values, start=1):
        cumulative += value
        weighted += cumulative
    # Standard formula: G = (n + 1 - 2 * sum(cum_i)/total) / n
    return float((n + 1 - 2 * weighted / total) / n)


@dataclass(frozen=True, slots=True)
class CoverageStats:
    """AS and prefix coverage of an address set."""

    num_addresses: int
    num_ases: int
    num_prefixes: int
    top_as_share: float
    top_prefix_share: float
    as_gini: float
    prefix_gini: float


def coverage_stats(
    addresses: "Sequence[IPv6Address] | AddressBatch", internet: SimulatedInternet
) -> CoverageStats:
    """AS/prefix coverage and concentration of an address set."""
    by_announcement = _announcement_counts(addresses, internet)
    as_counts = _origin_counts(by_announcement)
    prefix_counts = Counter({ann.prefix: count for ann, count in by_announcement})
    return CoverageStats(
        num_addresses=len(addresses),
        num_ases=len(as_counts),
        num_prefixes=len(prefix_counts),
        top_as_share=concentration_index(as_counts, 1),
        top_prefix_share=concentration_index(prefix_counts, 1),
        as_gini=gini_coefficient(as_counts),
        prefix_gini=gini_coefficient(prefix_counts),
    )


def as_distribution(
    addresses: "Iterable[IPv6Address] | AddressBatch", internet: SimulatedInternet
) -> list[float]:
    """Top-X AS fraction curve for an address set (Figure 1b / 4 / 9 / 10)."""
    return top_x_fractions(_origin_counts(_announcement_counts(addresses, internet)))


def prefix_distribution(
    addresses: "Iterable[IPv6Address] | AddressBatch", internet: SimulatedInternet
) -> list[float]:
    """Top-X announced-prefix fraction curve for an address set."""
    return top_x_fractions(Counter(bgp_prefix_counts(addresses, internet)))
