"""Comparisons between detection approaches and between sources.

Section 5.5 quantifies the advantage of multi-level APD over Murdock et al.'s
static /96 approach along two axes: how many hitlist addresses each approach
places inside aliased prefixes, and how many addresses each approach has to
probe.  This module computes that comparison plus generic overlap statistics
between address sets (used for rDNS and generated-address analyses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.core.apd import APDResult


@dataclass(frozen=True, slots=True)
class APDComparison:
    """Section 5.5 accounting: multi-level APD vs the /96 baseline."""

    hitlist_size: int
    apd_aliased_addresses: int
    murdock_aliased_addresses: int
    #: Addresses classified aliased by APD but missed by the baseline.
    only_apd: int
    #: Addresses classified aliased by the baseline but not by APD.
    only_murdock: int
    apd_addresses_probed: int
    murdock_addresses_probed: int
    apd_probes_sent: int
    murdock_probes_sent: int

    @property
    def probe_budget_ratio(self) -> float:
        """Murdock probed addresses / APD probed addresses (paper: > 2x)."""
        if not self.apd_addresses_probed:
            return 0.0
        return self.murdock_addresses_probed / self.apd_addresses_probed


def compare_apd_approaches(
    hitlist: Sequence[IPv6Address],
    apd_result: APDResult,
    murdock_result: APDResult,
) -> APDComparison:
    """Compute the Section 5.5 comparison for one hitlist (distinct addresses)."""
    addresses = AddressBatch.from_addresses(hitlist).unique()
    apd = apd_result.is_aliased_batch(addresses)
    murdock = murdock_result.is_aliased_batch(addresses)
    return APDComparison(
        hitlist_size=len(hitlist),
        apd_aliased_addresses=int(apd.sum()),
        murdock_aliased_addresses=int(murdock.sum()),
        only_apd=int((apd & ~murdock).sum()),
        only_murdock=int((murdock & ~apd).sum()),
        apd_addresses_probed=apd_result.addresses_probed,
        murdock_addresses_probed=murdock_result.addresses_probed,
        apd_probes_sent=apd_result.probes_sent,
        murdock_probes_sent=murdock_result.probes_sent,
    )


@dataclass(frozen=True, slots=True)
class OverlapStats:
    """Overlap between two address sets."""

    size_a: int
    size_b: int
    overlap: int
    new_in_b: int

    @property
    def jaccard(self) -> float:
        union = self.size_a + self.size_b - self.overlap
        return self.overlap / union if union else 0.0

    @property
    def share_new_in_b(self) -> float:
        return self.new_in_b / self.size_b if self.size_b else 0.0


def overlap_stats(set_a: Iterable[IPv6Address], set_b: Iterable[IPv6Address]) -> OverlapStats:
    """How much of B is new relative to A (e.g. rDNS vs the hitlist)."""
    a = {x.value for x in set_a}
    b = {x.value for x in set_b}
    overlap = len(a & b)
    return OverlapStats(size_a=len(a), size_b=len(b), overlap=overlap, new_in_b=len(b - a))
