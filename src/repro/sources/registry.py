"""Assembling all daily-scanned sources into one hitlist input.

Mirrors Table 2 of the paper: each source contributes addresses, overlapping
addresses are attributed to the source that saw them first (the "new IPs"
column), and per-source AS/prefix coverage statistics are computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.netmodel.internet import SimulatedInternet
from repro.sources.axfr import AXFRSource
from repro.sources.base import HitlistSource
from repro.sources.bitnodes import BitnodesSource
from repro.sources.ctlogs import CTLogsSource
from repro.sources.domainlists import DomainListsSource
from repro.sources.fdns import FDNSSource
from repro.sources.ripeatlas import RIPEAtlasSource
from repro.sources.scamper_source import ScamperSource

#: Relative size of each daily source, matching the paper's Table 2 "new IPs"
#: proportions (domain lists 9.8 M, FDNS 2.5 M, CT 16.2 M, AXFR 0.5 M,
#: Bitnodes 27 k, RIPE Atlas 0.2 M, scamper 25.9 M of a 55.1 M total).
SOURCE_SHARES: dict[str, float] = {
    "domainlists": 0.178,
    "fdns": 0.045,
    "ct": 0.294,
    "axfr": 0.009,
    "bitnodes": 0.002,
    "ripeatlas": 0.004,
    "scamper": 0.468,
}


@dataclass(slots=True)
class SourceStats:
    """Per-source statistics for the Table 2 reproduction."""

    name: str
    nature: str
    public: bool
    total_ips: int
    new_ips: int
    num_ases: int
    num_prefixes: int
    top_as_shares: list[tuple[str, float]] = field(default_factory=list)


@dataclass(slots=True)
class SourceAssembly:
    """All sources plus the merged hitlist input."""

    internet: SimulatedInternet
    sources: list[HitlistSource]

    def snapshot(self, day: int | None = None) -> list[IPv6Address]:
        """Union of all sources' addresses up to *day*, first-seen order."""
        seen: set[int] = set()
        merged: list[IPv6Address] = []
        for source in self.sources:
            for addr in source.snapshot(day):
                if addr.value not in seen:
                    seen.add(addr.value)
                    merged.append(addr)
        return merged

    def records_by_source(self, day: int | None = None) -> Mapping[str, list[IPv6Address]]:
        """Per-source snapshot addresses."""
        return {s.name: list(s.snapshot(day)) for s in self.sources}

    def _bgp_coverage(self, addresses: Sequence[IPv6Address]) -> tuple[dict[int, int], set]:
        """Addresses per origin AS and the set of covering announced prefixes.

        One flattened-LPM batch lookup (shared with ``probe_batch``) for the
        whole address list instead of a per-address trie lookup.
        """
        asns: dict[int, int] = {}
        prefixes: set = set()
        if not addresses:
            return asns, prefixes
        flat = self.internet.bgp_lpm()
        indices = flat.lookup_indices(AddressBatch.from_addresses(addresses))
        covered = indices[indices >= 0]
        unique, counts = np.unique(covered, return_counts=True)
        for index, count in zip(unique.tolist(), counts.tolist()):
            announcement = flat.objects[index]
            asns[announcement.origin_asn] = asns.get(announcement.origin_asn, 0) + count
            prefixes.add(announcement.prefix)
        return asns, prefixes

    def source_stats(self, day: int | None = None, top_n: int = 3) -> list[SourceStats]:
        """Compute the Table 2 rows: total/new IPs, AS and prefix coverage."""
        stats: list[SourceStats] = []
        seen: set[int] = set()
        for source in self.sources:
            snapshot = source.snapshot(day)
            addresses = list(snapshot)
            new = [a for a in addresses if a.value not in seen]
            seen.update(a.value for a in addresses)
            asns, prefixes = self._bgp_coverage(addresses)
            top = sorted(asns.items(), key=lambda kv: kv[1], reverse=True)[:top_n]
            total_with_asn = sum(asns.values()) or 1
            top_shares = [
                (self.internet.registry.name_of(asn), count / total_with_asn)
                for asn, count in top
            ]
            stats.append(
                SourceStats(
                    name=source.name,
                    nature=source.nature,
                    public=source.public,
                    total_ips=len(addresses),
                    new_ips=len(new),
                    num_ases=len(asns),
                    num_prefixes=len(prefixes),
                    top_as_shares=top_shares,
                )
            )
        return stats

    def cumulative_runup(self, days: Sequence[int]) -> Mapping[str, list[int]]:
        """Per-source cumulative address counts over time (Figure 1a)."""
        return {s.name: s.cumulative_counts(days) for s in self.sources}

    def total_stats(self, day: int | None = None) -> SourceStats:
        """The Table 2 "Total" row."""
        merged = self.snapshot(day)
        asns, prefixes = self._bgp_coverage(merged)
        top = sorted(asns.items(), key=lambda kv: kv[1], reverse=True)[:3]
        total_with_asn = sum(asns.values()) or 1
        return SourceStats(
            name="total",
            nature="Mixed",
            public=True,
            total_ips=len(merged),
            new_ips=len(merged),
            num_ases=len(asns),
            num_prefixes=len(prefixes),
            top_as_shares=[
                (self.internet.registry.name_of(asn), count / total_with_asn)
                for asn, count in top
            ],
        )


def assemble_all_sources(
    internet: SimulatedInternet,
    total_target: int = 40_000,
    seed: int = 99,
    runup_days: int = 180,
) -> SourceAssembly:
    """Build every daily-scanned source at the configured relative sizes.

    ``total_target`` is the approximate size of the merged hitlist input;
    each source receives its Table 2 share of it.  The scamper source
    traceroutes a sample of the other sources' targets, as in the paper.
    """
    rng = random.Random(seed)
    sizes = {name: max(10, int(total_target * share)) for name, share in SOURCE_SHARES.items()}
    domainlists = DomainListsSource(internet, sizes["domainlists"], rng.getrandbits(32), runup_days)
    fdns = FDNSSource(internet, sizes["fdns"], rng.getrandbits(32), runup_days)
    ct = CTLogsSource(internet, sizes["ct"], rng.getrandbits(32), runup_days)
    axfr = AXFRSource(internet, sizes["axfr"], rng.getrandbits(32), runup_days)
    bitnodes = BitnodesSource(internet, sizes["bitnodes"], rng.getrandbits(32), runup_days)
    ripeatlas = RIPEAtlasSource(internet, sizes["ripeatlas"], rng.getrandbits(32), runup_days)
    dns_targets = domainlists.snapshot().addresses + ct.snapshot().addresses
    sample_size = min(len(dns_targets), max(50, sizes["scamper"] // 10))
    scamper = ScamperSource(
        internet,
        sizes["scamper"],
        rng.getrandbits(32),
        runup_days,
        traceroute_targets=rng.sample(dns_targets, sample_size) if dns_targets else [],
    )
    return SourceAssembly(
        internet=internet,
        sources=[domainlists, fdns, ct, axfr, bitnodes, ripeatlas, scamper],
    )
