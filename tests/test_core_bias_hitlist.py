"""Tests for bias metrics and the hitlist / daily hitlist service."""

from collections import Counter

import numpy as np
import pytest

from repro.addr import AddressBatch, IPv6Address
from repro.core.bias import (
    CoverageStats,
    as_distribution,
    concentration_index,
    coverage_stats,
    gini_coefficient,
    group_counts,
    prefix_distribution,
    top_x_fractions,
)
from repro.core.hitlist import Hitlist, HitlistService
from repro.exec import ExecutionPolicy
from repro.netmodel.services import HostRole, Protocol
from repro.sources import assemble_all_sources
from repro.sources.base import HitlistSource, SourceRecord


class ListedSource(HitlistSource):
    """A source whose records are given as ``(address value, day)`` pairs."""

    def __init__(self, name: str, listed: list[tuple[int, int]]):
        self.name = name
        self._records = sorted(
            (SourceRecord(IPv6Address(value), name, day) for value, day in listed),
            key=lambda r: (r.first_seen_day, r.address.value),
        )
        self._record_arrays = None

    def _draw_addresses(self, rng):  # pragma: no cover - records are given
        return []


class TestTopXFractions:
    def test_single_group(self):
        assert top_x_fractions(Counter({"a": 10})) == [1.0]

    def test_monotone_and_ends_at_one(self):
        counts = Counter({"a": 50, "b": 30, "c": 20})
        fractions = top_x_fractions(counts)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        assert fractions[0] == pytest.approx(0.5)

    def test_empty(self):
        assert top_x_fractions(Counter()) == []

    def test_concentration_index(self):
        counts = Counter({"a": 80, "b": 10, "c": 10})
        assert concentration_index(counts, 1) == pytest.approx(0.8)
        assert concentration_index(counts, 3) == pytest.approx(1.0)
        assert concentration_index(Counter(), 1) == 0.0

    def test_gini_extremes(self):
        assert gini_coefficient(Counter({"a": 10, "b": 10, "c": 10})) == pytest.approx(0.0, abs=1e-9)
        skewed = gini_coefficient(Counter({"a": 1000, "b": 1, "c": 1}))
        assert skewed > 0.6
        assert gini_coefficient(Counter()) == 0.0

    def test_group_counts_skips_unmapped(self):
        counts = group_counts([IPv6Address(1), IPv6Address(2)], lambda a: None)
        assert sum(counts.values()) == 0


class TestDistributionsOnSimulator:
    def test_as_distribution_of_servers(self, tiny_internet):
        addrs = tiny_internet.addresses_by_role(HostRole.WEB_SERVER)
        curve = as_distribution(addrs, tiny_internet)
        assert curve and curve[-1] == pytest.approx(1.0)
        assert curve == sorted(curve)

    def test_prefix_distribution_of_servers(self, tiny_internet):
        addrs = tiny_internet.addresses_by_role(HostRole.WEB_SERVER)
        curve = prefix_distribution(addrs, tiny_internet)
        assert curve and curve[-1] == pytest.approx(1.0)

    def test_coverage_stats(self, tiny_internet):
        addrs = tiny_internet.addresses_by_role(HostRole.WEB_SERVER, HostRole.DNS_SERVER)
        stats = coverage_stats(addrs, tiny_internet)
        assert stats.num_addresses == len(addrs)
        assert 0 < stats.num_ases <= stats.num_prefixes * 10
        assert 0 < stats.top_as_share <= 1.0
        assert 0 <= stats.as_gini <= 1.0

    @pytest.mark.parametrize("form", ["list", "batch", "empty"])
    def test_curves_equal_their_per_address_definitions(self, tiny_internet, form):
        """One LPM lookup per address set gives the per-address trie walk's
        curves and stats: unrouted addresses skipped, duplicates counted."""
        unrouted = [IPv6Address.parse("fc00::1"), IPv6Address.parse("3fff::2")]
        assert all(tiny_internet.asn_of(a) is None for a in unrouted)
        servers = tiny_internet.addresses_by_role(HostRole.WEB_SERVER, HostRole.DNS_SERVER)
        addresses = [] if form == "empty" else servers[:200] + unrouted + servers[:3]
        given = AddressBatch.from_addresses(addresses) if form == "batch" else addresses
        as_counts = group_counts(addresses, tiny_internet.asn_of)
        prefix_counts = group_counts(addresses, tiny_internet.bgp.covering_prefix)
        assert as_distribution(given, tiny_internet) == top_x_fractions(as_counts)
        assert prefix_distribution(given, tiny_internet) == top_x_fractions(prefix_counts)
        assert coverage_stats(given, tiny_internet) == CoverageStats(
            num_addresses=len(addresses),
            num_ases=len(as_counts),
            num_prefixes=len(prefix_counts),
            top_as_share=concentration_index(as_counts, 1),
            top_prefix_share=concentration_index(prefix_counts, 1),
            as_gini=gini_coefficient(as_counts),
            prefix_gini=gini_coefficient(prefix_counts),
        )


class TestHitlist:
    def test_add_merges_provenance(self):
        """One address reported by two sources is one row with both
        sources' bits and the earlier first-seen day."""
        value = IPv6Address.parse("2001:db8::1").value
        hitlist = Hitlist()
        hitlist.merge_records(
            [ListedSource("ct", [(value, 5)]), ListedSource("fdns", [(value, 2)])]
        )
        assert len(hitlist) == 1
        assert hitlist.provenance() == {value: (frozenset({"ct", "fdns"}), 2)}

    def test_from_assembly_and_by_source(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2500, seed=7, runup_days=60)
        hitlist = Hitlist.from_assembly(assembly)
        assert len(hitlist) == len(assembly.snapshot())
        ct_addresses = hitlist.by_source("ct")
        assert ct_addresses
        provenance = hitlist.provenance()
        assert all("ct" in provenance[a.value][0] for a in ct_addresses[:10])

    def test_from_assembly_day_limit(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2500, seed=7, runup_days=60)
        early = Hitlist.from_assembly(assembly, day=10)
        late = Hitlist.from_assembly(assembly, day=59)
        assert len(early) < len(late)

    def test_coverage(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2000, seed=7, runup_days=60)
        hitlist = Hitlist.from_assembly(assembly)
        stats = coverage_stats(hitlist.addresses, small_internet)
        assert stats.num_ases > 10
        assert stats.num_addresses == len(hitlist)

    def test_frozen_view_survives_later_merges(self):
        """The view shares the rows without copying, stays the same object
        until the next merge, keeps its rows after that merge (merges are
        copy-on-write) and refuses every mutation."""
        hitlist = Hitlist()
        known = ListedSource("a", [(1, 0), (2, 0), (3, 0)])
        hitlist.merge_records([known])
        view = hitlist.frozen()
        assert hitlist.frozen() is view and view.frozen() is view
        assert np.shares_memory(view.source_masks, hitlist.source_masks)
        before = view.provenance()
        # A known address reported by another source adds no row, but it is
        # a merge: the standing hitlist gets a new view and the old one keeps
        # the old provenance.
        hitlist.merge_records([ListedSource("b", [(2, 1)])])
        hitlist.merge_records([ListedSource("a", [(9, 1)])])
        assert hitlist.frozen() is not view
        assert view.provenance() == before
        assert hitlist.provenance()[2] == (frozenset({"a", "b"}), 0)
        with pytest.raises(ValueError, match="read-only"):
            view.merge_records([known])
        with pytest.raises(ValueError, match="read-only"):
            view.source_bit("c")
        assert view.provenance() == before

    def test_registering_a_source_drops_the_cached_view(self):
        """A merge whose only effect is a new source name (its window is
        empty) still changes what a view reports, so it gets a new view."""
        hitlist = Hitlist()
        hitlist.merge_records([ListedSource("a", [(1, 0)])], last_day=0)
        view = hitlist.frozen()
        hitlist.merge_records([ListedSource("b", [(2, 5)])], last_day=3)
        assert len(hitlist) == 1
        assert hitlist.frozen() is not view
        assert hitlist.frozen().source_names == hitlist.source_names == ["a", "b"]
        assert view.source_names == ["a"]


class TestHitlistService:
    @pytest.fixture(scope="class")
    def service_day(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2500, seed=13, runup_days=60)
        service = HitlistService(small_internet, assembly, seed=13)
        # Day 59 is the end of the run-up: every source record is in scope.
        daily = service.run_day(59)
        return service, daily

    def test_run_day_honours_day_cutoff(self, small_internet):
        """Regression: day *d* must not see records first observed later."""
        assembly = assemble_all_sources(small_internet, total_target=2500, seed=13, runup_days=60)
        for policy in (ExecutionPolicy(), ExecutionPolicy(reference=True)):
            service = HitlistService(small_internet, assembly, seed=13, policy=policy)
            early = service.run_day(10)
            full = len(Hitlist.from_assembly(assembly))
            assert early.input_addresses == len(Hitlist.from_assembly(assembly, day=10))
            assert early.input_addresses < full
            max_day = int(early.hitlist.first_seen_days.max()) if len(early.hitlist) else 0
            assert max_day <= 10

    def test_daily_pipeline_outputs(self, service_day):
        service, daily = service_day
        assert daily.input_addresses > 1000
        assert len(daily.scan_result.targets)
        assert len(daily.scan_result.targets) < daily.input_addresses
        assert daily.aliased_prefixes
        assert daily.scan_result.responsive_on()

    def test_aliased_share_about_half(self, service_day):
        _, daily = service_day
        # The paper removes ~47 % of input addresses; the simulated sources are
        # calibrated to a similar share -- accept a generous band.
        assert 0.2 < daily.aliased_share < 0.8

    def test_aliased_prefixes_are_truly_aliased(self, service_day, small_internet):
        _, daily = service_day
        for prefix in daily.aliased_prefixes[:50]:
            assert small_internet.is_aliased_truth(prefix.first + 1)

    def test_scan_targets_not_aliased(self, service_day, small_internet):
        _, daily = service_day
        targets = daily.scan_result.targets.to_addresses()
        truth_aliased = sum(small_internet.is_aliased_truth(a) for a in targets)
        # Single-day APD has known false negatives (ICMP rate limiting, aliasing
        # at sub-/64 levels below the 100-target threshold -- Section 5.2/5.4);
        # the bulk of the aliased population must still be gone.
        assert truth_aliased / len(targets) < 0.2

    def test_responsive_subset_of_targets(self, service_day):
        _, daily = service_day
        scan = daily.scan_result
        assert scan.responsive_on() <= set(scan.targets.to_addresses())
        assert scan.responsive_on(Protocol.ICMP) <= scan.responsive_on()

    def test_history_and_responsive_over_time(self, service_day):
        service, daily = service_day
        assert 59 in service.history
        counts = service.responsive_over_time()
        assert counts[59] == len(daily.scan_result.responsive_on())
        icmp_counts = service.responsive_over_time(Protocol.ICMP)
        assert icmp_counts[59] <= counts[59]
