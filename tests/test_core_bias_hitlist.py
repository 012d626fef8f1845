"""Tests for bias metrics and the hitlist / daily hitlist service."""

from collections import Counter

import pytest

from repro.addr import IPv6Address
from repro.core.bias import (
    as_distribution,
    concentration_index,
    coverage_stats,
    gini_coefficient,
    group_counts,
    prefix_distribution,
    top_x_fractions,
)
from repro.core.hitlist import Hitlist, HitlistEntry, HitlistService
from repro.exec import ExecutionPolicy
from repro.netmodel.services import HostRole, Protocol
from repro.sources import assemble_all_sources


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


class TestHitlist:
    def test_add_merges_provenance(self):
        hitlist = Hitlist()
        addr = IPv6Address.parse("2001:db8::1")
        hitlist.add(addr, {"ct"}, first_seen_day=5)
        hitlist.add(addr, {"fdns"}, first_seen_day=2)
        assert len(hitlist) == 1
        entry = hitlist.entry(addr)
        assert entry.sources == {"ct", "fdns"}
        assert entry.first_seen_day == 2

    def test_from_entries(self):
        entries = [HitlistEntry(IPv6Address(1), {"a"}, 0), HitlistEntry(IPv6Address(2), {"b"}, 1)]
        hitlist = Hitlist(entries)
        assert len(hitlist) == 2
        assert IPv6Address(1) in hitlist

    def test_from_assembly_and_by_source(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2500, seed=7, runup_days=60)
        hitlist = Hitlist.from_assembly(assembly)
        assert len(hitlist) == len(assembly.snapshot())
        ct_addresses = hitlist.by_source("ct")
        assert ct_addresses
        assert all(hitlist.entry(a) is not None for a in ct_addresses[:10])

    def test_from_assembly_day_limit(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2500, seed=7, runup_days=60)
        early = Hitlist.from_assembly(assembly, day=10)
        late = Hitlist.from_assembly(assembly, day=59)
        assert len(early) < len(late)

    def test_coverage(self, small_internet):
        assembly = assemble_all_sources(small_internet, total_target=2000, seed=7, runup_days=60)
        hitlist = Hitlist.from_assembly(assembly)
        stats = hitlist.coverage(small_internet)
        assert stats.num_ases > 10
        assert stats.num_addresses == len(hitlist)


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
            max_day = max(
                e.first_seen_day for e in early.hitlist.entries
            ) if len(early.hitlist) else 0
            assert max_day <= 10

    def test_daily_pipeline_outputs(self, service_day):
        service, daily = service_day
        assert daily.input_addresses > 1000
        assert daily.scan_targets
        assert len(daily.scan_targets) < daily.input_addresses
        assert daily.aliased_prefixes
        assert daily.responsive_addresses

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
        truth_aliased = sum(small_internet.is_aliased_truth(a) for a in daily.scan_targets)
        # Single-day APD has known false negatives (ICMP rate limiting, aliasing
        # at sub-/64 levels below the 100-target threshold -- Section 5.2/5.4);
        # the bulk of the aliased population must still be gone.
        assert truth_aliased / len(daily.scan_targets) < 0.2

    def test_responsive_subset_of_targets(self, service_day):
        _, daily = service_day
        assert daily.responsive_addresses <= set(daily.scan_targets)
        assert daily.responsive_on(Protocol.ICMP) <= daily.responsive_addresses

    def test_history_and_responsive_over_time(self, service_day):
        service, daily = service_day
        assert 59 in service.history
        counts = service.responsive_over_time()
        assert counts[59] == len(daily.responsive_addresses)
        icmp_counts = service.responsive_over_time(Protocol.ICMP)
        assert icmp_counts[59] <= counts[59]
