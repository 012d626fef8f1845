"""Tests for cross-protocol, longitudinal and comparison analyses."""

import pytest

from repro.addr import IPv6Address
from repro.addr.batch import AddressBatch
from repro.analysis import (
    compare_apd_approaches,
    conditional_probability_matrix,
    overlap_stats,
    protocol_counts,
    responsiveness_over_time,
    uptime_statistics,
)
from repro.analysis.crossproto import icmp_given_any
from repro.netmodel.services import ALL_PROTOCOLS, HostRole, Protocol
from repro.probing import ScanScheduler, ZMapScanner


def _addr(i):
    return IPv6Address(0x20010DB8 << 96 | i)


class TestConditionalMatrix:
    def test_synthetic_sets(self):
        sweep = {
            Protocol.ICMP: {_addr(1), _addr(2), _addr(3)},
            Protocol.TCP80: {_addr(1), _addr(2)},
            Protocol.TCP443: {_addr(1)},
            Protocol.UDP53: set(),
            Protocol.UDP443: {_addr(1)},
        }
        matrix = conditional_probability_matrix(sweep)
        assert matrix[Protocol.ICMP][Protocol.TCP80] == pytest.approx(1.0)
        assert matrix[Protocol.TCP80][Protocol.ICMP] == pytest.approx(2 / 3)
        assert matrix[Protocol.TCP443][Protocol.UDP443] == pytest.approx(1.0)
        # Empty column -> zero probabilities.
        assert matrix[Protocol.ICMP][Protocol.UDP53] == 0.0

    def test_diagonal_is_one_when_nonempty(self):
        sweep = {p: {_addr(1)} for p in ALL_PROTOCOLS}
        matrix = conditional_probability_matrix(sweep)
        for p in ALL_PROTOCOLS:
            assert matrix[p][p] == pytest.approx(1.0)

    def test_protocol_counts(self):
        sweep = {Protocol.ICMP: {_addr(1), _addr(2)}, Protocol.TCP80: {_addr(1)}}
        counts = protocol_counts(sweep)
        assert counts[Protocol.ICMP] == 2
        assert counts[Protocol.TCP80] == 1

    def test_icmp_given_any_synthetic(self):
        sweep = {
            Protocol.ICMP: {_addr(1), _addr(2)},
            Protocol.TCP80: {_addr(1), _addr(3)},
        }
        assert icmp_given_any(sweep) == pytest.approx(2 / 3)
        assert icmp_given_any({Protocol.ICMP: set()}) == 0.0

    def test_on_simulated_sweep_icmp_dominates(self, tiny_internet):
        targets = [
            h.primary_address
            for h in tiny_internet.hosts_by_role(
                HostRole.WEB_SERVER, HostRole.CDN_EDGE, HostRole.DNS_SERVER
            )
        ][:400]
        sweep = ZMapScanner(tiny_internet, seed=5).sweep(targets, ALL_PROTOCOLS, day=0)
        matrix = conditional_probability_matrix(sweep)
        # Figure 7 shape: whoever answers TCP/80 almost always answers ICMP ...
        assert matrix[Protocol.ICMP][Protocol.TCP80] > 0.85
        # ... and QUIC responders almost always serve HTTPS.
        if protocol_counts(sweep)[Protocol.UDP443] > 5:
            assert matrix[Protocol.TCP443][Protocol.UDP443] > 0.85
        assert icmp_given_any(sweep) > 0.8


class TestLongitudinal:
    def test_requires_campaign(self):
        with pytest.raises(ValueError):
            responsiveness_over_time([], {})

    def test_retention_on_simulator(self, tiny_internet):
        servers = [h.primary_address for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER)][:150]
        clients = [h.primary_address for h in tiny_internet.hosts_by_role(HostRole.CPE)][:150]
        scheduler = ScanScheduler(tiny_internet, protocols=(Protocol.ICMP,), seed=6)
        campaign = [scheduler.run_day(servers + clients, day) for day in range(0, 8)]
        timelines = responsiveness_over_time(
            campaign, {"servers": servers, "clients": clients}, protocol=Protocol.ICMP
        )
        by_group = {t.group: t for t in timelines}
        assert by_group["servers"].retention[0] == pytest.approx(1.0)
        assert by_group["clients"].retention[0] == pytest.approx(1.0)
        # Servers stay responsive; CPE devices lose a larger share (Figure 8).
        assert by_group["servers"].final_retention > by_group["clients"].final_retention
        assert by_group["servers"].loss < 0.15

    def test_retention_equals_its_set_definition_on_both_engines(self, tiny_internet):
        """Figure 8 over unsorted days equals retention computed from each
        day's responsive sets, on the scalar and the batch scan engine."""
        hosts = tiny_internet.hosts_by_role
        servers = [h.primary_address for h in hosts(HostRole.WEB_SERVER)][:150]
        clients = [h.primary_address for h in hosts(HostRole.CPE)][:150]
        targets = servers + clients
        # Every third target: a group the sort permutes against the rest.
        groups = {"servers": servers, "clients": clients, "every third": targets[::3]}
        protocols = (Protocol.ICMP, Protocol.TCP80)
        scheduler = ScanScheduler(tiny_internet, protocols=protocols, seed=6)
        days = range(0, 6)
        campaigns = {
            "reference": [scheduler.run_day(targets, day) for day in days],
            "batch": [
                scheduler.run_day_batch(AddressBatch.from_addresses(targets), day) for day in days
            ],
        }
        timelines = {}
        for engine, campaign in campaigns.items():
            assert not campaign[0].targets.is_sorted(), engine
            for protocol in (None, Protocol.ICMP):

                first = campaign[0].responsive_on(protocol)
                got = responsiveness_over_time(campaign, groups, protocol=protocol)
                for timeline in got:
                    baseline = set(groups[timeline.group]) & first
                    assert baseline, (engine, protocol, timeline.group)
                    assert timeline.baseline_size == len(baseline)
                    assert timeline.retention == [
                        len(baseline & result.responsive_on(protocol)) / len(baseline)
                        for result in campaign
                    ], (engine, protocol, timeline.group)
                timelines[engine, protocol] = [(t.group, t.retention) for t in got]
        for protocol in (None, Protocol.ICMP):
            assert timelines["reference", protocol] == timelines["batch", protocol]

    def test_empty_baseline_group(self, tiny_internet):
        servers = [h.primary_address for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER)][:50]
        scheduler = ScanScheduler(tiny_internet, protocols=(Protocol.ICMP,), seed=6)
        campaign = [scheduler.run_day(servers, day) for day in range(2)]
        timelines = responsiveness_over_time(campaign, {"empty": [IPv6Address(1)]})
        assert timelines[0].baseline_size == 0
        assert timelines[0].retention == [0.0, 0.0]

    def test_uptime_statistics(self):
        stats = uptime_statistics([0.5, 2.0, 10.0, 24.0 * 30])
        assert stats.count == 4
        assert stats.share_under_one_hour == pytest.approx(0.25)
        assert stats.share_under_eight_hours == pytest.approx(0.5)
        assert stats.share_full_month == pytest.approx(0.25)
        assert stats.mean_hours > stats.median_hours

    def test_uptime_statistics_empty(self):
        stats = uptime_statistics([])
        assert stats.count == 0
        assert stats.mean_hours == 0.0


class TestComparisons:
    def test_overlap_stats(self):
        a = [_addr(i) for i in range(10)]
        b = [_addr(i) for i in range(5, 20)]
        stats = overlap_stats(a, b)
        assert stats.size_a == 10 and stats.size_b == 15
        assert stats.overlap == 5
        assert stats.new_in_b == 10
        assert 0 < stats.jaccard < 1
        assert stats.share_new_in_b == pytest.approx(10 / 15)

    def test_overlap_stats_empty(self):
        stats = overlap_stats([], [])
        assert stats.jaccard == 0.0
        assert stats.share_new_in_b == 0.0

    def test_compare_apd_approaches(self, tiny_internet):
        import random

        from repro.addr import IPv6Prefix
        from repro.addr.generate import random_addresses_in_prefix
        from repro.core.apd import AliasedPrefixDetector
        from repro.core.apd_murdock import MurdockDetector

        region = next(
            r
            for r in tiny_internet.aliased_regions
            if not r.syn_proxy and r.icmp_rate_limit is None and r.prefix.length <= 64
        )
        rng = random.Random(1)
        servers = [h.primary_address for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER)][:100]
        # Spread aliased addresses over a /64: multi-level APD catches them via
        # the /64 aggregation, the static /96 baseline only sees sparse /96s.
        aliased_sample = random_addresses_in_prefix(
            IPv6Prefix.of(region.prefix.network, 64), 120, rng
        )
        hitlist = servers + aliased_sample
        apd_result = AliasedPrefixDetector(tiny_internet, seed=2).run(hitlist)
        murdock_result = MurdockDetector(tiny_internet, seed=2).run(hitlist)
        comparison = compare_apd_approaches(hitlist, apd_result, murdock_result)
        assert comparison.hitlist_size == len(hitlist)
        assert comparison.apd_aliased_addresses >= 100
        assert comparison.only_apd >= 0
        assert comparison.apd_addresses_probed > 0
        assert comparison.murdock_addresses_probed > 0
        assert comparison.probe_budget_ratio > 0
