"""Tests for fingerprint consistency checks (Section 5.4, Tables 5-6)."""

import random

import pytest

from repro.addr import IPv6Address, IPv6Prefix
from repro.addr.generate import fanout_targets
from repro.core.consistency import ConsistencyChecker, ConsistencyReport, TEST_ORDER
from repro.netmodel.packets import ProbeReply
from repro.netmodel.services import Protocol
from repro.probing.fingerprint import FingerprintProbe, FingerprintRecord


def _reply(addr, *, ttl=59, options="MSS-SACK-TS-N-WS", mss=1440, wsize=28800, wscale=7, ts=None, t=0.0):
    return ProbeReply(
        address=addr,
        protocol=Protocol.TCP80,
        ttl=ttl,
        options_text=options,
        mss=mss,
        window_size=wsize,
        window_scale=wscale,
        tcp_timestamp=ts,
        receive_time=t,
    )


def _record(addr_int, replies):
    return FingerprintRecord(address=IPv6Address(addr_int), replies=replies)


PREFIX = IPv6Prefix.parse("2001:db8::/64")


class TestIndividualTests:
    def test_fully_consistent_same_timestamp(self):
        records = [
            _record(i, [_reply(IPv6Address(i), ts=12345, t=1.0), _reply(IPv6Address(i), ts=12345, t=1.5)])
            for i in range(16)
        ]
        checker = ConsistencyChecker()
        result = checker.evaluate_prefix(PREFIX, records)
        assert not result.is_inconsistent
        assert result.timestamp_consistent is True
        assert result.is_consistent

    def test_differing_ittl_flagged(self):
        records = [_record(0, [_reply(IPv6Address(0), ttl=59)]), _record(1, [_reply(IPv6Address(1), ttl=250)])]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.inconsistent_tests["ittl"]
        assert result.is_inconsistent
        assert not result.is_consistent

    def test_same_ittl_class_not_flagged(self):
        # 50 and 60 both round up to an initial TTL of 64.
        records = [_record(0, [_reply(IPv6Address(0), ttl=50)]), _record(1, [_reply(IPv6Address(1), ttl=60)])]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert not result.inconsistent_tests["ittl"]

    def test_differing_options_flagged(self):
        records = [
            _record(0, [_reply(IPv6Address(0), options="MSS-SACK-TS-N-WS")]),
            _record(1, [_reply(IPv6Address(1), options="MSS")]),
        ]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.inconsistent_tests["optionstext"]

    def test_differing_mss_wsize_wscale_flagged(self):
        records = [
            _record(0, [_reply(IPv6Address(0), mss=1440, wsize=28800, wscale=7)]),
            _record(1, [_reply(IPv6Address(1), mss=1220, wsize=64800, wscale=9)]),
        ]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.inconsistent_tests["mss"]
        assert result.inconsistent_tests["wsize"]
        assert result.inconsistent_tests["wscale"]

    def test_monotonic_timestamps_consistent(self):
        records = [
            _record(i, [_reply(IPv6Address(i), ts=1000 + 10 * i, t=float(i))]) for i in range(16)
        ]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.timestamp_consistent is True

    def test_linear_counter_with_jitter_consistent(self):
        rng = random.Random(0)
        records = []
        for i in range(16):
            t = float(i)
            ts = int(1000 * t + rng.uniform(-20, 20))
            records.append(_record(i, [_reply(IPv6Address(i), ts=ts, t=t)]))
        # Shuffle so plain monotonicity in probe order fails but R^2 passes.
        rng.shuffle(records)
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.timestamp_consistent is True

    def test_random_timestamps_indecisive(self):
        rng = random.Random(1)
        records = [
            _record(i, [_reply(IPv6Address(i), ts=rng.randrange(2**31), t=float(i))])
            for i in range(16)
        ]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.timestamp_consistent is False
        assert result.is_indecisive
        assert not result.is_consistent

    def test_no_timestamps_is_indecisive(self):
        records = [_record(i, [_reply(IPv6Address(i), ts=None)]) for i in range(16)]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.timestamp_consistent is None
        assert result.is_indecisive

    def test_unresponsive_records_ignored(self):
        records = [_record(0, []), _record(1, [_reply(IPv6Address(1))])]
        result = ConsistencyChecker().evaluate_prefix(PREFIX, records)
        assert result.responding_addresses == 1
        assert not result.is_inconsistent


class TestReportAggregation:
    def _mixed_report(self):
        checker = ConsistencyChecker()
        prefixes = {}
        # Prefix A: fully consistent with same timestamps.
        prefixes[IPv6Prefix.parse("2001:db8:a::/64")] = [
            _record(i, [_reply(IPv6Address(i), ts=5, t=1.0)]) for i in range(16)
        ]
        # Prefix B: inconsistent iTTL.
        prefixes[IPv6Prefix.parse("2001:db8:b::/64")] = [
            _record(0, [_reply(IPv6Address(0), ttl=60)]),
            _record(1, [_reply(IPv6Address(1), ttl=250)]),
        ]
        # Prefix C: consistent fields, random timestamps -> indecisive.
        rng = random.Random(2)
        prefixes[IPv6Prefix.parse("2001:db8:c::/64")] = [
            _record(i, [_reply(IPv6Address(i), ts=rng.randrange(2**31), t=float(i))])
            for i in range(16)
        ]
        return checker.evaluate_many(prefixes)

    def test_counts(self):
        report = self._mixed_report()
        assert len(report) == 3
        per_test = report.inconsistent_per_test()
        assert per_test["ittl"] == 1
        assert per_test["mss"] == 0

    def test_cumulative_monotone(self):
        report = self._mixed_report()
        cumulative = report.cumulative_inconsistent()
        values = [cumulative[t] for t in TEST_ORDER]
        assert values == sorted(values)
        consistent = report.consistent_after_each_test()
        assert consistent[TEST_ORDER[-1]] == len(report) - values[-1]

    def test_shares_sum_to_one(self):
        report = self._mixed_report()
        shares = report.shares()
        assert shares["inconsistent"] + shares["consistent"] + shares["indecisive"] == pytest.approx(1.0)
        assert report.timestamp_consistent_count() == 1

    def test_empty_report(self):
        report = ConsistencyReport()
        assert report.shares()["consistent"] == 0.0
        assert report.inconsistent_per_test()["ittl"] == 0


class TestEndToEndWithSimulator:
    def test_aliased_prefixes_more_consistent_than_non_aliased(self, tiny_internet):
        """Reproduce the Table 6 contrast on the simulated Internet."""
        probe = FingerprintProbe(tiny_internet, seed=4)
        checker = ConsistencyChecker()

        aliased_records = {}
        for region in tiny_internet.aliased_regions[:25]:
            if region.syn_proxy or Protocol.TCP80 not in region.host.services:
                continue
            prefix = IPv6Prefix.of(region.prefix.network, max(64, region.prefix.length))
            targets = fanout_targets(prefix, seed=4)
            aliased_records[prefix] = [probe.probe(t) for t in targets]

        from repro.netmodel.services import HostRole

        non_aliased_records = {}
        web_hosts = [
            h
            for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER)
            if Protocol.TCP80 in h.services and not tiny_internet.is_aliased_truth(h.primary_address)
        ]
        for host in web_hosts[:25]:
            prefix = IPv6Prefix.of(host.primary_address, 64)
            # Probe the host's real addresses (what "responding addresses in a
            # non-aliased /64" looks like), not random fan-out targets.
            non_aliased_records[prefix] = [probe.probe(a) for a in host.addresses]

        aliased_report = checker.evaluate_many(aliased_records)
        non_aliased_report = checker.evaluate_many(non_aliased_records)
        # Aliased prefixes: everything answered by one machine, so very few
        # inconsistencies; a large share passes the timestamp test.
        assert aliased_report.shares()["inconsistent"] < 0.2
        # A sizable share passes the high-confidence timestamp test (the exact
        # value depends on the modern-Linux share; the paper reports 63.8 %).
        assert aliased_report.shares()["consistent"] > 0.2
        # The single-host records of non-aliased prefixes are trivially
        # self-consistent too, so just check both reports are non-empty and
        # the aliased one is at least as consistent.
        assert len(non_aliased_report) > 0
        assert (
            aliased_report.shares()["inconsistent"]
            <= non_aliased_report.shares()["inconsistent"] + 0.2
        )
