"""Tests for the probing engines (ZMap-style scanner, traceroute, fingerprinting)."""

import random
from dataclasses import replace

import pytest

from repro.addr import IPv6Address
from repro.netmodel.config import InternetConfig
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, HostRole, Protocol
from repro.netmodel.topology import Topology
from repro.probing import FingerprintProbe, ScanScheduler, ZMapScanner

TRANSIT_PREFIX = Topology.TRANSIT_PREFIX


@pytest.fixture(scope="module")
def server_targets(tiny_internet):
    hosts = tiny_internet.hosts_by_role(HostRole.WEB_SERVER, HostRole.CDN_EDGE, HostRole.DNS_SERVER)
    return [h.primary_address for h in hosts[:300]]


class TestZMapScanner:
    def test_scan_finds_responsive_servers(self, tiny_internet, server_targets):
        scanner = ZMapScanner(tiny_internet, seed=1)
        result = scanner.scan(server_targets, Protocol.ICMP, day=0)
        assert result.targets == len(server_targets)
        assert 0.5 < result.response_rate <= 1.0

    def test_scan_result_replies_match_targets(self, tiny_internet, server_targets):
        scanner = ZMapScanner(tiny_internet, seed=1)
        result = scanner.scan(server_targets, Protocol.TCP80, day=0)
        assert result.responsive <= set(server_targets)
        assert len(result) == len(result.replies)

    def test_sweep_covers_all_protocols(self, tiny_internet, server_targets):
        scanner = ZMapScanner(tiny_internet, seed=2)
        sweep = scanner.sweep(server_targets[:100], day=0)
        assert set(sweep) == set(ALL_PROTOCOLS)

    def test_responsive_any_superset_of_each(self, tiny_internet, server_targets):
        scanner = ZMapScanner(tiny_internet, seed=2)
        sweep = scanner.sweep(server_targets[:100], day=0)
        any_resp = ZMapScanner.responsive_any(sweep)
        for protocol in ALL_PROTOCOLS:
            assert ZMapScanner.responsive_on(sweep, protocol) <= any_resp

    def test_empty_target_list(self, tiny_internet):
        scanner = ZMapScanner(tiny_internet, seed=1)
        result = scanner.scan([], Protocol.ICMP)
        assert result.targets == 0
        assert result.response_rate == 0.0


class TestRetriesDrawAfresh:
    """Loss is a keyed draw per probe attempt: one pass loses the loss share,
    and the second probe of a fingerprint pair draws its loss afresh, not
    repeated from attempt 0."""

    LOSS = 0.5

    @pytest.fixture(scope="class")
    def worlds(self):
        base = InternetConfig(
            seed=7,
            num_ases=40,
            base_hosts_per_allocation=8,
            max_hosts_per_allocation=120,
            icmp_rate_limited_share=0.0,
            stochastic_anomalies=False,
        )
        lossy = SimulatedInternet(replace(base, packet_loss=self.LOSS))
        clean = SimulatedInternet(replace(base, packet_loss=0.0))
        return lossy, clean, clean.all_bound_addresses()

    def test_one_pass_answers_the_unlost_share(self, worlds):
        lossy, clean, targets = worlds
        loss_free = ZMapScanner(clean).scan(targets, Protocol.ICMP, day=0).responsive
        got = ZMapScanner(lossy).scan(targets, Protocol.ICMP, day=0)
        assert got.responsive <= loss_free
        n = len(loss_free)
        share = 1 - self.LOSS
        tolerance = 4 * (n * share * (1 - share)) ** 0.5
        assert abs(len(got) - n * share) < tolerance, (len(got), n, share)

    def test_sweep_and_sweep_batch_agree_with_retries(self, worlds):
        lossy, _, targets = worlds
        scalar = ZMapScanner(lossy, seed=1).sweep(targets, day=1)
        batch = ZMapScanner(lossy, seed=1).sweep_batch(targets, day=1)
        for protocol in ALL_PROTOCOLS:
            assert {a.value for a in batch.responsive_on(protocol)} == {
                a.value for a in scalar[protocol].responsive
            }, protocol

    def test_fingerprint_pairs_draw_each_probe_afresh(self, worlds):
        lossy, clean, targets = worlds
        answering = [t for t in targets if clean.probe(t, Protocol.TCP80) is not None]
        records = FingerprintProbe(lossy, seed=3).probe_all(answering)
        replies = [len(record.replies) for record in records.values()]
        n = len(replies)
        singles = replies.count(1)
        # Each of the two probes survives independently with probability 1/2.
        assert singles > 0
        assert abs(singles - n / 2) < 4 * (n / 4) ** 0.5, (singles, n)


class TestTraceroute:
    """World properties of the scamper source's traceroutes."""

    def test_trace_all_accumulates_discovered(self, tiny_internet, server_targets):
        rng = random.Random(1)
        discovered = {
            hop.value
            for target in server_targets[:50]
            for hop in tiny_internet.traceroute(target, rng=rng)
        }
        assert len(discovered) > 5

    def test_reaches_destination_asn_for_servers(self, tiny_internet, server_targets):
        rng = random.Random(1)
        reached = 0
        for target in server_targets[:50]:
            hops = tiny_internet.traceroute(target, rng=rng)
            asn = tiny_internet.asn_of(target)
            if hops and asn is not None and tiny_internet.asn_of(hops[-1]) == asn:
                reached += 1
        assert reached > 20


class TestTracerouteEdgeCases:
    """Routed-topology traceroute behaviour at the edges.

    Filtering truncates paths at the region border, a saturated upstream
    sheds its TTL-exceeded replies mid-path, total loss yields a zero-hop
    answer, and BGP churn changes the observed path across days.
    """

    @staticmethod
    def _routed_config(**overrides):
        base = InternetConfig(
            num_ases=48,
            packet_loss=0.0,
            icmp_rate_limited_share=0.0,
            stochastic_anomalies=False,
            num_transit_ases=4,
            num_ixps=1,
            num_vantages=2,
        )
        return replace(base, **overrides)

    @staticmethod
    def _dest_rows(internet):
        """(address, dest row) for one bound address per announcement."""
        seen: dict[int, object] = {}
        for address in internet.all_bound_addresses():
            announcement = internet.bgp.lookup(address)
            if announcement is None or announcement.origin_asn in seen:
                continue
            seen[announcement.origin_asn] = address
        return [
            (address, internet.routing.row_of_asn(asn))
            for asn, address in seen.items()
        ]

    def test_unrouted_target_is_silent_in_routed_mode(self):
        internet = SimulatedInternet(self._routed_config())
        assert internet.traceroute(IPv6Address.parse("2a0e::1"), rng=random.Random(1)) == []

    def test_filtered_target_truncates_at_the_region_border(self):
        internet = SimulatedInternet(self._routed_config(filtered_region=2))
        routing = internet.routing
        cases = []
        for vantage in range(len(routing.vantage_asns)):
            view = routing.day_view(0, vantage)
            for address, row in self._dest_rows(internet):
                if row >= 0 and view.filtered[row]:
                    cases.append((vantage, address))
        assert cases, "expected at least one filtered destination"
        for vantage, address in cases[:5]:
            prefix = internet.bgp.lookup(address).prefix
            hops = internet.traceroute(address, rng=random.Random(7), vantage=vantage)
            # Everything past the border is blackholed: no hop may sit in the
            # destination's announced prefix, and the probe itself is silent.
            assert all(not prefix.contains(h) for h in hops)
            assert internet.probe(address, Protocol.ICMP, vantage=vantage) is None

    def test_zero_hop_answer_under_total_loss(self):
        # packet_loss 0.5 doubles to per-hop loss 1.0: the target may still
        # answer probes half the time, but every TTL-exceeded reply is lost.
        flat = SimulatedInternet(self._routed_config(num_transit_ases=0, packet_loss=0.5))
        routed = SimulatedInternet(self._routed_config(packet_loss=0.5))
        for internet in (flat, routed):
            for address in internet.all_bound_addresses()[:20]:
                assert internet.traceroute(address, rng=random.Random(1)) == []

    def test_rate_limited_upstream_sheds_mid_path_hops(self):
        # One transit carrying all routes at full rate-limit scale has a zero
        # token allowance: its routers answer nothing, while the destination
        # network's own hops still appear.
        limited = SimulatedInternet(
            self._routed_config(num_transit_ases=1, upstream_rate_limit=1.0)
        )
        open_net = SimulatedInternet(self._routed_config(num_transit_ases=1))
        allowances = limited.routing.transit_allowances(0)
        assert set(allowances.values()) == {0.0}
        saw_transit = False
        for address in limited.all_bound_addresses()[:200:10]:
            shed = limited.traceroute(address, rng=random.Random(3))
            full = open_net.traceroute(address, rng=random.Random(3))
            assert all(not TRANSIT_PREFIX.contains(h) for h in shed)
            assert shed  # the destination segment still responds
            saw_transit = saw_transit or any(TRANSIT_PREFIX.contains(h) for h in full)
        assert saw_transit  # without the limit the same transits do answer

    def test_path_changes_across_days_under_churn(self):
        internet = SimulatedInternet(self._routed_config(bgp_churn_rate=0.6))
        routing = internet.routing
        case = None
        for address, row in self._dest_rows(internet):
            if row < 0:
                continue
            primary = routing.as_path(row, 0)
            for day in range(1, 30):
                if routing.as_path(row, day) not in (primary, []):
                    case = (address, row, day)
                    break
            if case:
                break
        assert case, "expected churn to flip at least one destination"
        address, row, day = case
        assert routing.as_path(row, day) != routing.as_path(row, 0)
        day0 = internet.traceroute(address, day=0, rng=random.Random(5))
        flipped = internet.traceroute(address, day=day, rng=random.Random(5))
        assert day0 and flipped and day0 != flipped

    def test_engine_vantage_is_forwarded(self):
        internet = SimulatedInternet(self._routed_config(filtered_region=2))
        routing = internet.routing
        # Pick a destination visible from one vantage but filtered from the
        # other; the traceroute must honour the vantage it is given.
        pick = None
        views = [routing.day_view(0, v) for v in range(len(routing.vantage_asns))]
        for address, row in self._dest_rows(internet):
            if row < 0:
                continue
            flags = [bool(v.filtered[row]) for v in views]
            if len(set(flags)) == 2:
                pick = (address, flags.index(False), flags.index(True))
                break
        assert pick, "expected a vantage-dependent destination"
        address, clear, blocked = pick
        clear_hops = internet.traceroute(address, rng=random.Random(1), vantage=clear)
        blocked_hops = internet.traceroute(address, rng=random.Random(1), vantage=blocked)
        assert len(blocked_hops) < len(clear_hops)


class TestFingerprintProbe:
    def test_probe_returns_two_replies_for_responsive_host(self, tiny_internet):
        hosts = [
            h
            for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER, HostRole.CDN_EDGE)
            if Protocol.TCP80 in h.services
        ]
        probe = FingerprintProbe(tiny_internet, seed=1)
        record = None
        for host in hosts:
            record = probe.probe(host.primary_address)
            if len(record.replies) == 2:
                break
        assert record is not None and len(record.replies) == 2
        assert record.options_texts[0]
        assert record.mss_values and record.window_sizes and record.window_scales
        assert all(t in (32, 64, 128, 255) for t in record.ittls)

    def test_probe_unresponsive_address(self, tiny_internet):
        from repro.addr import IPv6Address

        probe = FingerprintProbe(tiny_internet, seed=1)
        record = probe.probe(IPv6Address.parse("2a0e::1"))
        assert not record.responded
        assert record.timestamps == []

    def test_probe_all(self, tiny_internet):
        hosts = tiny_internet.hosts_by_role(HostRole.WEB_SERVER)[:20]
        probe = FingerprintProbe(tiny_internet, seed=1)
        records = probe.probe_all([h.primary_address for h in hosts])
        assert len(records) == len(hosts)


class TestScheduler:
    def test_run_day(self, tiny_internet, server_targets):
        scheduler = ScanScheduler(tiny_internet, seed=4)
        result = scheduler.run_day(server_targets[:100], day=0)
        assert result.day == 0
        assert len(result.targets) == 100
        assert result.responsive_on()
        assert result.responsive_on(Protocol.ICMP) <= result.responsive_on()
