"""Tests for the simulated Internet substrate."""

import dataclasses
import random

import numpy as np
import pytest

from repro import scenarios
from repro.addr import IPv6Prefix
from repro.addr.batch import AddressBatch
from repro.addr.generate import random_address_in_prefix
from repro.events import NetworkDynamics
from repro.netmodel import Protocol, SimulatedInternet
from repro.netmodel.asregistry import ASCategory, ASRegistry
from repro.netmodel.bgp import BGPAnnouncement, BGPTable
from repro.netmodel.host import StabilityModel
from repro.netmodel.packets import ProbeReply, initial_ttl
from repro.netmodel.services import ALL_PROTOCOLS, HostRole


class TestASRegistry:
    def test_build_has_requested_size(self):
        registry = ASRegistry.build(100, random.Random(0))
        assert len(registry) == 100

    def test_notable_operators_present(self):
        registry = ASRegistry.build(60, random.Random(0))
        names = {d.name for d in registry}
        assert "Amazon" in names and "Cloudflare" in names

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            ASRegistry.build(5, random.Random(0))

    def test_lookup_by_number(self):
        registry = ASRegistry.build(60, random.Random(0))
        descriptor = registry.descriptors[0]
        assert registry.get(descriptor.asn.number) is descriptor
        assert registry.get(1) is None
        assert registry.name_of(1) == "AS1"

    def test_by_category(self):
        registry = ASRegistry.build(120, random.Random(0))
        eyeballs = registry.by_category(ASCategory.EYEBALL_ISP)
        assert eyeballs
        assert all(d.category is ASCategory.EYEBALL_ISP for d in eyeballs)

    def test_heavy_tail(self):
        registry = ASRegistry.build(200, random.Random(0))
        weights = sorted((d.weight for d in registry), reverse=True)
        assert weights[0] > 10 * weights[100]


class TestBGPTable:
    def test_add_and_lookup(self):
        table = BGPTable()
        table.add(BGPAnnouncement(IPv6Prefix.parse("2001:db8::/32"), 64500))
        assert table.origin_asn("2001:db8::1") == 64500
        assert table.origin_asn("2002::1") is None
        assert len(table) == 1

    def test_most_specific_announcement_wins(self):
        table = BGPTable(
            [
                BGPAnnouncement(IPv6Prefix.parse("2001:db8::/32"), 1),
                BGPAnnouncement(IPv6Prefix.parse("2001:db8:1::/48"), 2),
            ]
        )
        assert table.origin_asn("2001:db8:1::1") == 2
        assert table.origin_asn("2001:db8:2::1") == 1

    def test_replace_announcement(self):
        table = BGPTable()
        prefix = IPv6Prefix.parse("2001:db8::/32")
        table.add(BGPAnnouncement(prefix, 1))
        table.add(BGPAnnouncement(prefix, 2))
        assert len(table) == 1
        assert table.origin_asn("2001:db8::1") == 2

    def test_announcements_by_asn(self):
        table = BGPTable(
            [
                BGPAnnouncement(IPv6Prefix.parse("2001:db8::/32"), 1),
                BGPAnnouncement(IPv6Prefix.parse("2001:db9::/32"), 1),
                BGPAnnouncement(IPv6Prefix.parse("2001:dba::/32"), 2),
            ]
        )
        assert len(table.announcements_by_asn(1)) == 2


class TestStability:
    def test_always_on_server(self):
        s = StabilityModel(daily_uptime=1.0)
        assert all(s.is_online(d) for d in range(100))

    def test_lifetime_bounds(self):
        s = StabilityModel(birth_day=5, death_day=10, daily_uptime=1.0)
        assert not s.is_online(4)
        assert s.is_online(5)
        assert s.is_online(9)
        assert not s.is_online(10)

    def test_partial_uptime_is_deterministic(self):
        s = StabilityModel(daily_uptime=0.5, flap_seed=99)
        days = [s.is_online(d) for d in range(50)]
        assert days == [s.is_online(d) for d in range(50)]
        assert 5 < sum(days) < 45


class TestInitialTTL:
    @pytest.mark.parametrize(
        "observed,expected",
        [(0, 32), (30, 32), (32, 32), (33, 64), (55, 64), (64, 64), (100, 128), (200, 255), (255, 255)],
    )
    def test_rounding(self, observed, expected):
        assert initial_ttl(observed) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            initial_ttl(-1)
        with pytest.raises(ValueError):
            initial_ttl(256)


class TestSimulatedInternetBuild:
    def test_has_hosts_and_prefixes(self, tiny_internet):
        assert len(tiny_internet.hosts) > 100
        assert tiny_internet.num_announced_prefixes > 40
        assert tiny_internet.aliased_regions

    def test_deterministic_rebuild(self):
        from tests.conftest import TINY_CONFIG

        a = SimulatedInternet(TINY_CONFIG)
        b = SimulatedInternet(TINY_CONFIG)
        assert [h.primary_address for h in a.hosts] == [h.primary_address for h in b.hosts]
        assert a.aliased_prefixes() == b.aliased_prefixes()

    def test_deaggregated_announcements_are_distinct_sorted_subnets(self):
        from tests.conftest import TINY_CONFIG

        config = dataclasses.replace(
            TINY_CONFIG,
            deaggregation_rate=1.0,
            aliased_region_rate=0.0,
            stochastic_anomalies=False,
        )
        internet = SimulatedInternet(config)
        for plan in internet.plans:
            carved = [p for p in plan.announced if p.length in (40, 48)]
            assert 2 <= len(carved) <= 6
            assert len({p.length for p in carved}) == 1
            assert all(plan.allocation.contains(p) for p in carved)
            assert carved == sorted(set(carved))

    def test_all_bound_addresses_are_routed(self, tiny_internet):
        for addr in tiny_internet.all_bound_addresses()[:500]:
            assert tiny_internet.bgp.is_routed(addr)

    def test_aliased_regions_are_routed(self, tiny_internet):
        for prefix in tiny_internet.aliased_prefixes():
            assert tiny_internet.bgp.is_routed(prefix.first)

    def test_aliased_regions_mostly_cloud(self, tiny_internet):
        cloud_asns = {
            d.asn.number
            for d in tiny_internet.registry.by_category(ASCategory.CLOUD_CDN)
        }
        cloud_regions = [
            r for r in tiny_internet.aliased_regions if r.host.asn in cloud_asns
        ]
        assert len(cloud_regions) > len(tiny_internet.aliased_regions) / 2

    def test_roles_present(self, tiny_internet):
        roles = {h.role for h in tiny_internet.hosts}
        assert HostRole.WEB_SERVER in roles
        assert HostRole.CPE in roles
        assert HostRole.CLIENT in roles

    def test_eyeball_cpe_uses_slaac(self, tiny_internet):
        cpe = tiny_internet.hosts_by_role(HostRole.CPE)
        slaac_share = sum(h.primary_address.is_slaac_eui64 for h in cpe) / len(cpe)
        assert slaac_share > 0.9

    def test_host_of_bound_and_aliased(self, tiny_internet):
        host = tiny_internet.hosts[0]
        assert tiny_internet.host_of(host.primary_address) is host
        region = tiny_internet.aliased_regions[0]
        inside = random_address_in_prefix(region.prefix, random.Random(0))
        assert tiny_internet.host_of(inside) is region.host

    def test_asn_of_known_host(self, tiny_internet):
        host = tiny_internet.hosts[0]
        assert tiny_internet.asn_of(host.primary_address) == host.asn


class TestProbing:
    def test_responsive_server_answers_icmp(self, tiny_internet):
        servers = [
            h
            for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER)
            if Protocol.ICMP in h.services
        ]
        answered = 0
        for host in servers[:50]:
            if tiny_internet.probe(host.primary_address, Protocol.ICMP, day=0) is not None:
                answered += 1
        assert answered > 40

    def test_unrouted_address_is_silent(self, tiny_internet):
        assert tiny_internet.probe("2a00::1", Protocol.ICMP) is None

    def test_random_address_in_nonaliased_prefix_is_silent(self, tiny_internet):
        plan = next(p for p in tiny_internet.plans if not p.aliased)
        rng = random.Random(5)
        silent = 0
        for _ in range(20):
            addr = random_address_in_prefix(plan.announced[0], rng)
            if tiny_internet.probe(addr, Protocol.ICMP) is None:
                silent += 1
        assert silent >= 19

    def test_aliased_region_answers_random_addresses(self, tiny_internet):
        region = next(
            r
            for r in tiny_internet.aliased_regions
            if not r.syn_proxy
            and r.icmp_rate_limit is None
            and Protocol.TCP80 in r.host.services
        )
        rng = random.Random(6)
        answered = 0
        for _ in range(16):
            addr = random_address_in_prefix(region.prefix, rng)
            if tiny_internet.probe(addr, Protocol.TCP80, day=0) is not None:
                answered += 1
        assert answered >= 14

    def test_reply_fields_for_tcp(self, tiny_internet):
        servers = [
            h
            for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER, HostRole.CDN_EDGE)
            if Protocol.TCP80 in h.services
        ]
        reply = None
        for host in servers:
            reply = tiny_internet.probe(host.primary_address, Protocol.TCP80, day=0)
            if reply is not None:
                break
        assert isinstance(reply, ProbeReply)
        assert reply.mss is not None
        assert reply.options_text
        assert reply.ittl in (32, 64, 128, 255)

    def test_icmp_reply_has_no_tcp_fields(self, tiny_internet):
        servers = tiny_internet.hosts_by_role(HostRole.WEB_SERVER)
        reply = None
        for host in servers:
            reply = tiny_internet.probe(host.primary_address, Protocol.ICMP, day=0)
            if reply is not None:
                break
        assert reply is not None
        assert reply.mss is None and reply.options_text == ""

    def test_client_churn_over_time(self, tiny_internet):
        clients = tiny_internet.hosts_by_role(HostRole.CLIENT)
        responsive_day0 = sum(h.is_responsive(Protocol.ICMP, 0) for h in clients)
        responsive_day15 = sum(h.is_responsive(Protocol.ICMP, 15) for h in clients)
        # Clients are born and die quickly; the same-day populations differ.
        assert responsive_day0 != responsive_day15 or responsive_day0 == 0

    def test_traceroute_returns_router_hops(self, tiny_internet):
        host = tiny_internet.hosts_by_role(HostRole.WEB_SERVER)[0]
        hops = tiny_internet.traceroute(host.primary_address)
        assert 1 <= len(hops) <= 10
        hops2 = tiny_internet.traceroute(host.primary_address)
        # Path is stable (memoised), only per-hop loss differs.
        assert set(hops2) <= set(
            tiny_internet.topology.path_for(
                tiny_internet.bgp.covering_prefix(host.primary_address)
            ).hops
        )

    def test_traceroute_unrouted_is_empty(self, tiny_internet):
        assert tiny_internet.traceroute("2a00::1") == []

    def test_ground_truth_aliased_check(self, tiny_internet):
        region = tiny_internet.aliased_regions[0]
        inside = random_address_in_prefix(region.prefix, random.Random(0))
        assert tiny_internet.is_aliased_truth(inside)
        assert not tiny_internet.is_aliased_truth("2a00::1")

    def test_sample_aliased_addresses(self, tiny_internet):
        rng = random.Random(0)
        sample = tiny_internet.sample_aliased_addresses(50, rng)
        assert len(sample) == 50
        assert all(tiny_internet.is_aliased_truth(a) for a in sample)
        assert tiny_internet.sample_aliased_addresses(0, rng) == []


class TestUptimeCoin:
    """Every path decides uptime with the same keyed coin per (machine, day)."""

    DAY = 2

    def test_every_probe_path_agrees_with_is_responsive(self):
        day = self.DAY
        net = scenarios.build(
            "internet", "subday-churn", scale="tiny", anomalies="deterministic"
        )
        dynamics = NetworkDynamics.from_config(net, seed=3)
        dynamics.begin_day(day)
        rehomed, new_address, _ = dynamics.rehomed()[0]
        rotating = {h.host_id for h, _, _ in dynamics.rehomed()}
        flaky = [
            h
            for h in net.hosts
            if h.stability.daily_uptime < 1.0
            and h.services
            and h.host_id not in rotating
            and not net.is_aliased_truth(h.primary_address)
        ][:40]
        answers = []
        for machine, address in [(h, h.primary_address) for h in flaky] + [
            (r.host, r.prefix.first) for r in net.aliased_regions[:5]
        ]:
            batch = net.probe_batch([address], day=day)
            for protocol in ALL_PROTOCOLS:
                reply = net.probe(address, protocol, day)
                answers.append((machine, protocol, reply is not None))
                answers.append((machine, protocol, bool(batch.responsive_mask(protocol)[0])))
        targets = AddressBatch.from_addresses([new_address])
        wave = dynamics.begin_wave(day, day + 0.999, targets)
        batch = net.probe_batch(targets, day=day, wave=wave)
        for protocol in ALL_PROTOCOLS:
            reply = net.probe(new_address, protocol, day, wave=wave)
            answers.append((rehomed, protocol, reply is not None))
            answers.append((rehomed, protocol, bool(batch.responsive_mask(protocol)[0])))
        for machine, protocol, answered in answers:
            assert answered == machine.is_responsive(protocol, day)
        # The flaky sample really flips coins: some hosts are down today.
        assert not all(h.stability.is_online(day) for h in flaky)

    def test_vectorised_coin_equals_scalar_coin(self, tiny_internet):
        ids = np.arange(tiny_internet.host_id_count)
        machines = tiny_internet._machines
        for day in (0, 1, 7, 29, 400):
            online = tiny_internet.hosts_online(ids, day)
            assert online.tolist() == [m.stability.is_online(day) for m in machines]

    def test_aliased_region_machines_flip_their_own_coins(self):
        """Regression: every region machine used to share one coin (flap seed
        0), so all regions went dark together on an unlucky day."""
        net = SimulatedInternet()
        machines = [region.host.stability for region in net.aliased_regions]
        assert len(machines) > 100
        for day in (0, 123):
            coins = [stability.coin(day) for stability in machines]
            assert len(set(coins)) == len(coins)
