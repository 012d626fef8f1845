"""Batch/scalar parity for the probing engine.

``SimulatedInternet.probe_batch`` and the scalar ``probe`` make the same keyed
draw for every stochastic effect (loss, rate limits, SYN proxies, congestion),
so they agree row for row on every Internet: exact parity is asserted on a
loss-free Internet and on the realistic and hostile anomaly mixes with probe
waves, token buckets and prefix rotation.  A target batch resolved once
(``resolve_targets``) probes like the batch itself on every day, attempt,
vantage and wave, and no probe writes the resolution.  The same parity
holds for the two APD engines.
"""

import random

import numpy as np
import pytest

from repro.addr import IPv6Address, IPv6Prefix, PrefixTrie
from repro.addr.batch import AddressBatch, random_batch_in_prefix
from repro.addr.generate import random_addresses_in_prefix
from repro.core.apd import AliasedPrefixDetector
from repro.exec import ExecutionPolicy
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.netmodel.internet import ResolvedTargets
from repro.netmodel.services import ALL_PROTOCOLS, HostRole, Protocol

#: Loss-free tiny Internet: every non-stochastic probe outcome is deterministic.
LOSSLESS_CONFIG = InternetConfig(
    seed=7,
    num_ases=40,
    base_hosts_per_allocation=8,
    max_hosts_per_allocation=120,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
)


@pytest.fixture(scope="module")
def lossless_internet() -> SimulatedInternet:
    return SimulatedInternet(LOSSLESS_CONFIG)


def _deterministic_regions(internet):
    """Aliased regions whose replies carry no per-probe randomness."""
    return [
        r
        for r in internet.aliased_regions
        if not r.syn_proxy and r.icmp_rate_limit is None and r.answer_probability >= 1.0
    ]


@pytest.fixture(scope="module")
def deterministic_targets(lossless_internet):
    """Bound hosts, aliased-region addresses and unrouted noise."""
    rng = random.Random(13)
    values = [a.value for a in lossless_internet.all_bound_addresses()[:500]]
    for region in _deterministic_regions(lossless_internet)[:25]:
        host_bits = 128 - region.prefix.length
        for _ in range(8):
            values.append(region.prefix.network | rng.getrandbits(host_bits))
    values += [rng.getrandbits(128) for _ in range(250)]  # almost surely unrouted
    return values


class TestProbeBatchParity:
    def test_exact_parity_with_scalar_probe(self, lossless_internet, deterministic_targets):
        batch = AddressBatch.from_ints(deterministic_targets)
        result = lossless_internet.probe_batch(batch, ALL_PROTOCOLS, day=0)
        for j, protocol in enumerate(ALL_PROTOCOLS):
            expected = [
                lossless_internet.probe(IPv6Address(v), protocol, day=0) is not None
                for v in deterministic_targets
            ]
            assert result.responsive[:, j].tolist() == expected, protocol

    def test_parity_across_days(self, lossless_internet, deterministic_targets):
        batch = AddressBatch.from_ints(deterministic_targets[:300])
        for day in (0, 3, 11):
            result = lossless_internet.probe_batch(
                batch, (Protocol.ICMP, Protocol.TCP80), day=day
            )
            for j, protocol in enumerate((Protocol.ICMP, Protocol.TCP80)):
                expected = [
                    lossless_internet.probe(a, protocol, day=day) is not None
                    for a in batch
                ]
                assert result.responsive[:, j].tolist() == expected

    def test_accepts_address_iterables(self, lossless_internet):
        host = lossless_internet.hosts_by_role(HostRole.WEB_SERVER)[0]
        result = lossless_internet.probe_batch([host.primary_address], ALL_PROTOCOLS, day=0)
        expected = {
            p for p in ALL_PROTOCOLS
            if lossless_internet.probe(host.primary_address, p, day=0) is not None
        }
        got = {p for p in ALL_PROTOCOLS if result.responsive_mask(p)[0]}
        assert got == expected

    def test_result_accessors(self, lossless_internet):
        region = _deterministic_regions(lossless_internet)[0]
        batch = random_batch_in_prefix(region.prefix, 50, np.random.default_rng(3))
        result = lossless_internet.probe_batch(batch, (Protocol.ICMP, Protocol.TCP80), day=0)
        assert result.count_responsive() == int(result.responsive.any(axis=1).sum())
        assert result.count_responsive(Protocol.ICMP) == 50  # region serves ICMP, no loss
        assert len(result.responsive_on(Protocol.ICMP)) == 50
        assert result.responsive_on() <= set(batch.to_addresses())

    def test_empty_batch(self, lossless_internet):
        result = lossless_internet.probe_batch(AddressBatch.empty(), ALL_PROTOCOLS, day=0)
        assert result.responsive.shape == (0, len(ALL_PROTOCOLS))
        assert result.count_responsive() == 0

    def test_icmp_rate_limit_does_not_leak_into_other_protocols(self):
        """Regression: the ICMP allowance draw must not corrupt the shared
        routed array and suppress later protocol columns (aliasing bug)."""
        net = SimulatedInternet(
            InternetConfig(
                seed=7,
                num_ases=40,
                base_hosts_per_allocation=8,
                max_hosts_per_allocation=120,
                packet_loss=0.0,
                icmp_rate_limited_share=0.5,
            )
        )
        region = _deterministic_regions(net)[0]
        batch = random_batch_in_prefix(region.prefix, 500, np.random.default_rng(8))
        result = net.probe_batch(batch, (Protocol.ICMP, Protocol.TCP80), day=0)
        # Exact scalar parity on both columns, regardless of how many ICMP
        # probes were rate-limited away.
        expected_tcp = [net.probe(a, Protocol.TCP80, day=0) is not None for a in batch]
        assert result.responsive_mask(Protocol.TCP80).tolist() == expected_tcp
        expected_icmp = [net.probe(a, Protocol.ICMP, day=0) is not None for a in batch]
        assert result.responsive_mask(Protocol.ICMP).tolist() == expected_icmp
        # And protocol order must not matter for either column.
        reordered = net.probe_batch(batch, (Protocol.TCP80, Protocol.ICMP), day=0)
        assert reordered.responsive_mask(Protocol.TCP80).tolist() == expected_tcp
        assert reordered.responsive_mask(Protocol.ICMP).tolist() == expected_icmp

    def test_loss_thins_responses_statistically(self):
        lossy = SimulatedInternet(
            InternetConfig(
                seed=7,
                num_ases=40,
                base_hosts_per_allocation=8,
                max_hosts_per_allocation=120,
                packet_loss=0.3,
            )
        )
        region = _deterministic_regions(lossy)[0]
        batch = random_batch_in_prefix(region.prefix, 4000, np.random.default_rng(4))
        result = lossy.probe_batch(batch, (Protocol.ICMP,), day=0)
        rate = result.count_responsive(Protocol.ICMP) / len(batch)
        assert 0.6 < rate < 0.8  # ~1 - packet_loss

    def test_rows_independent_of_batch_order_and_size(self):
        """A target's row is keyed on the target alone: repeating, reversing
        or splitting the batch changes no row, loss included."""
        lossy = SimulatedInternet(
            InternetConfig(
                seed=7,
                num_ases=40,
                base_hosts_per_allocation=8,
                max_hosts_per_allocation=120,
                packet_loss=0.3,
            )
        )
        batch = AddressBatch.from_addresses(lossy.all_bound_addresses()[:400])
        whole = lossy.probe_batch(batch, ALL_PROTOCOLS, day=1).responsive
        assert np.array_equal(lossy.probe_batch(batch, ALL_PROTOCOLS, day=1).responsive, whole)
        reverse = np.arange(len(batch))[::-1]
        reversed_rows = lossy.probe_batch(batch.take(reverse), ALL_PROTOCOLS, day=1)
        assert np.array_equal(reversed_rows.responsive[reverse], whole)
        halves = [
            lossy.probe_batch(batch.take(np.arange(s, e)), ALL_PROTOCOLS, day=1).responsive
            for s, e in ((0, 150), (150, len(batch)))
        ]
        assert np.array_equal(np.concatenate(halves), whole)
        # ... while another day or attempt draws afresh.
        assert not np.array_equal(lossy.probe_batch(batch, ALL_PROTOCOLS, day=2).responsive, whole)
        again = lossy.probe_batch(batch, ALL_PROTOCOLS, day=1, attempt=1).responsive
        assert not np.array_equal(again, whole)


#: Sub-day dynamics composed over the routed multi-vantage preset: probe
#: waves with token buckets, prefix rotation and rate-limited prefixes, on
#: top of congested transits and upstream ICMP rate limiting.
_DYNAMICS = {
    "waves_per_day": 3,
    "icmp_bucket_capacity": 6.0,
    "icmp_bucket_refill_per_day": 24.0,
    "prefix_rotation_rate": 0.5,
    "icmp_rate_limited_share": 0.4,
}


def _dynamic_world(anomalies: str):
    """The routed multi-vantage world with :data:`_DYNAMICS`, a target list
    of bound hosts, aliased-region addresses and unrouted noise, and its
    dynamics."""
    from repro.events import NetworkDynamics
    from repro.scenarios import build, get_scenario

    scenario = get_scenario(
        "multi-vantage", scale="tiny", anomalies=anomalies
    ).with_overrides("dynamics", _DYNAMICS)
    net = build("internet", scenario)
    rng = random.Random(5)
    values = [a.value for a in net.all_bound_addresses()[:400]]
    for region in net.aliased_regions:
        host_bits = 128 - region.prefix.length
        values += [region.prefix.network | rng.getrandbits(host_bits) for _ in range(6)]
    values += [rng.getrandbits(128) for _ in range(50)]
    return net, values, NetworkDynamics.from_config(net, seed=3)


class TestStochasticParity:
    """Row-for-row parity of ``probe`` and ``probe_batch`` with every
    stochastic effect on: loss, prefix and region ICMP limits, SYN proxies,
    congestion, upstream rate limits, waves with token buckets, rotation."""

    @pytest.fixture(scope="class", params=["realistic", "hostile"])
    def world(self, request):
        return _dynamic_world(request.param)

    @staticmethod
    def _assert_rows_match(net, batch, day, **kwargs):
        result = net.probe_batch(batch, ALL_PROTOCOLS, day, **kwargs)
        for j, protocol in enumerate(ALL_PROTOCOLS):
            scalar = [net.probe(a, protocol, day, **kwargs) is not None for a in batch]
            assert result.responsive[:, j].tolist() == scalar, (protocol, kwargs)
        return result

    def test_world_exercises_every_effect(self, world):
        net, _, dynamics = world
        assert net.config.packet_loss > 0 and net.routing.has_congestion
        assert net.routing.has_rate_limit and len(net._icmp_rate_limited)
        assert any(r.syn_proxy for r in net.aliased_regions)
        assert any(r.icmp_rate_limit for r in net.aliased_regions)
        assert dynamics.buckets_active and dynamics.rotation_rate > 0

    @pytest.mark.parametrize("vantage", [None, 1, 2])
    def test_parity_without_waves(self, world, vantage):
        net, values, _ = world
        batch = AddressBatch.from_ints(values)
        for day in (0, 4):
            self._assert_rows_match(net, batch, day, vantage=vantage)
        self._assert_rows_match(net, batch, 1, vantage=vantage, attempt=2)

    def test_parity_in_every_wave_of_a_dynamic_day(self, world):
        net, values, dynamics = world
        day = 2
        dynamics.begin_day(day)
        rehomed = [address.value for _, address, _ in dynamics.rehomed()]
        assert rehomed
        batch = AddressBatch.from_ints(values + rehomed)
        rows = []
        for w in range(dynamics.waves_per_day):
            wave = dynamics.begin_wave(day, dynamics.wave_time(day, w), batch)
            rows.append(self._assert_rows_match(net, batch, day, wave=wave).responsive)
        # Buckets and rotation make the waves differ from one another.
        assert any(not np.array_equal(rows[0], other) for other in rows[1:])


class TestResolvedTargets:
    """A resolution holds what ``probe_batch`` derives from the addresses
    alone: probing it equals probing its batch on every day, attempt,
    vantage and wave, and no probe writes it."""

    @pytest.fixture(scope="class", params=["deterministic", "realistic", "hostile"])
    def world(self, request):
        return _dynamic_world(request.param)

    @staticmethod
    def _assert_same_resolution(got, want):
        assert got.targets.to_ints() == want.targets.to_ints()
        for name in ResolvedTargets.__frozen_arrays__:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)

    def test_probing_a_resolution_equals_probing_its_batch(self, world):
        net, values, _ = world
        batch = AddressBatch.from_ints(values)
        resolved = net.resolve_targets(batch)
        vantages = [None, *range(len(net.routing.vantage_asns))]
        assert len(vantages) == 4
        for vantage in vantages:
            for day, attempt in ((0, 0), (0, 1), (4, 0), (11, 2)):
                kwargs = dict(vantage=vantage, attempt=attempt)
                got = net.probe_batch(resolved, ALL_PROTOCOLS, day, **kwargs)
                want = net.probe_batch(batch, ALL_PROTOCOLS, day, **kwargs)
                assert got.targets is resolved.targets
                np.testing.assert_array_equal(got.responsive, want.responsive)

    def test_waves_with_dark_and_rehomed_hosts_never_write_it(self, world):
        net, values, dynamics = world
        day = 2
        dynamics.begin_day(day)
        rotations = dynamics.rehomed()
        assert rotations
        # Each rotated host's old addresses (dark after it rotates) and its
        # new one (answering after it rotates).
        moved = [a.value for host, _, _ in rotations for a in host.addresses]
        moved += [address.value for _, address, _ in rotations]
        batch = AddressBatch.from_ints(values + moved)
        resolved = net.resolve_targets(batch)
        waves = []
        for w in range(dynamics.waves_per_day):
            wave = dynamics.begin_wave(day, dynamics.wave_time(day, w), batch)
            waves.append(wave)
            for attempt in (0, 1):
                got = net.probe_batch(resolved, ALL_PROTOCOLS, day, wave=wave, attempt=attempt)
                want = net.probe_batch(batch, ALL_PROTOCOLS, day, wave=wave, attempt=attempt)
                np.testing.assert_array_equal(got.responsive, want.responsive)
        # Some wave darkens a bound target's host and re-homes a host onto
        # an unbound target: both write the per-call copy of the host ids.
        bound = resolved.host_id[resolved.host_id >= 0]
        assert any(wave.has_dark and wave.dark_of(bound).any() for wave in waves)
        assert any(
            wave.has_rehomed and (wave.rehome_ids(batch) >= 0).any() for wave in waves
        )
        self._assert_same_resolution(resolved, net.resolve_targets(batch))

    def test_take_equals_resolving_the_rows(self, world):
        net, values, _ = world
        batch = AddressBatch.from_ints(values)
        resolved = net.resolve_targets(batch)
        for rows in (np.arange(100, 300), np.arange(len(batch))[::-1], np.arange(0)):
            self._assert_same_resolution(
                resolved.take(rows), net.resolve_targets(batch.take(rows))
            )

    def test_insert_equals_resolving_the_merged_rows(self, world):
        """Sorted rows inserted at their insertion points into a sorted
        resolution: the growing batch of the daily service."""
        net, values, _ = world
        merged = AddressBatch.from_ints(values).unique()
        rng = np.random.default_rng(1)
        for share in (0.0, 0.1, 0.5, 1.0):
            new = np.sort(rng.choice(len(merged), int(share * len(merged)), replace=False))
            old = np.setdiff1d(np.arange(len(merged)), new)
            standing = net.resolve_targets(merged.take(old))
            inserted = standing.insert(
                np.searchsorted(old, new), net.resolve_targets(merged.take(new))
            )
            self._assert_same_resolution(inserted, net.resolve_targets(merged))

    def test_inserting_a_resolution_of_another_internet_is_refused(self, lossless_internet):
        twin = SimulatedInternet(LOSSLESS_CONFIG)
        values = [a.value for a in lossless_internet.all_bound_addresses()[:20]]
        standing = lossless_internet.resolve_targets(AddressBatch.from_ints(values[:10]))
        foreign = twin.resolve_targets(AddressBatch.from_ints(values[10:]))
        with pytest.raises(ValueError, match="another SimulatedInternet"):
            standing.insert(np.full(10, 10), foreign)

    def test_a_resolution_of_another_internet_is_refused(self, lossless_internet):
        """Even an identically built twin's resolution is refused: a
        resolution is tied to the index that made it."""
        twin = SimulatedInternet(LOSSLESS_CONFIG)
        values = [a.value for a in lossless_internet.all_bound_addresses()[:20]]
        foreign = twin.resolve_targets(AddressBatch.from_ints(values))
        with pytest.raises(ValueError, match="another SimulatedInternet"):
            lossless_internet.probe_batch(foreign, ALL_PROTOCOLS, day=0)

    def test_empty_resolution(self, lossless_internet):
        resolved = lossless_internet.resolve_targets(AddressBatch.empty())
        assert len(resolved) == 0
        result = lossless_internet.probe_batch(resolved, ALL_PROTOCOLS, day=0)
        assert result.responsive.shape == (0, len(ALL_PROTOCOLS))


class TestAPDEngineParity:
    @pytest.fixture(scope="class")
    def sample(self, lossless_internet):
        rng = random.Random(3)
        servers = [
            h.primary_address
            for h in lossless_internet.hosts_by_role(HostRole.WEB_SERVER)
        ][:150]
        region = next(
            r
            for r in _deterministic_regions(lossless_internet)
            if r.prefix.length <= 96 and Protocol.TCP80 in r.host.services
        )
        aliased = random_addresses_in_prefix(
            IPv6Prefix.of(region.prefix.network, 100), 150, rng
        )
        return servers + aliased

    def test_candidates_identical(self, lossless_internet, sample):
        batch_detector = AliasedPrefixDetector(lossless_internet, seed=1)
        scalar_detector = AliasedPrefixDetector(
            lossless_internet, seed=1, policy=ExecutionPolicy(reference=True)
        )
        assert batch_detector.candidate_prefixes(sample) == scalar_detector.candidate_prefixes(sample)

    def test_same_aliased_prefixes_and_classification(self, lossless_internet, sample):
        batch_result = AliasedPrefixDetector(lossless_internet, seed=2).run(sample, day=0)
        scalar_result = AliasedPrefixDetector(
            lossless_internet, seed=2, policy=ExecutionPolicy(reference=True)
        ).run(sample, day=0)
        assert set(batch_result.outcomes) == set(scalar_result.outcomes)
        assert set(batch_result.aliased_prefixes) == set(scalar_result.aliased_prefixes)
        for address in sample:
            assert batch_result.is_aliased(address) == scalar_result.is_aliased(address)

    def test_batch_classification_matches_scalar_lpm(self, lossless_internet, sample):
        result = AliasedPrefixDetector(lossless_internet, seed=2).run(sample, day=0)
        # An oracle independent of the table's LPM: a trie of its outcomes,
        # also asked about addresses that no probed prefix covers.
        trie: PrefixTrie[bool] = PrefixTrie()
        for prefix, outcome in result.outcomes.items():
            trie.insert(prefix, outcome.is_aliased)
        addresses = sample + [IPv6Address.parse("::1"), IPv6Address.parse("ff02::1")]
        batch_verdicts = result.is_aliased_batch(AddressBatch.from_addresses(addresses))
        assert batch_verdicts.tolist() == [bool(trie.lookup(a)) for a in addresses]
        assert [result.is_aliased(a) for a in addresses] == batch_verdicts.tolist()
        aliased, clean = result.split(sample)
        assert len(aliased) + len(clean) == len(sample)
        assert clean == [a for a, hit in zip(sample, batch_verdicts.tolist()) if not hit]

    def test_duplicate_prefixes_probed_once(self, lossless_internet):
        region = _deterministic_regions(lossless_internet)[0]
        prefix = IPv6Prefix.of(region.prefix.network, max(64, region.prefix.length))
        detector = AliasedPrefixDetector(lossless_internet, seed=6)
        outcomes = detector.probe_prefixes([prefix, prefix, prefix], day=0)
        assert list(outcomes) == [prefix]
        outcome = outcomes[prefix]
        assert len(outcome.targets) == 16
        assert len(outcome.branch_responses) == 16
        # Responses belong to this outcome's own 16 targets only.
        assert outcome.probes_sent == 32

    def test_probe_prefix_wrapper_matches_probe_prefixes(self, lossless_internet):
        region = _deterministic_regions(lossless_internet)[0]
        prefix = IPv6Prefix.of(region.prefix.network, max(64, region.prefix.length))
        detector = AliasedPrefixDetector(lossless_internet, seed=4)
        outcome = detector.probe_prefix(prefix, day=0)
        assert outcome.prefix == prefix
        assert len(outcome.targets) == 16
        assert outcome.is_aliased  # fully aliased, loss-free
