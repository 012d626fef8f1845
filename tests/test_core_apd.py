"""Tests for aliased prefix detection, the Murdock baseline and the sliding window."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.addr import AddressBatch, IPv6Prefix
from repro.addr.generate import random_addresses_in_prefix
from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult, PrefixProbeOutcome
from repro.core.apd_murdock import MurdockDetector
from repro.core.sliding_window import SlidingWindowMerger
from repro.exec import ExecutionPolicy

REFERENCE = ExecutionPolicy(reference=True)


def _prefixes(keys):
    """A verdict-table key column as prefixes."""
    return [IPv6Prefix((hi << 64) | lo, length) for hi, lo, length in keys.tolist()]


@pytest.fixture(scope="module")
def clean_aliased_region(tiny_internet):
    """An aliased region without anomaly behaviour that also serves TCP/80."""
    from repro.netmodel.services import Protocol

    return next(
        r
        for r in tiny_internet.aliased_regions
        if not r.syn_proxy
        and r.icmp_rate_limit is None
        and r.prefix.length <= 96
        and Protocol.TCP80 in r.host.services
    )


@pytest.fixture(scope="module")
def hitlist_sample(tiny_internet, clean_aliased_region):
    """A small hitlist: server addresses plus many addresses in one aliased prefix."""
    from repro.netmodel.services import HostRole

    rng = random.Random(3)
    servers = [h.primary_address for h in tiny_internet.hosts_by_role(HostRole.WEB_SERVER)][:150]
    # Concentrate the aliased sample inside a /100 so that several aggregation
    # levels (/68../100) exceed the 100-target threshold, like dense CDN names.
    aliased = random_addresses_in_prefix(
        IPv6Prefix.of(clean_aliased_region.prefix.network, 100), 150, rng
    )
    return servers + aliased


class TestCandidateSelection:
    def test_prefixes_with_many_targets_qualify(self, tiny_internet, hitlist_sample):
        detector = AliasedPrefixDetector(tiny_internet, seed=1)
        candidates = detector.candidate_prefixes(hitlist_sample)
        lengths = {p.length for p in candidates}
        assert 64 in lengths
        # The 150 aliased addresses qualify their covering prefixes at several levels.
        assert any(p.length > 64 for p in candidates)

    def test_64s_always_included(self, tiny_internet, hitlist_sample):
        config = APDConfig(min_targets_per_prefix=10_000)
        detector = AliasedPrefixDetector(tiny_internet, config, seed=1)
        candidates = detector.candidate_prefixes(hitlist_sample)
        assert candidates
        assert all(p.length == 64 for p in candidates)

    def test_64_exemption_can_be_disabled(self, tiny_internet, hitlist_sample):
        config = APDConfig(min_targets_per_prefix=10_000, always_probe_64=False)
        detector = AliasedPrefixDetector(tiny_internet, config, seed=1)
        assert detector.candidate_prefixes(hitlist_sample) == []

    def test_extra_prefixes_are_added(self, tiny_internet):
        detector = AliasedPrefixDetector(tiny_internet, seed=1)
        extra = IPv6Prefix.parse("2001:db8::/64")
        candidates = detector.candidate_prefixes([], extra_prefixes=[extra])
        assert extra in candidates

    @settings(max_examples=100, deadline=None)
    @given(
        iids=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=40
        ),
        sparse=st.lists(st.integers(0, 2**64 - 1), max_size=3),
        threshold=st.sampled_from((0, 1, 2, 3)),
        always_probe_64=st.booleans(),
        lengths=st.lists(
            st.one_of(st.just(64), st.sampled_from(range(64, 125, 4))), min_size=1, max_size=5
        ),
        data=st.data(),
    )
    def test_matches_bruteforce_counts(
        self, tiny_internet, iids, sparse, threshold, always_probe_64, lengths, data
    ):
        # Few distinct nybbles at /68, /100 and /128 inside one /64 (counts
        # cross the threshold at several levels, duplicates are common), plus
        # a sibling /64 holding at most three addresses.
        dense = IPv6Prefix.parse("2001:db8:1:2::/64").network
        addresses = [dense | (a << 60) | (b << 28) | c for a, b, c in iids]
        addresses += [IPv6Prefix.parse("2001:db8:1:3::/64").network | iid for iid in sparse]
        prefix_lengths = (*lengths, lengths[0])  # one length always repeats
        config = APDConfig(
            prefix_lengths=prefix_lengths,
            min_targets_per_prefix=threshold,
            always_probe_64=always_probe_64,
        )
        qualifying = set()
        for length in set(prefix_lengths):
            counts = Counter(IPv6Prefix.of(a, length) for a in addresses)
            qualifying.update(
                p
                for p, count in counts.items()
                if count > threshold or (length == 64 and always_probe_64)
            )
        pool = sorted(qualifying) + [IPv6Prefix.parse("2001:db8:1::/48")]
        extras = data.draw(st.lists(st.sampled_from(pool), max_size=4))
        detector = AliasedPrefixDetector(tiny_internet, config, seed=1)
        got = detector.candidate_prefixes(addresses, extra_prefixes=extras)
        assert got == sorted(qualifying | set(extras))

    @settings(deadline=None)
    @given(
        # One nybble away from a shared base: sorted neighbours often first
        # differ at a nybble's top bit, sharing exactly a multiple of 4 bits.
        values=st.lists(
            st.builds(
                lambda k, x: (0x20010DB8 << 96) | (x << (4 * k)),
                st.integers(0, 31),
                st.sampled_from((1, 8, 15)),
            ),
            max_size=60,
        ),
        length=st.one_of(st.sampled_from(range(0, 129, 4)), st.integers(0, 128)),
        threshold=st.sampled_from((0, 1, 2)),
    )
    def test_candidate_rule_matches_masked_networks(self, values, length, threshold):
        values = sorted(values)
        config = APDConfig(
            prefix_lengths=(length,), min_targets_per_prefix=threshold, always_probe_64=False
        )
        keys, starts, ends = config.candidate_runs(AddressBatch.from_ints(values))
        networks = [IPv6Prefix.of(v, length) for v in values]
        runs = [i for i, p in enumerate(networks) if i == 0 or p != networks[i - 1]]
        counts = Counter(networks)
        expected = [i for i in runs if counts[networks[i]] > threshold]
        assert starts.tolist() == expected
        assert ends.tolist() == [i + counts[networks[i]] for i in expected]
        assert _prefixes(keys) == [networks[i] for i in expected]

    @settings(deadline=None)
    @given(
        values=st.lists(
            st.builds(
                lambda k, x: (0x20010DB8 << 96) | (x << (4 * k)),
                st.integers(0, 31),
                st.sampled_from((1, 8, 15)),
            ),
            max_size=60,
        ),
        lengths=st.lists(st.sampled_from(range(0, 129, 4)), min_size=1, max_size=6),
        threshold=st.sampled_from((0, 1, 2)),
        always_probe_64=st.booleans(),
    )
    def test_candidate_rule_judges_every_length_at_once(
        self, values, lengths, threshold, always_probe_64
    ):
        values = sorted(values)
        config = APDConfig(
            prefix_lengths=tuple(lengths),
            min_targets_per_prefix=threshold,
            always_probe_64=always_probe_64,
        )
        keys, starts, ends = config.candidate_runs(AddressBatch.from_ints(values))
        runs = {}
        for length in set(lengths):
            for i, value in enumerate(values):
                network = IPv6Prefix.of(value, length)
                first, _ = runs.get(network, (i, i))
                runs[network] = (first, i + 1)
        expected = sorted(
            p
            for p, (first, end) in runs.items()
            if end - first > threshold or (p.length == 64 and always_probe_64)
        )
        assert _prefixes(keys) == expected
        assert list(zip(starts.tolist(), ends.tolist())) == [runs[p] for p in expected]


class TestProbing:
    def test_aliased_prefix_detected(self, tiny_internet, clean_aliased_region):
        detector = AliasedPrefixDetector(tiny_internet, seed=2)
        prefix = IPv6Prefix.of(clean_aliased_region.prefix.network, max(64, clean_aliased_region.prefix.length))
        outcome = detector.probe_prefixes([prefix], day=0)[prefix]
        assert outcome.num_responsive >= 15  # rare single-probe double-loss tolerated
        assert outcome.probes_sent == 32

    def test_non_aliased_prefix_not_detected(self, tiny_internet):
        from repro.netmodel.services import HostRole

        host = tiny_internet.hosts_by_role(HostRole.WEB_SERVER)[0]
        prefix = IPv6Prefix.of(host.primary_address, 64)
        if tiny_internet.is_aliased_truth(host.primary_address):
            pytest.skip("picked host inside aliased region")
        detector = AliasedPrefixDetector(tiny_internet, seed=2)
        outcome = detector.probe_prefixes([prefix], day=0)[prefix]
        assert not outcome.is_aliased
        assert outcome.num_responsive <= 2

    def test_run_classifies_hitlist(self, tiny_internet, hitlist_sample, clean_aliased_region):
        detector = AliasedPrefixDetector(tiny_internet, seed=3)
        result = detector.run(hitlist_sample, day=0)
        assert result.aliased_prefixes
        # Every detected aliased prefix really is aliased in ground truth.
        for prefix in result.aliased_prefixes:
            assert tiny_internet.is_aliased_truth(prefix.first + 1)
        # The aliased sample addresses are filtered, the servers survive.
        aliased, clean = result.split(hitlist_sample)
        assert len(aliased) >= 100
        truth_hits = sum(tiny_internet.is_aliased_truth(a) for a in aliased)
        assert truth_hits / len(aliased) > 0.95

    def test_filter_non_aliased_removes_only_aliased(self, tiny_internet, hitlist_sample):
        detector = AliasedPrefixDetector(tiny_internet, seed=3)
        result = detector.run(hitlist_sample, day=0)
        clean = result.split(hitlist_sample)[1]
        assert len(clean) < len(hitlist_sample)
        false_removals = [
            a
            for a in hitlist_sample
            if a not in clean and not tiny_internet.is_aliased_truth(a)
        ]
        assert len(false_removals) <= len(hitlist_sample) * 0.02

    def test_probes_sent_accounting(self, tiny_internet, hitlist_sample):
        detector = AliasedPrefixDetector(tiny_internet, seed=3)
        result = detector.run(hitlist_sample, day=0)
        assert result.probes_sent == 32 * len(result.outcomes)
        assert result.addresses_probed == 16 * len(result.outcomes)

    @pytest.mark.parametrize("policy", [ExecutionPolicy(), REFERENCE], ids=["fast", "reference"])
    def test_probes_sent_counts_configured_protocols(
        self, tiny_internet, clean_aliased_region, policy
    ):
        """A one-protocol detector sends one probe per fan-out target."""
        from repro.netmodel.services import Protocol

        prefix = IPv6Prefix.of(clean_aliased_region.prefix.network, 96)
        detector = AliasedPrefixDetector(
            tiny_internet, APDConfig(protocols=(Protocol.TCP80,)), seed=2, policy=policy
        )
        assert detector.probe_prefixes([prefix])[prefix].probes_sent == 16
        assert detector.run(prefixes=[prefix]).probes_sent == 16

    def test_longest_prefix_match_resolves_conflicts(self, tiny_internet):
        """A non-aliased more-specific inside an aliased less-specific wins."""
        detector = AliasedPrefixDetector(tiny_internet, seed=1)
        outer = IPv6Prefix.parse("2001:db8::/64")
        inner = IPv6Prefix.parse("2001:db8::/68")
        # Force verdicts for the test regardless of the simulated responses.
        from repro.netmodel.services import Protocol

        outer_outcome = PrefixProbeOutcome(
            outer,
            0,
            detector.probe_prefixes([outer])[outer].targets,
            branch_responses=[{Protocol.ICMP} for _ in range(16)],  # aliased
        )
        inner_outcome = PrefixProbeOutcome(
            inner,
            0,
            detector.probe_prefixes([inner])[inner].targets,
            branch_responses=[set() for _ in range(16)],  # non-aliased
        )
        result = APDResult.from_outcomes([outer_outcome, inner_outcome])
        from repro.addr import IPv6Address

        inside_inner = IPv6Address.parse("2001:db8::1")
        inside_outer_only = IPv6Address.parse("2001:db8:0:0:f000::1")
        assert not result.is_aliased(inside_inner)
        assert result.is_aliased(inside_outer_only)


#: Prefixes for the verdict-table property: three /64s, each holding more
#: specific prefixes, and one network at several lengths.
TABLE_PREFIXES = st.builds(
    lambda net, sub, length: IPv6Prefix.of((0x20010DB8 << 96) | (net << 64) | (sub << 56), length),
    st.integers(0, 2),
    st.sampled_from((0, 0x01, 0x10, 0xF0)),
    st.sampled_from((64, 68, 72, 96)),
)


def _table_outcome(prefix: IPv6Prefix, aliased: bool) -> PrefixProbeOutcome:
    from repro.netmodel.services import Protocol

    answered = {Protocol.ICMP} if aliased else set()
    return PrefixProbeOutcome(prefix, 0, [prefix.first], branch_responses=[answered])


class TestVerdictTable:
    @settings(max_examples=150, deadline=None)
    @given(
        chain=st.lists(
            st.lists(st.builds(_table_outcome, TABLE_PREFIXES, st.booleans()), max_size=6),
            max_size=6,
        )
    )
    def test_updates_equal_a_one_shot_table_and_never_write(self, chain):
        """A chain of ``with_outcomes`` updates (nested prefixes, one network
        at several lengths, re-probed keys, empty updates) equals a one-shot
        table of the latest outcome per prefix, and leaves every earlier
        table as it was."""
        table = APDResult.from_outcomes(())
        latest: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        history = []
        for update in chain:
            history.append(
                (table, table.keys.copy(), table.verdicts.copy(), list(table.outcomes.values()))
            )
            table = table.with_outcomes(update)
            latest.update((outcome.prefix, outcome) for outcome in update)
            order = sorted(latest)
            assert list(table.outcomes) == order
            assert table.verdicts.tolist() == [latest[p].is_aliased for p in order]
            assert all(a is latest[p] for a, p in zip(table.outcomes.values(), order))
            assert all(table.outcomes[p] is latest[p] for p in order)
            one_shot = APDResult.from_outcomes(latest.values())
            assert table.keys.tolist() == one_shot.keys.tolist()
            assert table.verdicts.tolist() == one_shot.verdicts.tolist()
            assert len(table.outcomes) == len(order)
        for old, keys, verdicts, outcomes in history:
            assert old.keys.tolist() == keys.tolist()
            assert old.verdicts.tolist() == verdicts.tolist()
            assert all(a is b for a, b in zip(old.outcomes.values(), outcomes, strict=True))
        for column in (table.keys, table._outcomes, table.verdicts):
            assert not column.flags.writeable


class TestRunWindow:
    def test_one_shot_prefix_iterable_reaches_every_day(self, tiny_internet):
        detector = AliasedPrefixDetector(tiny_internet, seed=1)
        extra = IPv6Prefix.parse("2001:db8::/64")
        results = detector.run_window([], days=[0, 1, 2], prefixes=(p for p in [extra]))
        assert [extra in results[day].outcomes for day in (0, 1, 2)] == [True] * 3


class TestMurdockBaseline:
    def test_candidates_are_96s(self, tiny_internet, hitlist_sample):
        detector = MurdockDetector(tiny_internet, seed=1)
        candidates = detector.candidate_prefixes(hitlist_sample)
        assert all(p.length == 96 for p in candidates)

    def test_detects_fully_aliased_96(self, tiny_internet, clean_aliased_region):
        detector = MurdockDetector(tiny_internet, seed=1)
        prefix = IPv6Prefix.of(clean_aliased_region.prefix.network, 96)
        outcome = detector.probe_prefix(prefix)
        assert outcome.is_aliased

    def test_multi_level_finds_more_aliased_addresses(self, tiny_internet, hitlist_sample):
        apd = AliasedPrefixDetector(tiny_internet, seed=2).run(hitlist_sample)
        murdock = MurdockDetector(tiny_internet, seed=2).run(hitlist_sample)
        apd_aliased, _ = apd.split(hitlist_sample)
        murdock_aliased, _ = murdock.split(hitlist_sample)
        assert len(apd_aliased) >= len(murdock_aliased)

    def test_probe_accounting(self, tiny_internet, hitlist_sample):
        murdock = MurdockDetector(tiny_internet, seed=2)
        result = murdock.run(hitlist_sample)
        assert result.addresses_probed == 3 * len(result.outcomes)
        assert result.probes_sent == 9 * len(result.outcomes)

    def test_batched_attempts_equal_the_scalar_definition(self):
        """Under heavy loss, ``run`` equals drawing each /96's targets from the
        same rng and probing each target until its first reply; ``probe_prefix``
        replays ``run`` from the same rng state."""
        from repro.netmodel import InternetConfig, SimulatedInternet
        from repro.netmodel.services import HostRole, Protocol

        lossy = SimulatedInternet(
            InternetConfig(
                seed=7,
                num_ases=40,
                base_hosts_per_allocation=8,
                max_hosts_per_allocation=120,
                packet_loss=0.5,
            )
        )
        rng = random.Random(5)
        addresses = [h.primary_address for h in lossy.hosts_by_role(HostRole.WEB_SERVER)][:60]
        for region in lossy.aliased_regions[:12]:
            addresses += random_addresses_in_prefix(region.prefix, 4, rng)
        result = MurdockDetector(lossy, seed=4).run(addresses)

        candidates = MurdockDetector(lossy).candidate_prefixes(addresses)
        assert list(result.outcomes) == candidates
        scalar_rng = random.Random(4)
        deciding_attempts = Counter()
        for prefix in candidates:
            targets = random_addresses_in_prefix(prefix, 3, scalar_rng)
            responsive = []
            for target in targets:
                first = next(
                    (
                        attempt
                        for attempt in range(3)
                        if lossy.probe(target, Protocol.TCP80, 0, attempt=attempt) is not None
                    ),
                    None,
                )
                deciding_attempts[first] += 1
                responsive.append(first is not None)
            assert result.outcomes[prefix].targets == targets
            assert result.outcomes[prefix].responsive == responsive
        assert deciding_attempts[1] and deciding_attempts[2]

        replay = MurdockDetector(lossy, seed=4)
        assert [replay.probe_prefix(p) for p in candidates] == list(result.outcomes.values())


class TestSlidingWindow:
    @pytest.fixture(scope="class")
    def daily_results(self, tiny_internet, hitlist_sample):
        detector = AliasedPrefixDetector(tiny_internet, seed=5)
        return detector.run_window(hitlist_sample, days=range(8))

    def test_requires_results(self):
        with pytest.raises(ValueError):
            SlidingWindowMerger({})

    def test_windowed_branches_grow_with_window(self, daily_results):
        merger = SlidingWindowMerger(daily_results)
        prefix = merger.prefixes()[0]
        day = merger.days[-1]
        small = merger.windowed_responsive_branches(prefix, day, 0)
        large = merger.windowed_responsive_branches(prefix, day, 5)
        assert small <= large

    def test_unstable_prefixes_decrease_with_window(self, daily_results):
        merger = SlidingWindowMerger(daily_results)
        stats = merger.sweep_windows(range(6))
        unstable = [s.unstable_prefixes for s in stats]
        assert unstable[0] >= unstable[3] >= unstable[5]
        assert all(s.total_prefixes == stats[0].total_prefixes for s in stats)

    def test_final_aliased_prefixes_are_truly_aliased(self, daily_results, tiny_internet):
        merger = SlidingWindowMerger(daily_results)
        finals = merger.final_aliased_prefixes(window=3)
        assert finals
        for prefix in finals:
            assert tiny_internet.is_aliased_truth(prefix.first + 1)

    def test_window_stats_fields(self, daily_results):
        merger = SlidingWindowMerger(daily_results)
        stats = merger.window_stats(3)
        assert stats.window == 3
        assert 0 <= stats.unstable_prefixes <= stats.total_prefixes
        assert 0 <= stats.aliased_final <= stats.total_prefixes

    def test_vectorized_matches_scalar_engine(self, daily_results):
        """The bitmask-matrix sweep and the per-prefix dict walks agree."""
        vectorized = SlidingWindowMerger(daily_results)
        scalar = SlidingWindowMerger(daily_results, policy=REFERENCE)
        assert vectorized.sweep_windows(range(6)) == scalar.sweep_windows(range(6))
        for window in range(6):
            assert vectorized.final_aliased_prefixes(window) == scalar.final_aliased_prefixes(window)

    def test_large_fanout_within_mask_capacity(self):
        """Branch indices up to 63 fit the vectorized uint64 bitmask; beyond
        that the engine refuses loudly instead of overflowing."""
        from repro.netmodel.services import Protocol

        prefix = IPv6Prefix.parse("2001:db8::/64")
        outcome = PrefixProbeOutcome(
            prefix=prefix,
            day=0,
            targets=[prefix.first + i for i in range(40)],
            branch_responses=[{Protocol.ICMP} for _ in range(40)],
        )
        wide = APDResult.from_outcomes([outcome])
        merger = SlidingWindowMerger({0: wide})
        stats = merger.window_stats(0)  # 40 branches > 32: needs uint64 masks
        assert stats.aliased_final == 1
        assert merger.window_stats(0) == SlidingWindowMerger(
            {0: wide}, policy=REFERENCE
        ).window_stats(0)

        big = PrefixProbeOutcome(
            prefix=prefix,
            day=0,
            targets=[prefix.first + i for i in range(70)],
            branch_responses=[{Protocol.ICMP} for _ in range(70)],
        )
        overflow = APDResult.from_outcomes([big])
        with pytest.raises(ValueError, match=r"ExecutionPolicy\(reference=True\)"):
            SlidingWindowMerger({0: overflow}).window_stats(0)
        scalar = SlidingWindowMerger({0: overflow}, policy=REFERENCE)
        assert scalar.window_stats(0).aliased_final == 1

    def test_expected_fanout_from_window_not_hardcoded(self):
        """A <16-target prefix unprobed on the queried day must be judged
        against its own fan-out from the window, not a hardcoded 16."""
        from repro.addr import IPv6Address
        from repro.netmodel.services import Protocol

        narrow = IPv6Prefix.parse("2001:db8:ffff::/125")  # 3 host bits -> 8 targets
        other = IPv6Prefix.parse("2001:db8::/64")
        outcome = PrefixProbeOutcome(
            prefix=narrow,
            day=0,
            targets=[narrow.first + i for i in range(8)],
            branch_responses=[{Protocol.ICMP} for _ in range(8)],
        )
        filler = PrefixProbeOutcome(
            prefix=other,
            day=1,
            targets=[IPv6Address.parse("2001:db8::1")] * 16,
            branch_responses=[set() for _ in range(16)],
        )
        day0, day1 = APDResult.from_outcomes([outcome]), APDResult.from_outcomes([filler])
        for policy in (ExecutionPolicy(), REFERENCE):
            merger = SlidingWindowMerger({0: day0, 1: day1}, policy=policy)
            # All 8 of 8 branches answered within the window -> aliased.
            assert merger.windowed_is_aliased(narrow, 1, 1)
            # Window 0 has no outcome at all: falls back to the APD fan-out
            # constant and stays non-aliased.
            assert not merger.windowed_is_aliased(narrow, 1, 0)
            assert narrow in merger.final_aliased_prefixes(window=1)
