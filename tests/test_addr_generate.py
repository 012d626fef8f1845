"""Tests for repro.addr.generate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.addr import (
    IPv6Prefix,
    fanout_targets,
    random_address_in_prefix,
    random_addresses_in_prefix,
)
from repro.addr.generate import dedupe, sample_capped, spread_offsets


class TestRandomAddresses:
    def test_address_inside_prefix(self):
        rng = random.Random(1)
        prefix = IPv6Prefix.parse("2001:db8::/64")
        for _ in range(50):
            assert random_address_in_prefix(prefix, rng) in prefix

    def test_deterministic_given_seed(self):
        prefix = IPv6Prefix.parse("2001:db8::/64")
        a = random_address_in_prefix(prefix, random.Random(42))
        b = random_address_in_prefix(prefix, random.Random(42))
        assert a == b

    def test_full_length_prefix(self):
        prefix = IPv6Prefix.parse("2001:db8::1/128")
        assert random_address_in_prefix(prefix, random.Random(0)) == prefix.first

    def test_multiple_unique(self):
        rng = random.Random(3)
        addrs = random_addresses_in_prefix("2001:db8::/112", 100, rng)
        assert len(addrs) == 100
        assert len(set(addrs)) == 100

    def test_unique_overflow_raises(self):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            random_addresses_in_prefix("2001:db8::/127", 3, rng)

    def test_non_unique_allows_more(self):
        rng = random.Random(3)
        addrs = random_addresses_in_prefix("2001:db8::/127", 5, rng, unique=False)
        assert len(addrs) == 5


class TestFanout:
    def test_sixteen_targets(self):
        targets = fanout_targets("2001:db8:407:8000::/64", seed=0)
        assert len(targets) == 16

    def test_each_target_in_distinct_nybble_subprefix(self):
        prefix = IPv6Prefix.parse("2001:db8:407:8000::/64")
        targets = fanout_targets(prefix, seed=0)
        # nybble 17 (first IID nybble) must run 0..f exactly once
        nybble17 = sorted(t.nybbles[16] for t in targets)
        assert nybble17 == sorted("0123456789abcdef")
        assert all(t in prefix for t in targets)

    def test_long_prefix_fanout_clamped(self):
        targets = fanout_targets("2001:db8::/126", seed=0)
        assert len(targets) == 4
        assert len(set(targets)) == 4

    def test_rejects_other_fanout(self):
        with pytest.raises(ValueError):
            fanout_targets("2001:db8::/64", seed=0, fanout=8)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=32, max_value=96))
    @settings(max_examples=30)
    def test_fanout_always_inside_prefix(self, net_bits, length):
        prefix = IPv6Prefix.of(net_bits << 32, length)
        targets = fanout_targets(prefix, seed=1)
        assert all(t in prefix for t in targets)


class TestHelpers:
    def test_spread_offsets_even(self):
        prefix = IPv6Prefix.parse("2001:db8::/120")
        addrs = spread_offsets(prefix, 4)
        assert len(addrs) == 4
        assert addrs[0] == prefix.first
        assert all(a in prefix for a in addrs)

    def test_spread_offsets_empty(self):
        assert spread_offsets("2001:db8::/64", 0) == []

    def test_spread_offsets_caps_at_prefix_size(self):
        assert len(spread_offsets("2001:db8::/127", 10)) == 2

    def test_dedupe_preserves_order(self):
        from repro.addr import IPv6Address

        a, b = IPv6Address(1), IPv6Address(2)
        assert dedupe([a, b, a, b, a]) == [a, b]

    def test_sample_capped_small_population(self):
        from repro.addr import IPv6Address

        pop = [IPv6Address(i) for i in range(5)]
        assert sample_capped(pop, 10, random.Random(0)) == pop

    def test_sample_capped_large_population(self):
        from repro.addr import IPv6Address

        pop = [IPv6Address(i) for i in range(100)]
        sample = sample_capped(pop, 10, random.Random(0))
        assert len(sample) == 10
        assert set(sample) <= set(pop)

    def test_sample_capped_negative(self):
        with pytest.raises(ValueError):
            sample_capped([], -1, random.Random(0))
