"""Tests for repro.addr.prefix."""

import pytest

from repro.addr import IPv6Address, IPv6Prefix, parse_prefix
from repro.addr.prefix import group_by_prefix


class TestConstruction:
    def test_parse(self):
        p = IPv6Prefix.parse("2001:db8::/32")
        assert p.network == 0x20010DB8 << 96
        assert p.length == 32

    def test_parse_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv6Prefix.parse("2001:db8::1/32")

    def test_of_clears_host_bits(self):
        p = IPv6Prefix.of("2001:db8::1", 32)
        assert p == IPv6Prefix.parse("2001:db8::/32")

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            IPv6Prefix(0, 129)
        with pytest.raises(ValueError):
            IPv6Prefix(0, -1)

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv6Prefix(1, 64)

    def test_parse_prefix_helper(self):
        p = IPv6Prefix.parse("2001:db8::/48")
        assert parse_prefix(p) is p
        assert parse_prefix("2001:db8::/48") == p


class TestMasksAndBounds:
    def test_num_addresses(self):
        assert IPv6Prefix.parse("2001:db8::/127").num_addresses == 2
        assert IPv6Prefix.parse("::/0").num_addresses == 2**128

    def test_first_last(self):
        p = IPv6Prefix.parse("2001:db8::/126")
        assert p.first == IPv6Address.parse("2001:db8::")
        assert p.last == IPv6Address.parse("2001:db8::3")

    def test_netmask_hostmask_complement(self):
        p = IPv6Prefix.parse("2001:db8::/64")
        assert p.netmask ^ p.hostmask == 2**128 - 1


class TestRelations:
    def test_contains_address(self):
        p = IPv6Prefix.parse("2001:db8::/32")
        assert "2001:db8:1234::1" in p
        assert IPv6Address.parse("2001:db9::1") not in p

    def test_contains_prefix(self):
        outer = IPv6Prefix.parse("2001:db8::/32")
        inner = IPv6Prefix.parse("2001:db8:1::/48")
        assert outer.contains(inner)
        assert not inner.contains(outer)



class TestEnumeration:
    def test_subnets_nybble_step(self):
        p = IPv6Prefix.parse("2001:db8:407:8000::/64")
        subs = [p.nth_subnet(68, i) for i in range(16)]
        assert [sub.first.nybble(17) for sub in subs] == list(range(16))
        assert all(sub in p for sub in subs)

    def test_nth_subnet_matches_enumeration(self):
        p = IPv6Prefix.parse("2001:db8::/60")
        for i in range(16):
            assert p.nth_subnet(64, i) == IPv6Prefix.of(p.network + (i << 64), 64)

    def test_nth_subnet_out_of_range(self):
        p = IPv6Prefix.parse("2001:db8::/64")
        with pytest.raises(IndexError):
            p.nth_subnet(68, 16)

    def test_subnets_shorter_raises(self):
        with pytest.raises(ValueError):
            IPv6Prefix.parse("2001:db8::/64").nth_subnet(60, 0)

    def test_address_at(self):
        p = IPv6Prefix.parse("2001:db8::/64")
        assert p.address_at(5) == IPv6Address.parse("2001:db8::5")
        with pytest.raises(IndexError):
            IPv6Prefix.parse("2001:db8::/127").address_at(2)


class TestOrderingAndText:
    def test_str(self):
        assert str(IPv6Prefix.parse("2001:db8::/32")) == "2001:db8::/32"

    def test_sort_groups_specifics_after_covering(self):
        a = IPv6Prefix.parse("2001:db8::/32")
        b = IPv6Prefix.parse("2001:db8::/48")
        c = IPv6Prefix.parse("2001:db8:1::/48")
        assert sorted([c, b, a]) == [a, b, c]

    def test_hashable(self):
        assert len({IPv6Prefix.parse("2001:db8::/32"), IPv6Prefix.of(0x20010DB8 << 96, 32)}) == 1


class TestGrouping:
    def test_group_by_prefix(self):
        addrs = ["2001:db8::1", "2001:db8::2", "2001:db9::1"]
        groups = group_by_prefix(addrs, 32)
        assert len(groups) == 2
        assert len(groups[IPv6Prefix.parse("2001:db8::/32")]) == 2

    def test_group_preserves_addresses(self):
        addrs = ["2001:db8::1", "2001:db8:0:1::1"]
        groups = group_by_prefix(addrs, 64)
        total = sum(len(v) for v in groups.values())
        assert total == 2
