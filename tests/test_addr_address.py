"""Tests for repro.addr.address."""

import pytest
from hypothesis import given, strategies as st

from repro.addr import (
    IPv6Address,
    hamming_weight,
    iid_hamming_weight,
    is_slaac_eui64,
    nybbles_of,
    parse_address,
)
from repro.addr.address import FULL_MASK, NYBBLES, addresses_to_ints


class TestParsing:
    def test_parse_compressed(self):
        addr = IPv6Address.parse("2001:db8::1")
        assert addr.value == 0x20010DB8000000000000000000000001

    def test_parse_exploded(self):
        addr = IPv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert addr == IPv6Address.parse("2001:db8::1")

    def test_parse_address_accepts_int(self):
        assert parse_address(1).value == 1

    def test_parse_address_accepts_existing(self):
        addr = IPv6Address(42)
        assert parse_address(addr) is addr

    def test_parse_address_rejects_bad_type(self):
        with pytest.raises(TypeError):
            parse_address(3.14)

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            IPv6Address(-1)
        with pytest.raises(ValueError):
            IPv6Address(FULL_MASK + 1)

    def test_invalid_text(self):
        with pytest.raises(ValueError):
            IPv6Address.parse("not-an-address")


class TestRepresentation:
    def test_nybbles_length(self):
        assert len(IPv6Address.parse("::1").nybbles) == NYBBLES

    def test_nybbles_value(self):
        addr = IPv6Address.parse("2001:db8::1")
        assert addr.nybbles == "20010db8000000000000000000000001"

    def test_exploded(self):
        addr = IPv6Address.parse("2001:db8::1")
        assert addr.exploded == "2001:0db8:0000:0000:0000:0000:0000:0001"

    def test_compressed_roundtrip(self):
        text = "2001:db8:407:8000::1"
        assert IPv6Address.parse(text).compressed == text

    def test_str_and_repr(self):
        addr = IPv6Address.parse("2001:db8::1")
        assert str(addr) == "2001:db8::1"
        assert "2001:db8::1" in repr(addr)

    def test_nybbles_of_helper(self):
        assert nybbles_of("::1") == "0" * 31 + "1"


class TestNybbleAccess:
    def test_first_nybble(self):
        assert IPv6Address.parse("2001:db8::1").nybble(1) == 0x2

    def test_last_nybble(self):
        assert IPv6Address.parse("2001:db8::1").nybble(32) == 0x1

    def test_nybble_out_of_range(self):
        addr = IPv6Address.parse("::1")
        with pytest.raises(IndexError):
            addr.nybble(0)
        with pytest.raises(IndexError):
            addr.nybble(33)

    @given(st.integers(min_value=0, max_value=FULL_MASK))
    def test_nybbles_match_nybble_method(self, value):
        addr = IPv6Address(value)
        text = addr.nybbles
        for j in range(1, NYBBLES + 1):
            assert int(text[j - 1], 16) == addr.nybble(j)


class TestStructure:
    def test_network_and_iid_split(self):
        addr = IPv6Address.parse("2001:db8::dead:beef")
        assert addr.network_part == 0x20010DB800000000
        assert addr.iid == 0xDEADBEEF

    def test_slaac_detection_positive(self):
        addr = IPv6Address.parse("2001:db8::0211:22ff:fe33:4455")
        assert addr.is_slaac_eui64
        assert is_slaac_eui64(addr)

    def test_slaac_detection_negative(self):
        assert not IPv6Address.parse("2001:db8::1").is_slaac_eui64

    def test_mac_vendor_oui_flips_ul_bit(self):
        # MAC 00:11:22:33:44:55 -> IID 0211:22ff:fe33:4455
        addr = IPv6Address.parse("2001:db8::0211:22ff:fe33:4455")
        assert addr.mac_vendor_oui() == 0x001122

    def test_mac_vendor_oui_none_for_non_slaac(self):
        assert IPv6Address.parse("2001:db8::1").mac_vendor_oui() is None

    def test_iid_hamming_weight(self):
        assert IPv6Address.parse("2001:db8::1").iid_hamming_weight == 1
        assert IPv6Address.parse("2001:db8::3").iid_hamming_weight == 2
        assert iid_hamming_weight("2001:db8::7") == 3

    def test_full_hamming_weight(self):
        assert hamming_weight("::") == 0
        assert hamming_weight("::f") == 4


class TestArithmeticAndOrdering:
    def test_addition(self):
        addr = IPv6Address.parse("2001:db8::1")
        assert (addr + 1).compressed == "2001:db8::2"

    def test_addition_wraps(self):
        assert (IPv6Address(FULL_MASK) + 1).value == 0

    def test_subtraction(self):
        a = IPv6Address.parse("2001:db8::10")
        b = IPv6Address.parse("2001:db8::1")
        assert a - b == 0xF

    def test_ordering(self):
        a = IPv6Address.parse("2001:db8::1")
        b = IPv6Address.parse("2001:db8::2")
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_hashable(self):
        assert len({IPv6Address(1), IPv6Address(1), IPv6Address(2)}) == 2

    def test_int_conversion(self):
        assert int(IPv6Address(99)) == 99

    def test_addresses_to_ints(self):
        assert addresses_to_ints(["::1", IPv6Address(2), 3]) == [1, 2, 3]


class TestProperties:
    @given(st.integers(min_value=0, max_value=FULL_MASK))
    def test_nybble_roundtrip(self, value):
        addr = IPv6Address(value)
        assert IPv6Address(int(addr.nybbles, 16)) == addr

    @given(st.integers(min_value=0, max_value=FULL_MASK))
    def test_compressed_roundtrip(self, value):
        addr = IPv6Address(value)
        assert IPv6Address.parse(addr.compressed) == addr

    @given(st.integers(min_value=0, max_value=FULL_MASK))
    def test_iid_weight_bounds(self, value):
        assert 0 <= iid_hamming_weight(value) <= 64
