"""Property-based tests (hypothesis) for the columnar address substrate.

The scalar primitives are the oracles: ``union_sorted`` against Python set
algebra, ``FlatLPM`` against the bit-walking :class:`PrefixTrie`,
``searchsorted128`` against :mod:`bisect`, and the hi/lo packing against
plain 128-bit integer arithmetic.  Randomised inputs cover the corners the
hand-written parity tests cannot enumerate (empty sides, duplicate-heavy
inputs, nested prefixes, /0 and /128 extremes, and the 16-byte keys' corner
words).
"""

import bisect

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.addr.address import IPv6Address
from repro.addr.batch import (
    AddressBatch,
    FlatLPM,
    find128,
    searchsorted128,
    union_sorted,
)
from repro.addr.prefix import IPv6Prefix
from repro.addr.trie import PrefixTrie

#: 64-bit words at the corners of the packed byte order: zero bytes, the
#: sign bit and the extremes.  Few distinct words, so lists of such values
#: also carry long runs of equal ``hi``.
CORNER_WORDS = (0, 1, 0xFF, 0x100, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)
address_ints = st.one_of(
    st.integers(min_value=0, max_value=2**128 - 1),
    st.builds(
        lambda hi, lo: hi << 64 | lo,
        st.sampled_from(CORNER_WORDS),
        st.sampled_from(CORNER_WORDS),
    ),
)
address_lists = st.lists(address_ints, max_size=200)
prefix_specs = st.tuples(address_ints, st.integers(min_value=0, max_value=128))


def _split(value: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & ((1 << 64) - 1))


class TestPackUnpack:
    @settings(deadline=None)
    @given(address_lists)
    def test_int_round_trip(self, values):
        batch = AddressBatch.from_ints(values)
        assert batch.to_ints() == values

    @settings(deadline=None)
    @given(address_lists)
    def test_address_round_trip(self, values):
        addresses = [IPv6Address(v) for v in values]
        batch = AddressBatch.from_addresses(addresses)
        assert batch.to_addresses() == addresses
        assert batch.nybble_strings() == [a.nybbles for a in addresses]

    @settings(deadline=None)
    @given(address_lists, st.integers(min_value=0, max_value=128))
    def test_masked_matches_scalar_prefix(self, values, length):
        batch = AddressBatch.from_ints(values).masked(length)
        expected = [IPv6Prefix.of(v, length).network for v in values]
        assert batch.to_ints() == expected

    @settings(deadline=None)
    @given(address_lists)
    def test_unique_stable_matches_dict_dedup(self, values):
        batch = AddressBatch.from_ints(values).unique_stable()
        assert batch.to_ints() == list(dict.fromkeys(values))

    @settings(deadline=None)
    @given(address_lists)
    def test_unique_is_sorted_set(self, values):
        batch = AddressBatch.from_ints(values).unique()
        assert batch.to_ints() == sorted(set(values))


class TestUnionSorted:
    @settings(deadline=None)
    @given(address_lists, address_lists)
    def test_merge_invariants(self, base_values, incoming_values):
        base = AddressBatch.from_ints(base_values).unique()
        incoming = AddressBatch.from_ints(incoming_values).unique()
        merged, base_pos, incoming_pos, is_new = union_sorted(base, incoming)
        merged_ints = merged.to_ints()
        # Output sortedness + dedup: exactly the sorted set union.
        assert merged_ints == sorted(set(base_values) | set(incoming_values))
        # Position maps point every input row at its merged position.
        assert [merged_ints[p] for p in base_pos.tolist()] == base.to_ints()
        assert [merged_ints[p] for p in incoming_pos.tolist()] == incoming.to_ints()
        # is_new flags rows absent from the base.
        base_set = set(base_values)
        assert is_new.tolist() == [v not in base_set for v in incoming.to_ints()]

    @settings(deadline=None)
    @given(address_lists, address_lists, address_lists)
    def test_searchsorted_and_find_match_bisect(self, haystack, queries, extra):
        sorted_values = sorted(set(haystack))
        batch = AddressBatch.from_ints(sorted_values)
        # Mix of arbitrary queries and guaranteed hits.
        query_values = queries + haystack[: len(extra)]
        query = AddressBatch.from_ints(query_values)
        for side in ("left", "right"):
            positions = searchsorted128(batch.hi, batch.lo, query.hi, query.lo, side)
            oracle = [
                bisect.bisect_left(sorted_values, v)
                if side == "left"
                else bisect.bisect_right(sorted_values, v)
                for v in query_values
            ]
            assert positions.tolist() == oracle
        hits = find128(batch.hi, batch.lo, query.hi, query.lo)
        oracle_hits = [
            sorted_values.index(v) if v in set(sorted_values) else -1
            for v in query_values
        ]
        assert hits.tolist() == oracle_hits


class TestFlatLPMOracle:
    @settings(deadline=None)
    @given(st.lists(prefix_specs, max_size=40), st.lists(address_ints, max_size=60))
    def test_lookup_matches_prefix_trie(self, specs, queries):
        prefixes = list(dict.fromkeys(IPv6Prefix.of(v, length) for v, length in specs))
        flat = FlatLPM((p, i) for i, p in enumerate(prefixes))
        trie: PrefixTrie[int] = PrefixTrie()
        for i, prefix in enumerate(prefixes):
            trie.insert(prefix, i)
        # Arbitrary queries plus the edges of every stored prefix (first and
        # last covered address), where off-by-one interval bugs would hide.
        query_values = list(queries)
        for prefix in prefixes:
            query_values.append(prefix.network)
            query_values.append(prefix.network | (prefix.num_addresses - 1))
        if not query_values:
            return
        batch = AddressBatch.from_ints(query_values)
        flat_results = [
            None if i < 0 else i for i in flat.lookup_indices(batch).tolist()
        ]
        trie_results = [trie.lookup(v) for v in query_values]
        assert flat_results == trie_results
