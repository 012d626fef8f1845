"""Property-style parity tests: AddressBatch ops vs scalar IPv6Address ops.

Every bulk operation of the columnar substrate must agree exactly with the
per-address reference implementation on randomized inputs; these tests are
the contract that lets the batch probing engine replace the scalar hot loops.
"""

import random

import numpy as np
import pytest

from repro.addr import IPv6Address, IPv6Prefix, PrefixTrie
from repro.addr.address import FULL_MASK
from repro.addr.batch import (
    AddressBatch,
    FlatLPM,
    batch_fanout_targets,
    find128,
    prefix_columns,
    random_batch_in_prefix,
    searchsorted128,
)
from repro.addr.generate import fanout_targets


def _random_values(rng: random.Random, count: int) -> list[int]:
    """Random 128-bit values plus the structural edge cases."""
    values = [rng.getrandbits(128) for _ in range(count)]
    values += [0, FULL_MASK, 1 << 64, (1 << 64) - 1]
    # EUI-64-marked IIDs so is_slaac_eui64 has positives to check.
    for _ in range(count // 4):
        base = rng.getrandbits(128)
        values.append((base & ~(0xFFFF << 24)) | (0xFFFE << 24))
    return values


@pytest.fixture(scope="module")
def values():
    return _random_values(random.Random(1234), 400)


@pytest.fixture(scope="module")
def batch(values):
    return AddressBatch.from_ints(values)


@pytest.fixture(scope="module")
def scalars(values):
    return [IPv6Address(v) for v in values]


class TestAddressBatchParity:
    def test_round_trip(self, batch, values):
        assert batch.to_ints() == values
        assert [a.value for a in batch.to_addresses()] == values

    def test_from_addresses_accepts_mixed_inputs(self):
        batch = AddressBatch.from_addresses(
            ["2001:db8::1", 5, IPv6Address.parse("::ff")]
        )
        assert batch.to_ints() == [0x20010DB8 << 96 | 1, 5, 0xFF]

    @pytest.mark.parametrize("index", [1, 2, 8, 15, 16, 17, 20, 31, 32])
    def test_nybble(self, batch, scalars, index):
        expected = np.array([a.nybble(index) for a in scalars])
        assert (batch.nybble(index) == expected).all()

    def test_nybbles_matrix(self, batch, scalars):
        matrix = batch.nybbles_matrix(9, 32)
        expected = np.array(
            [[int(c, 16) for c in a.nybbles[8:32]] for a in scalars], dtype=np.uint8
        )
        assert (matrix == expected).all()

    @pytest.mark.parametrize("length", [0, 1, 17, 32, 48, 63, 64, 65, 96, 124, 127, 128])
    def test_masked_matches_prefix_of(self, batch, scalars, length):
        expected = [IPv6Prefix.of(a, length).network for a in scalars]
        assert batch.masked(length).to_ints() == expected

    def test_is_slaac_eui64(self, batch, scalars):
        expected = np.array([a.is_slaac_eui64 for a in scalars])
        got = batch.is_slaac_eui64()
        assert got.any()  # fixture plants EUI-64 positives
        assert (got == expected).all()

    def test_hamming_weights(self, batch, scalars):
        assert (
            batch.iid_hamming_weight() == np.array([a.iid_hamming_weight for a in scalars])
        ).all()
        assert (
            batch.hamming_weight() == np.array([a.value.bit_count() for a in scalars])
        ).all()

    def test_mac_vendor_oui(self, batch, scalars):
        expected = np.array(
            [-1 if a.mac_vendor_oui() is None else a.mac_vendor_oui() for a in scalars]
        )
        assert (batch.mac_vendor_oui() == expected).all()

    def test_sort_and_unique(self, batch, values):
        assert batch.sort().to_ints() == sorted(values)
        assert batch.unique().to_ints() == sorted(set(values))

    def test_iteration_and_indexing(self, batch, scalars):
        assert batch[3] == scalars[3]
        assert list(batch)[:5] == scalars[:5]

    def test_concatenate(self, values):
        half = len(values) // 2
        joined = AddressBatch.concatenate(
            [AddressBatch.from_ints(values[:half]), AddressBatch.from_ints(values[half:])]
        )
        assert joined.to_ints() == values

    def test_empty(self):
        empty = AddressBatch.empty()
        assert len(empty) == 0
        assert empty.to_ints() == []
        assert empty.unique().to_ints() == []

    @pytest.mark.parametrize("length", [16, 32, 48, 64, 96])
    def test_prefix_groups_matches_group_by_prefix(self, batch, scalars, length):
        from repro.addr.prefix import group_by_prefix

        order, starts, networks = batch.prefix_groups(length)
        counts = np.diff(np.append(starts, len(batch)))
        expected = group_by_prefix(scalars, length)
        # One group per distinct prefix, networks ascending.
        assert networks.to_ints() == sorted(p.network for p in expected)
        by_network = {p.network: members for p, members in expected.items()}
        sorted_batch = batch.take(order)
        for g, network in enumerate(networks.to_ints()):
            start, count = int(starts[g]), int(counts[g])
            members = sorted_batch.to_ints()[start : start + count]
            assert sorted(members) == sorted(a.value for a in by_network[network])

    def test_prefix_groups_empty(self):
        order, starts, networks = AddressBatch.empty().prefix_groups(32)
        assert order.size == 0 and starts.size == 0 and len(networks) == 0


class TestSearch128:
    def test_searchsorted_matches_python_bisect(self):
        import bisect

        rng = random.Random(9)
        haystack = sorted(rng.getrandbits(128) for _ in range(500))
        hay = AddressBatch.from_ints(haystack)
        queries = [rng.getrandbits(128) for _ in range(300)] + haystack[:50]
        q = AddressBatch.from_ints(queries)
        right = searchsorted128(hay.hi, hay.lo, q.hi, q.lo, side="right")
        left = searchsorted128(hay.hi, hay.lo, q.hi, q.lo, side="left")
        assert right.tolist() == [bisect.bisect_right(haystack, v) for v in queries]
        assert left.tolist() == [bisect.bisect_left(haystack, v) for v in queries]

    def test_find128_exact_matches(self):
        rng = random.Random(10)
        haystack = sorted(set(rng.getrandbits(128) for _ in range(200)))
        hay = AddressBatch.from_ints(haystack)
        queries = haystack[::3] + [rng.getrandbits(128) for _ in range(100)]
        q = AddressBatch.from_ints(queries)
        positions = find128(hay.hi, hay.lo, q.hi, q.lo)
        for query, pos in zip(queries, positions.tolist()):
            if query in set(haystack):
                assert haystack[pos] == query
            else:
                assert pos == -1


class TestFlatLPM:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_trie_longest_prefix_match(self, seed):
        rng = random.Random(seed)
        prefixes: set[IPv6Prefix] = set()
        # Nested structure: base prefixes plus more-specifics inside them.
        for _ in range(120):
            base = IPv6Prefix.of(rng.getrandbits(128), rng.choice([32, 48, 64]))
            prefixes.add(base)
            if rng.random() < 0.6:
                inner_len = base.length + rng.choice([4, 16, 32, 60])
                inner = IPv6Prefix.of(
                    base.network | rng.getrandbits(128 - base.length), min(inner_len, 128)
                )
                prefixes.add(inner)
        pairs = [(p, i) for i, p in enumerate(sorted(prefixes))]
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, value in pairs:
            trie.insert(prefix, value)
        flat = FlatLPM(*prefix_columns(p for p, _ in pairs), [v for _, v in pairs])
        queries = [rng.getrandbits(128) for _ in range(500)]
        for prefix, _ in pairs[:80]:
            offset = rng.getrandbits(128 - prefix.length) if prefix.length < 128 else 0
            queries.append(prefix.network | offset)
        batch = AddressBatch.from_ints(queries)
        got = flat.lookup_indices(batch).tolist()
        expected = [
            -1 if trie.lookup(q) is None else trie.lookup(q) for q in queries
        ]
        assert got == expected

    def test_lookup_values_and_empty(self):
        flat = FlatLPM(*prefix_columns([]), [])
        batch = AddressBatch.from_ints([0, 1, FULL_MASK])
        assert flat.lookup_indices(batch).tolist() == [-1, -1, -1]
        full = FlatLPM(*prefix_columns([IPv6Prefix(0, 0)]), ["everything"])
        assert full.lookup_indices(batch).tolist() == [0, 0, 0]
        assert full.objects == ["everything"]


class TestBatchFanout:
    def test_targets_land_in_their_branch(self):
        rng = random.Random(5)
        prefixes = [
            IPv6Prefix.of(rng.getrandbits(128), length)
            for length in (64, 68, 72, 100, 124, 126, 61)
        ]
        targets, prefix_index, branch = batch_fanout_targets(prefixes, seed=7)
        offset = 0
        for i, prefix in enumerate(prefixes):
            sub_length = min(prefix.length + 4, 128)
            count = 1 << (sub_length - prefix.length)
            for k in range(count):
                target = targets[offset + k]
                assert prefix_index[offset + k] == i
                assert branch[offset + k] == k
                assert target in prefix.nth_subnet(sub_length, k)
            offset += count
        assert offset == len(targets)

    def test_same_targets_as_scalar_fanout(self):
        prefix = IPv6Prefix.parse("2001:db8:407:8000::/64")
        scalar = fanout_targets(prefix, seed=3, day=2)
        targets, _, branch = batch_fanout_targets([prefix], seed=3, day=2)
        assert len(targets) == len(scalar) == 16
        assert branch.tolist() == list(range(16))
        # Same fan-out shape: nybble 17 enumerates 0..f in both engines.
        assert sorted(t.nybble(17) for t in targets) == list(range(16))
        # Keyed host bits: the two engines build the very same addresses,
        # in both limbs (short prefixes) and at the enumerated tail.
        prefixes = [prefix] + [
            IPv6Prefix.parse(p) for p in ("2001:db8::/32", "2001:db8:1::/48", "2001:db8::/126")
        ]
        batch, _, _ = batch_fanout_targets(prefixes, seed=3, day=2)
        assert batch.to_addresses() == [
            target for p in prefixes for target in fanout_targets(p, seed=3, day=2)
        ]

    def test_fanout_is_keyed_on_prefix_not_batch(self):
        """A prefix's targets do not depend on the other prefixes built with
        it, and change with the seed and the day."""
        prefixes = [IPv6Prefix.of(0x20010DB8 << 96 | i << 64, 64) for i in range(5)]
        together, _, _ = batch_fanout_targets(prefixes, seed=1, day=4)
        alone, _, _ = batch_fanout_targets(prefixes[3:4], seed=1, day=4)
        assert together.to_ints()[48:64] == alone.to_ints()
        for other in ({"seed": 2, "day": 4}, {"seed": 1, "day": 5}):
            moved, _, _ = batch_fanout_targets(prefixes[3:4], **other)
            assert not set(moved.to_ints()) & set(alone.to_ints())

    def test_empty_prefix_list(self):
        targets, prefix_index, branch = batch_fanout_targets([])
        assert len(targets) == 0 and len(prefix_index) == 0 and len(branch) == 0

    def test_random_batch_in_prefix_stays_inside(self):
        prefix = IPv6Prefix.parse("2001:db8::/48")
        batch = random_batch_in_prefix(prefix, 500, np.random.default_rng(1))
        assert all(a in prefix for a in batch)
