"""Tests for repro.addr.trie (longest-prefix matching)."""

import random

from hypothesis import given, strategies as st

from repro.addr import IPv6Address, IPv6Prefix, PrefixTrie


class TestBasicOperations:
    def test_insert_and_exact_lookup(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", "a")
        assert list(trie.items()) == [(IPv6Prefix.parse("2001:db8::/32"), "a")]
        assert "2001:db8::/32" in trie
        assert len(trie) == 1

    def test_insert_replaces_value(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", "a")
        trie.insert("2001:db8::/32", "b")
        assert trie.lookup("2001:db8::1") == "b"
        assert len(trie) == 1

    def test_missing_exact(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", 1)
        assert "2001:db8::/48" not in trie
        assert "2001:db8::/32" in trie


class TestLongestPrefixMatch:
    def test_most_specific_wins(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", "short")
        trie.insert("2001:db8:1::/48", "long")
        assert trie.lookup("2001:db8:1::1") == "long"
        assert trie.lookup("2001:db8:2::1") == "short"

    def test_no_match(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", "v")
        assert trie.lookup("2002::1") is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert("::/0", "default")
        trie.insert("2001:db8::/32", "specific")
        assert trie.lookup("1::1") == "default"
        assert trie.lookup("2001:db8::1") == "specific"

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::1/128", "host")
        assert trie.lookup("2001:db8::1") == "host"
        assert trie.lookup("2001:db8::2") is None

    def test_accepts_address_objects_and_ints(self):
        trie = PrefixTrie()
        trie.insert("2001:db8::/32", "v")
        assert trie.lookup(IPv6Address.parse("2001:db8::1")) == "v"
        assert trie.lookup(int(IPv6Address.parse("2001:db8::1"))) == "v"


class TestIteration:
    def test_items_sorted(self):
        trie = PrefixTrie()
        prefixes = ["2001:db8::/32", "2001:db8::/48", "2001:db7::/32", "::/0"]
        for i, p in enumerate(prefixes):
            trie.insert(p, i)
        listed = [p for p, _ in trie.items()]
        assert listed == sorted(IPv6Prefix.parse(p) for p in prefixes)


#: Addresses for the model test: random ones, plus shared anchors so that
#: stored prefixes nest and queries fall inside them.
_ADDRESSES = st.one_of(
    st.integers(min_value=0, max_value=2**128 - 1),
    st.sampled_from((0, 1 << 127, 0x20010DB8 << 96, (0x20010DB8 << 96) | 0xFFFF)),
)


class TestAgainstReferenceModel:
    @given(
        st.lists(
            st.builds(IPv6Prefix.of, _ADDRESSES, st.integers(min_value=0, max_value=128)),
            min_size=1,
            max_size=30,
        ),
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=60),
        st.lists(_ADDRESSES, min_size=1, max_size=20),
    )
    def test_matches_bruteforce(self, pool, operations, queries):
        """Inserts and value replacements track a dict."""
        trie = PrefixTrie()
        model = {}
        for step, i in enumerate(operations):
            prefix = pool[i % len(pool)]
            trie.insert(prefix, step)
            model[prefix] = step
            assert len(trie) == len(model)
            assert prefix in trie
        assert list(trie.items()) == sorted(model.items())
        for q in queries:
            covering = [p for p in model if q in p]
            expected = max(covering, key=lambda p: p.length) if covering else None
            assert trie.lookup(q) == (None if expected is None else model[expected])

    def test_many_random_disjoint_prefixes(self):
        rng = random.Random(7)
        trie = PrefixTrie()
        base = IPv6Prefix.parse("2001:db8::/32")
        subs = [base.nth_subnet(40, i) for i in range(256)]
        for i, sub in enumerate(subs):
            trie.insert(sub, i)
        assert len(trie) == 256
        for i, sub in enumerate(rng.sample(subs, 32)):
            idx = subs.index(sub)
            assert trie.lookup(sub.first) == idx
            assert trie.lookup(sub.last) == idx
