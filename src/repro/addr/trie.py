"""Longest-prefix matching over per-length hash tables.

Two parts of the paper need fast longest-prefix matching over large prefix
sets:

* mapping hitlist addresses to BGP-announced prefixes (Section 3, Figure 1c),
* filtering addresses that fall inside detected aliased prefixes
  (Section 5.1: "After the APD probing, we perform longest-prefix matching to
  determine whether a specific IPv6 address falls into an aliased prefix").

A :class:`PrefixTrie` keeps one dict per stored prefix length, mapping the
prefix's network bits (``network >> (128 - length)``) to its value.  A lookup
probes the stored lengths longest-first, so it costs one dict probe per
distinct length -- a handful for a BGP table -- and every mutation is one
dict operation.  Values attached to prefixes are arbitrary Python objects.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.addr.address import BITS, _to_int
from repro.addr.prefix import IPv6Prefix

V = TypeVar("V")


class PrefixTrie(Generic[V]):
    """Map from IPv6 prefixes to values with longest-prefix-match lookup."""

    def __init__(self) -> None:
        self._tables: dict[int, dict[int, V]] = {}
        # (length, shift, table) per stored length, longest first.
        self._probes: tuple[tuple[int, int, dict[int, V]], ...] = ()

    # -- mutation ----------------------------------------------------------

    def insert(self, prefix: "IPv6Prefix | str", value: V) -> None:
        """Insert *prefix* with *value*, replacing any existing value."""
        prefix = _coerce_prefix(prefix)
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        table[prefix.network >> (BITS - prefix.length)] = value

    def _reindex(self) -> None:
        self._probes = tuple(
            (length, BITS - length, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, address: "int | str | object") -> Optional[V]:
        """Value of the most specific covering prefix, or None."""
        value = _to_int(address)
        for _, shift, table in self._probes:
            key = value >> shift
            if key in table:
                return table[key]
        return None

    def __contains__(self, prefix: "IPv6Prefix | str") -> bool:
        prefix = _coerce_prefix(prefix)
        table = self._tables.get(prefix.length, {})
        return prefix.network >> (BITS - prefix.length) in table

    # -- iteration ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def items(self) -> Iterator[tuple[IPv6Prefix, V]]:
        """Iterate all ``(prefix, value)`` pairs in lexicographic order."""
        entries = [
            (key << shift, length, value)
            for length, shift, table in self._probes
            for key, value in table.items()
        ]
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        for network, length, value in entries:
            yield IPv6Prefix(network, length), value


def _coerce_prefix(prefix: "IPv6Prefix | str") -> IPv6Prefix:
    if isinstance(prefix, IPv6Prefix):
        return prefix
    return IPv6Prefix.parse(prefix)
