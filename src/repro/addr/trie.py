"""Binary radix trie with longest-prefix matching.

Two parts of the paper need fast longest-prefix matching over large prefix
sets:

* mapping hitlist addresses to BGP-announced prefixes (Section 3, Figure 1c),
* filtering addresses that fall inside detected aliased prefixes
  (Section 5.1: "After the APD probing, we perform longest-prefix matching to
  determine whether a specific IPv6 address falls into an aliased prefix").

The trie stores one bit per level.  Lookups walk at most 128 levels; inserts
are O(length).  Values attached to prefixes are arbitrary Python objects.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.addr.address import BITS, _to_int
from repro.addr.prefix import IPv6Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value: bool = False


class PrefixTrie(Generic[V]):
    """Map from IPv6 prefixes to values with longest-prefix-match lookup."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    # -- mutation ----------------------------------------------------------

    def insert(self, prefix: "IPv6Prefix | str", value: V) -> None:
        """Insert *prefix* with *value*, replacing any existing value."""
        prefix = _coerce_prefix(prefix)
        node = self._root
        for bit in _bits(prefix.network, prefix.length):
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def remove(self, prefix: "IPv6Prefix | str") -> bool:
        """Remove *prefix*; returns True if it was present."""
        prefix = _coerce_prefix(prefix)
        node = self._root
        for bit in _bits(prefix.network, prefix.length):
            child = node.children[bit]
            if child is None:
                return False
            node = child
        if node.has_value:
            node.has_value = False
            node.value = None
            self._size -= 1
            return True
        return False

    # -- lookup ------------------------------------------------------------

    def longest_match(
        self, address: "int | str | object"
    ) -> Optional[tuple[IPv6Prefix, V]]:
        """Return the most specific ``(prefix, value)`` covering *address*."""
        value = _to_int(address)
        best = self._deepest_match(value)
        if best is None:
            return None
        length, best_value = best
        return IPv6Prefix.of(value, length), best_value

    def lookup(self, address: "int | str | object") -> Optional[V]:
        """Value of the most specific covering prefix, or None."""
        best = self._deepest_match(_to_int(address))
        return None if best is None else best[1]

    def covers(self, address: "int | str | object") -> bool:
        """True when any stored prefix covers *address*."""
        return self._deepest_match(_to_int(address)) is not None

    def _deepest_match(self, value: int) -> Optional[tuple[int, V]]:
        """``(length, value)`` of the most specific prefix covering *value*."""
        node = self._root
        best: Optional[tuple[int, V]] = None
        if node.has_value:
            best = (0, node.value)  # type: ignore[arg-type]
        for depth in range(1, BITS + 1):
            bit = (value >> (BITS - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth, node.value)  # type: ignore[arg-type]
        return best

    def get_exact(self, prefix: "IPv6Prefix | str") -> Optional[V]:
        """Value stored for exactly this prefix (no longest-prefix semantics)."""
        prefix = _coerce_prefix(prefix)
        node = self._root
        for bit in _bits(prefix.network, prefix.length):
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def __contains__(self, prefix: "IPv6Prefix | str") -> bool:
        prefix = _coerce_prefix(prefix)
        node = self._root
        for bit in _bits(prefix.network, prefix.length):
            child = node.children[bit]
            if child is None:
                return False
            node = child
        return node.has_value

    # -- iteration ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[tuple[IPv6Prefix, V]]:
        """Iterate all ``(prefix, value)`` pairs in lexicographic order."""
        yield from self._walk(self._root, 0, 0)

    def prefixes(self) -> Iterator[IPv6Prefix]:
        """Iterate all stored prefixes."""
        for prefix, _ in self.items():
            yield prefix

    def _walk(self, node: _Node[V], value: int, depth: int) -> Iterator[tuple[IPv6Prefix, V]]:
        if node.has_value:
            yield IPv6Prefix(value << (BITS - depth) if depth else 0, depth), node.value  # type: ignore[misc]
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                yield from self._walk(child, (value << 1) | bit, depth + 1)


def _bits(network: int, length: int) -> Iterator[int]:
    for depth in range(1, length + 1):
        yield (network >> (BITS - depth)) & 1


def _coerce_prefix(prefix: "IPv6Prefix | str") -> IPv6Prefix:
    if isinstance(prefix, IPv6Prefix):
        return prefix
    return IPv6Prefix.parse(prefix)
