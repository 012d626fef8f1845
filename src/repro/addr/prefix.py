"""IPv6 prefixes (network + prefix length).

Prefixes are the unit of analysis for most of the paper: /32 allocation blocks
for entropy clustering (Section 4), prefixes between /64 and /124 for aliased
prefix detection (Section 5), and BGP-announced prefixes for the zesplot
visualizations and bias analysis.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterable

from repro.addr.address import BITS, FULL_MASK, IPv6Address, _to_int


@dataclass(frozen=True, order=True, slots=True)
class IPv6Prefix:
    """An IPv6 prefix ``network/length``.

    The ordering is lexicographic on ``(network, length)`` which keeps
    more-specific prefixes adjacent to their covering prefix when sorted.

    Parameters
    ----------
    network:
        The 128-bit integer of the first address in the prefix.  Host bits
        must be zero.
    length:
        The prefix length, 0..128.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= BITS:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= FULL_MASK:
            raise ValueError("network out of range")
        if self.network & self.hostmask:
            raise ValueError(
                f"host bits set in network {IPv6Address(self.network)}/{self.length}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "IPv6Prefix":
        """Parse textual CIDR notation, e.g. ``2001:db8::/32``."""
        net = ipaddress.IPv6Network(text, strict=True)
        return cls(int(net.network_address), net.prefixlen)

    @classmethod
    def of(cls, address: "IPv6Address | int | str", length: int) -> "IPv6Prefix":
        """The length-*length* prefix covering *address* (host bits cleared)."""
        value = _to_int(address)
        mask = _netmask(length)
        return cls(value & mask, length)

    # -- masks and bounds --------------------------------------------------

    @property
    def netmask(self) -> int:
        """Integer network mask for this prefix length."""
        return _netmask(self.length)

    @property
    def hostmask(self) -> int:
        """Integer host mask (complement of the netmask)."""
        return FULL_MASK ^ self.netmask

    @property
    def first(self) -> IPv6Address:
        """First address in the prefix."""
        return IPv6Address(self.network)

    @property
    def last(self) -> IPv6Address:
        """Last address in the prefix."""
        return IPv6Address(self.network | self.hostmask)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by the prefix (2^(128-length))."""
        return 1 << (BITS - self.length)

    # -- relations ---------------------------------------------------------

    def contains(self, item: "IPv6Address | IPv6Prefix | int | str") -> bool:
        """True if *item* (address or prefix) is fully covered by this prefix."""
        if isinstance(item, IPv6Prefix):
            return item.length >= self.length and (item.network & self.netmask) == self.network
        return (_to_int(item) & self.netmask) == self.network

    def __contains__(self, item: "IPv6Address | IPv6Prefix | int | str") -> bool:
        return self.contains(item)

    # -- enumeration -------------------------------------------------------

    def nth_subnet(self, new_length: int, index: int) -> "IPv6Prefix":
        """Return the *index*-th subnet of *new_length* without enumerating."""
        if new_length < self.length:
            raise ValueError("new_length must not be shorter than the prefix length")
        count = 1 << (new_length - self.length)
        if not 0 <= index < count:
            raise IndexError(f"subnet index {index} out of range for /{new_length}")
        step = 1 << (BITS - new_length)
        return IPv6Prefix(self.network + index * step, new_length)

    def address_at(self, offset: int) -> IPv6Address:
        """Address at *offset* from the start of the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise IndexError("offset outside prefix")
        return IPv6Address(self.network + offset)

    # -- representations ---------------------------------------------------

    def __str__(self) -> str:
        return f"{IPv6Address(self.network).compressed}/{self.length}"

    def __repr__(self) -> str:
        return f"IPv6Prefix({str(self)!r})"


def _netmask(length: int) -> int:
    if not 0 <= length <= BITS:
        raise ValueError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    return FULL_MASK ^ ((1 << (BITS - length)) - 1)


def parse_prefix(value: "IPv6Prefix | str") -> IPv6Prefix:
    """Coerce CIDR strings or prefixes to :class:`IPv6Prefix`."""
    if isinstance(value, IPv6Prefix):
        return value
    return IPv6Prefix.parse(value)


def group_by_prefix(
    addresses: Iterable["IPv6Address | int | str"], length: int
) -> dict[IPv6Prefix, list[IPv6Address]]:
    """Group addresses by their covering prefix of the given length."""
    groups: dict[IPv6Prefix, list[IPv6Address]] = {}
    for addr in addresses:
        value = _to_int(addr)
        prefix = IPv6Prefix.of(value, length)
        groups.setdefault(prefix, []).append(IPv6Address(value))
    return groups
