"""IPv6 address primitives.

The paper works on IPv6 addresses as sequences of 32 *nybbles* (hex
characters), e.g. for entropy fingerprints (Section 4) and for detecting
SLAAC/EUI-64 addresses (``ff:fe`` in the interface identifier, Section 3).

We keep addresses as plain 128-bit integers wrapped in a small immutable
class.  The standard library :mod:`ipaddress` module is used only for parsing
and for producing canonical textual output; all hot paths operate on integers.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Iterable

#: Number of nybbles (hex characters) in a full IPv6 address.
NYBBLES = 32

#: Number of bits in an IPv6 address.
BITS = 128

#: Mask covering the full 128-bit address space.
FULL_MASK = (1 << BITS) - 1

#: Mask of the low 64 bits (the interface identifier).
LO_MASK = (1 << 64) - 1


def _to_int(value: "IPv6Address | int | str") -> int:
    """Coerce *value* to a 128-bit integer address."""
    if isinstance(value, IPv6Address):
        return value.value
    if isinstance(value, int):
        if not 0 <= value <= FULL_MASK:
            raise ValueError(f"address integer out of range: {value!r}")
        return value
    if isinstance(value, str):
        return int(ipaddress.IPv6Address(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as an IPv6 address")


@dataclass(frozen=True, order=True, slots=True)
class IPv6Address:
    """A single IPv6 address stored as a 128-bit integer.

    The class is hashable and totally ordered so that addresses can be used in
    sets, sorted hitlists and numpy conversions without friction.

    Parameters
    ----------
    value:
        The 128-bit integer value of the address.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= FULL_MASK:
            raise ValueError(f"address integer out of range: {self.value!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "IPv6Address":
        """Parse a textual IPv6 address (any RFC 5952 form)."""
        return cls(int(ipaddress.IPv6Address(text)))

    # -- representations ---------------------------------------------------

    @property
    def exploded(self) -> str:
        """Fully expanded lowercase representation (8 groups of 4 nybbles)."""
        hexstr = self.nybbles
        return ":".join(hexstr[i : i + 4] for i in range(0, NYBBLES, 4))

    @property
    def compressed(self) -> str:
        """Canonical RFC 5952 compressed representation."""
        return str(ipaddress.IPv6Address(self.value))

    @property
    def nybbles(self) -> str:
        """The address as a string of 32 hex characters."""
        return f"{self.value:032x}"

    def nybble(self, index: int) -> int:
        """Return nybble *index* (1-based, as in the paper's Eq. 2) as an int.

        Nybble 1 is the most significant hex character, nybble 32 the least
        significant one.
        """
        if not 1 <= index <= NYBBLES:
            raise IndexError(f"nybble index out of range: {index}")
        shift = 4 * (NYBBLES - index)
        return (self.value >> shift) & 0xF

    # -- structure ---------------------------------------------------------

    @property
    def network_part(self) -> int:
        """The upper 64 bits (network identifier)."""
        return self.value >> 64

    @property
    def iid(self) -> int:
        """The lower 64 bits (interface identifier)."""
        return self.value & ((1 << 64) - 1)

    @property
    def is_slaac_eui64(self) -> bool:
        """True if the IID carries the ``ff:fe`` EUI-64 marker (bytes 11-12 of the IID)."""
        return is_slaac_eui64(self.value)

    @property
    def iid_hamming_weight(self) -> int:
        """Number of bits set in the interface identifier.

        The paper (Section 8) uses the IID hamming weight to infer the presence
        of clients with privacy extensions: pseudo-random IIDs have a weight
        close to 32, whereas low-numbered server addresses have small weights.
        """
        return self.iid.bit_count()

    def mac_vendor_oui(self) -> int | None:
        """Extract the 24-bit vendor OUI from an EUI-64 IID, or None.

        The universal/local bit is flipped back as per RFC 4291 Appendix A.
        """
        if not self.is_slaac_eui64:
            return None
        iid = self.iid
        oui = (iid >> 40) & 0xFFFFFF
        return oui ^ 0x020000

    # -- arithmetic --------------------------------------------------------

    def __int__(self) -> int:
        return self.value

    def __add__(self, offset: int) -> "IPv6Address":
        return IPv6Address((self.value + offset) & FULL_MASK)

    def __sub__(self, other: "IPv6Address | int") -> int:
        return self.value - _to_int(other)

    def __str__(self) -> str:
        return self.compressed

    def __repr__(self) -> str:
        return f"IPv6Address({self.compressed!r})"


def parse_address(value: "IPv6Address | int | str") -> IPv6Address:
    """Coerce strings, integers or addresses to :class:`IPv6Address`."""
    if isinstance(value, IPv6Address):
        return value
    return IPv6Address(_to_int(value))


def nybbles_of(value: "IPv6Address | int | str") -> str:
    """Return the 32-character nybble string of an address-like value."""
    return f"{_to_int(value):032x}"


def hamming_weight(value: "IPv6Address | int | str") -> int:
    """Number of bits set across the full 128-bit address."""
    return _to_int(value).bit_count()


def iid_hamming_weight(value: "IPv6Address | int | str") -> int:
    """Number of bits set in the 64-bit interface identifier."""
    return (_to_int(value) & ((1 << 64) - 1)).bit_count()


def is_slaac_eui64(value: "IPv6Address | int | str") -> bool:
    """True when the interface identifier embeds the EUI-64 ``ff:fe`` marker.

    SLAAC EUI-64 interface identifiers are built from a MAC address by
    inserting ``0xfffe`` between the OUI and the NIC-specific bytes; the marker
    therefore sits in bits 24-39 of the IID.
    """
    iid = _to_int(value) & ((1 << 64) - 1)
    return (iid >> 24) & 0xFFFF == 0xFFFE


def addresses_to_ints(addresses: Iterable["IPv6Address | int | str"]) -> list[int]:
    """Convert an iterable of address-like values to plain integers."""
    return [_to_int(a) for a in addresses]
