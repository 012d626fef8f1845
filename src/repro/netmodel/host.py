"""Simulated hosts.

A host is the unit that actually answers probes: it owns one or more bound
addresses, a set of responsive services, one TCP/IP stack personality and a
temporal stability model.  Aliased prefixes are represented by a single host
bound to an entire prefix (see :mod:`repro.netmodel.aliased`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro import keyed
from repro.addr.address import IPv6Address
from repro.netmodel.fingerprints import StackPersonality
from repro.netmodel.packets import ProbeReply
from repro.netmodel.services import HostRole, Protocol


@dataclass(frozen=True, slots=True)
class StabilityModel:
    """When a host is online and answering.

    ``birth_day``/``death_day`` bound the host's lifetime in days (death_day
    is exclusive; ``None`` means the host never disappears during the study).
    ``daily_uptime`` is the probability the host is reachable on any given day
    of its lifetime, modelling diurnal clients and flaky CPE.  Servers have
    uptime close to 1, clients far below (Sections 6.3 and 9.3).

    The daily coin is a keyed draw on (``flap_seed``, ``host_id``, day), so
    two machines never share a coin, repeated probes within a day agree and
    consecutive days are independent.
    """

    birth_day: int = 0
    death_day: Optional[int] = None
    daily_uptime: float = 1.0
    flap_seed: int = 0
    #: The machine this model belongs to (:attr:`Host.host_id`).
    host_id: int = 0

    #: Cache of :attr:`coin_key` (-1 until first used).
    _coin_key: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def coin_key(self) -> int:
        """Per-machine base key of the daily coin, ``key(flap_seed, host_id)``."""
        if self._coin_key < 0:
            object.__setattr__(self, "_coin_key", keyed.key(self.flap_seed, self.host_id))
        return self._coin_key

    def coin(self, day: int) -> float:
        """The machine's uniform uptime draw for *day*."""
        return keyed.draw(self.coin_key, keyed.stream(keyed.UPTIME, day))

    def is_online(self, day: int) -> bool:
        """Deterministically decide whether the host is up on *day*."""
        if day < self.birth_day:
            return False
        if self.death_day is not None and day >= self.death_day:
            return False
        if self.daily_uptime >= 1.0:
            return True
        return self.coin(day) < self.daily_uptime


@dataclass(slots=True)
class Host:
    """One simulated machine."""

    host_id: int
    role: HostRole
    asn: int
    addresses: tuple[IPv6Address, ...]
    services: FrozenSet[Protocol]
    personality: StackPersonality
    stability: StabilityModel = field(default_factory=StabilityModel)
    #: Distance in router hops from the measurement vantage point.
    hops: int = 8

    def is_responsive(self, protocol: Protocol, day: int) -> bool:
        """Would this host answer a probe on *protocol* on *day*?"""
        return protocol in self.services and self.stability.is_online(day)

    def packet(
        self,
        address: IPv6Address,
        protocol: Protocol,
        day: int,
        time_of_day: float = 0.0,
    ) -> ProbeReply:
        """The reply packet for a probe this host has decided to answer."""
        now = day * 86400.0 + time_of_day
        ttl = max(1, self.personality.ittl - self.hops)
        if protocol.is_tcp:
            tsval = self.personality.timestamp_value(now, address.value)
            return ProbeReply(
                address=address,
                protocol=protocol,
                ttl=ttl,
                options_text=self.personality.options_for(protocol),
                mss=self.personality.mss,
                window_size=self.personality.window_size,
                window_scale=self.personality.window_scale,
                tcp_timestamp=tsval,
                receive_time=now,
            )
        return ProbeReply(address=address, protocol=protocol, ttl=ttl, receive_time=now)

    @property
    def primary_address(self) -> IPv6Address:
        """The first (canonical) address bound to the host."""
        return self.addresses[0]
