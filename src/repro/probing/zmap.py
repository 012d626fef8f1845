"""ZMapv6-style prober.

The paper probes every hitlist target daily on ICMPv6, TCP/80, TCP/443,
UDP/53 and UDP/443 with ZMapv6.  This module provides the equivalent for the
simulated Internet: deterministic target shuffling, per-protocol sweeps, and
result objects the analysis code can consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.netmodel.internet import BatchProbeResult, ResolvedTargets, SimulatedInternet
from repro.netmodel.packets import ProbeReply
from repro.netmodel.services import ALL_PROTOCOLS, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.dynamics import WaveAdmission


@dataclass(slots=True)
class ScanResult:
    """Result of one single-protocol sweep."""

    protocol: Protocol
    day: int
    targets: int
    replies: dict[IPv6Address, ProbeReply] = field(default_factory=dict)

    @property
    def responsive(self) -> set[IPv6Address]:
        """Addresses that answered."""
        return set(self.replies)

    @property
    def response_rate(self) -> float:
        """Fraction of targets that answered."""
        return len(self.replies) / self.targets if self.targets else 0.0

    def __len__(self) -> int:
        return len(self.replies)


class ZMapScanner:
    """Multi-protocol responsiveness scanner over the simulated Internet."""

    def __init__(self, internet: SimulatedInternet, seed: int = 0):
        self.internet = internet
        self._rng = random.Random(seed)

    def scan(
        self,
        targets: Iterable[IPv6Address],
        protocol: Protocol,
        day: int = 0,
        *,
        wave: "Optional[WaveAdmission]" = None,
    ) -> ScanResult:
        """Probe all *targets* once on one protocol.

        With a *wave* (sub-day dynamics) probes carry the wave's
        timestamp and its token-bucket/rotation state.  Probe outcomes are
        keyed draws and wave admission is decided in address order, so the
        shuffle spreads load without changing any outcome.
        """
        target_list = list(targets)
        # ZMap shuffles targets to spread load; kept for fidelity.
        self._rng.shuffle(target_list)
        result = ScanResult(protocol=protocol, day=day, targets=len(target_list))
        time_of_day = 43200.0 if wave is None else (wave.time - day) * 86400.0
        for address in target_list:
            reply = self.internet.probe(address, protocol, day, time_of_day, wave=wave)
            if reply is not None:
                result.replies[address] = reply
        return result

    def sweep(
        self,
        targets: Iterable[IPv6Address],
        protocols: Sequence[Protocol] = ALL_PROTOCOLS,
        day: int = 0,
        *,
        wave: "Optional[WaveAdmission]" = None,
    ) -> dict[Protocol, ScanResult]:
        """Probe all targets on every protocol (the daily measurement)."""
        target_list = list(targets)
        return {
            protocol: self.scan(target_list, protocol, day, wave=wave)
            for protocol in protocols
        }

    def sweep_batch(
        self,
        targets: "ResolvedTargets | AddressBatch | Iterable[IPv6Address]",
        protocols: Sequence[Protocol] = ALL_PROTOCOLS,
        day: int = 0,
        *,
        wave: "Optional[WaveAdmission]" = None,
    ) -> BatchProbeResult:
        """Probe all targets on every protocol in one ``probe_batch`` call.

        The vectorised counterpart of :meth:`sweep`: the whole daily
        measurement -- all targets x all protocols -- is one resolver pass,
        returning the read-only (target x protocol) :class:`BatchProbeResult`
        instead of per-packet :class:`ProbeReply` objects.  Probe outcomes
        are keyed draws, so it answers as the scalar loop does, target for
        target.  *targets* may already be a resolution
        (:meth:`SimulatedInternet.resolve_targets`).
        """
        return self.internet.probe_batch(targets, protocols, day, wave=wave)

    @staticmethod
    def responsive_any(sweep_result: Mapping[Protocol, ScanResult]) -> set[IPv6Address]:
        """Addresses responsive on at least one protocol of a sweep."""
        responsive: set[IPv6Address] = set()
        for result in sweep_result.values():
            responsive |= result.responsive
        return responsive

    @staticmethod
    def responsive_on(
        sweep_result: Mapping[Protocol, ScanResult], protocol: Protocol
    ) -> set[IPv6Address]:
        """Addresses responsive on a specific protocol of a sweep."""
        result = sweep_result.get(protocol)
        return result.responsive if result else set()
