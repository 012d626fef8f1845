"""TCP options fingerprint probe module.

Reproduces the ZMap TCP-options module the paper uses in Section 5.4: each
target is probed twice on TCP/80 with the option set MSS-SACK-TS-WS, and the
reply's option string, MSS, window size/scale, iTTL and TCP timestamps are
recorded.  The consistency checks that interpret these records live in
:mod:`repro.core.consistency`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.addr.address import IPv6Address
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.packets import ProbeReply
from repro.netmodel.services import Protocol


@dataclass(slots=True)
class FingerprintRecord:
    """Fingerprint observations for one target address (2 probes)."""

    address: IPv6Address
    replies: list[ProbeReply] = field(default_factory=list)

    @property
    def responded(self) -> bool:
        return bool(self.replies)

    @property
    def ittls(self) -> list[int]:
        return [r.ittl for r in self.replies]

    @property
    def options_texts(self) -> list[str]:
        return [r.options_text for r in self.replies]

    @property
    def mss_values(self) -> list[int]:
        return [r.mss for r in self.replies if r.mss is not None]

    @property
    def window_sizes(self) -> list[int]:
        return [r.window_size for r in self.replies if r.window_size is not None]

    @property
    def window_scales(self) -> list[int]:
        return [r.window_scale for r in self.replies if r.window_scale is not None]

    @property
    def timestamps(self) -> list[tuple[float, int]]:
        """(receive time, remote TSval) pairs for replies carrying timestamps."""
        return [
            (r.receive_time, r.tcp_timestamp)
            for r in self.replies
            if r.tcp_timestamp is not None
        ]


class FingerprintProbe:
    """Send paired TCP/80 fingerprinting probes to target addresses."""

    #: Seconds between the two consecutive probes of one target.
    PROBE_SPACING = 0.5

    def __init__(self, internet: SimulatedInternet, seed: int = 0, probes_per_target: int = 2):
        self.internet = internet
        self.probes_per_target = probes_per_target
        self._rng = random.Random(seed)

    def probe(self, address: IPv6Address, day: int = 0) -> FingerprintRecord:
        """Fingerprint one address with consecutive TCP/80 probes.

        Probe *i* is probe attempt *i*, so each one draws its loss and
        anomalies afresh.
        """
        record = FingerprintRecord(address=address)
        base_time = self._rng.uniform(0, 80000)
        for i in range(self.probes_per_target):
            reply = self.internet.probe(
                address,
                Protocol.TCP80,
                day=day,
                time_of_day=base_time + i * self.PROBE_SPACING,
                attempt=i,
            )
            if reply is not None:
                record.replies.append(reply)
        return record

    def probe_all(
        self, addresses: Iterable[IPv6Address], day: int = 0
    ) -> dict[IPv6Address, FingerprintRecord]:
        """Fingerprint a whole set of addresses."""
        return {address: self.probe(address, day) for address in addresses}
