"""Murdock et al.'s aliased prefix detection baseline (Section 5.5).

Murdock et al. (6Gen, IMC 2017) detect aliases on a best-effort basis: for
every /96 prefix containing seed addresses they probe three random addresses,
three probes each, and call the prefix aliased when all three random addresses
reply.  The paper compares its multi-level fan-out APD against this baseline
and finds it detects ~1 M additional hitlist addresses in aliased prefixes
while probing less than half as many addresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.addr.generate import random_addresses_in_prefix
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import APDResult
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import Protocol


@dataclass(slots=True)
class MurdockPrefixOutcome:
    """Probe outcome for one /96 prefix."""

    prefix: IPv6Prefix
    targets: list[IPv6Address]
    responsive: list[bool]

    @property
    def is_aliased(self) -> bool:
        """Aliased when every probed random address responded."""
        return bool(self.responsive) and all(self.responsive)

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    @property
    def probes_sent(self) -> int:
        return len(self.targets) * MurdockDetector.PROBES_PER_ADDRESS


class MurdockDetector:
    """Static /96 aliased prefix detection (the comparison baseline)."""

    PREFIX_LENGTH = 96
    ADDRESSES_PER_PREFIX = 3
    PROBES_PER_ADDRESS = 3

    def __init__(self, internet: SimulatedInternet, seed: int = 0, protocol: Protocol = Protocol.TCP80):
        self.internet = internet
        self.protocol = protocol
        self._rng = random.Random(seed)

    def candidate_prefixes(self, addresses: Sequence[IPv6Address]) -> list[IPv6Prefix]:
        """Every /96 prefix containing at least one hitlist address."""
        prefixes = {IPv6Prefix.of(address, self.PREFIX_LENGTH) for address in addresses}
        return sorted(prefixes)

    def probe_prefix(self, prefix: IPv6Prefix, day: int = 0) -> MurdockPrefixOutcome:
        """Probe three random addresses, three probes (attempts) each."""
        return self._probe_prefixes([prefix], day)[0]

    def run(self, addresses: Sequence[IPv6Address], day: int = 0) -> APDResult:
        """Run the baseline detection over a hitlist: one verdict table of /96s."""
        candidates = self.candidate_prefixes(addresses)
        return APDResult.from_outcomes(self._probe_prefixes(candidates, day))

    def _probe_prefixes(
        self, prefixes: Sequence[IPv6Prefix], day: int
    ) -> list[MurdockPrefixOutcome]:
        """Every prefix's targets, probed together: one ``probe_batch`` call
        per attempt over the targets still silent.

        Targets are drawn prefix by prefix from the detector's rng, and each
        attempt is a keyed draw, so the verdicts equal a per-target loop of
        scalar probes that stops at the first reply.
        """
        per_prefix = [
            random_addresses_in_prefix(prefix, self.ADDRESSES_PER_PREFIX, self._rng)
            for prefix in prefixes
        ]
        targets = AddressBatch.from_addresses([t for group in per_prefix for t in group])
        answered = np.zeros(len(targets), dtype=bool)
        for attempt in range(self.PROBES_PER_ADDRESS):
            silent = np.flatnonzero(~answered)
            if not silent.size:
                break
            result = self.internet.probe_batch(
                targets.take(silent), (self.protocol,), day, attempt=attempt
            )
            answered[silent] = result.responsive[:, 0]
        rows = answered.reshape(len(prefixes), self.ADDRESSES_PER_PREFIX).tolist()
        return [
            MurdockPrefixOutcome(prefix=prefix, targets=group, responsive=row)
            for prefix, group, row in zip(prefixes, per_prefix, rows)
        ]
