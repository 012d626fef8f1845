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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.addr.generate import random_addresses_in_prefix
from repro.addr.prefix import IPv6Prefix
from repro.addr.trie import PrefixTrie
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
    def probes_sent(self) -> int:
        return len(self.targets) * MurdockDetector.PROBES_PER_ADDRESS


@dataclass(slots=True)
class MurdockResult:
    """Result of the static-/96 baseline detection."""

    outcomes: dict[IPv6Prefix, MurdockPrefixOutcome] = field(default_factory=dict)
    _trie: PrefixTrie | None = field(default=None, repr=False, compare=False)

    @property
    def aliased_prefixes(self) -> list[IPv6Prefix]:
        return [p for p, o in self.outcomes.items() if o.is_aliased]

    @property
    def probes_sent(self) -> int:
        return sum(o.probes_sent for o in self.outcomes.values())

    @property
    def addresses_probed(self) -> int:
        return sum(len(o.targets) for o in self.outcomes.values())

    def _ensure_trie(self) -> PrefixTrie:
        if self._trie is None:
            trie: PrefixTrie[bool] = PrefixTrie()
            for prefix, outcome in self.outcomes.items():
                trie.insert(prefix, outcome.is_aliased)
            self._trie = trie
        return self._trie

    def is_aliased(self, address: "IPv6Address | int | str") -> bool:
        """Classification of one address under the /96 baseline."""
        return bool(self._ensure_trie().lookup(address))

    def split(self, addresses: Iterable[IPv6Address]) -> tuple[list[IPv6Address], list[IPv6Address]]:
        """Split addresses into (aliased, non-aliased)."""
        aliased: list[IPv6Address] = []
        clean: list[IPv6Address] = []
        for address in addresses:
            (aliased if self.is_aliased(address) else clean).append(address)
        return aliased, clean


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

    def run(self, addresses: Sequence[IPv6Address], day: int = 0) -> MurdockResult:
        """Run the baseline detection over a hitlist."""
        candidates = self.candidate_prefixes(addresses)
        outcomes = self._probe_prefixes(candidates, day)
        return MurdockResult(outcomes=dict(zip(candidates, outcomes)))

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
