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

from repro.addr.address import IPv6Address
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
        targets = random_addresses_in_prefix(prefix, self.ADDRESSES_PER_PREFIX, self._rng)
        responsive: list[bool] = []
        for target in targets:
            answered = False
            for attempt in range(self.PROBES_PER_ADDRESS):
                if self.internet.probe(target, self.protocol, day, attempt=attempt) is not None:
                    answered = True
                    break
            responsive.append(answered)
        return MurdockPrefixOutcome(prefix=prefix, targets=targets, responsive=responsive)

    def run(self, addresses: Sequence[IPv6Address], day: int = 0) -> MurdockResult:
        """Run the baseline detection over a hitlist."""
        result = MurdockResult()
        for prefix in self.candidate_prefixes(addresses):
            result.outcomes[prefix] = self.probe_prefix(prefix, day)
        return result
