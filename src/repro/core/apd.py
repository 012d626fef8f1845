"""Multi-level aliased prefix detection (Section 5).

For every candidate prefix the detector sends 16 probes, one to a
pseudo-random address in each 4-bit subprefix (the fan-out of Table 3), on
both ICMPv6 and TCP/80.  An address counts as responsive when either protocol
answers (cross-protocol merging, Section 5.2); a prefix is labelled aliased
when all 16 fan-out addresses are responsive.  Detection runs at multiple
prefix lengths -- every length from /64 to /124 in 4-bit steps that covers
more than ``min_targets_per_prefix`` hitlist addresses, plus all /64s -- and
the final per-address classification uses longest-prefix matching over the
probed prefixes.

Both probing engines publish one outcome form, a (branch x protocol)
matrix per prefix (:class:`PrefixProbeOutcome`), so the sliding window, the
verdict LPM and the daily service read every outcome the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, FanoutPlan, FlatLPM
from repro.addr.generate import fanout_targets
from repro.addr.prefix import IPv6Prefix
from repro.addr.trie import PrefixTrie
from repro.exec import ExecutionPolicy, plan_chunk_spans, scratch_memmap
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import Protocol

#: The protocols whose answers APD merges by default (Section 5.2).
APD_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80)


@dataclass(frozen=True, slots=True)
class APDConfig:
    """Parameters of the multi-level aliased prefix detection."""

    #: Prefix lengths at which hitlist addresses are aggregated (4-bit steps).
    prefix_lengths: tuple[int, ...] = tuple(range(64, 125, 4))
    #: Only prefixes with more than this many hitlist addresses are probed ...
    min_targets_per_prefix: int = 100
    #: ... except /64 prefixes, which are always probed ("full analysis of all
    #: known /64 prefixes").
    always_probe_64: bool = True
    #: Protocols whose responses are merged (Section 5.2).
    protocols: tuple[Protocol, ...] = APD_PROTOCOLS

    def qualifying_runs(self, shared: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Run starts of a sorted batch's /*length* networks, and which qualify.

        *shared* is the batch's :meth:`AddressBatch.shared_prefix_lengths`.
        The candidate rule: a network qualifies with more than
        ``min_targets_per_prefix`` rows, and every /64 does while
        ``always_probe_64`` holds.  One boundary scan counts every network.
        """
        starts = np.flatnonzero(shared < length)
        if length == 64 and self.always_probe_64:
            return starts, np.ones(len(starts), dtype=bool)
        return starts, np.diff(starts, append=len(shared)) > self.min_targets_per_prefix


class PrefixProbeOutcome:
    """Probe outcome for one candidate prefix on one day.

    One storage form on both engines: the fan-out targets as ``hi``/``lo``
    limbs and a (branch x protocol) boolean matrix of who answered.  The
    fast engine stores slices of its one ``probe_batch`` matrix; the scalar
    engine fills its own matrix one ``probe`` at a time.  The hot path
    (`is_aliased`, `responsive_branches`) is an array reduction, and scalar
    targets/sets are materialised only when a consumer asks for them.  The
    matrix is never written in place -- fast-engine outcomes share one probe
    matrix -- so :attr:`branch_responses` assignment replaces it.
    """

    __slots__ = (
        "prefix",
        "day",
        "_target_limbs",
        "_matrix",
        "_protocols",
        "_aliased",
    )

    def __init__(
        self,
        prefix: IPv6Prefix,
        day: int,
        targets: list[IPv6Address] | None = None,
        branch_responses: list[set[Protocol]] | None = None,
        protocols: tuple[Protocol, ...] = APD_PROTOCOLS,
    ):
        batch = AddressBatch.from_addresses(targets or ())
        self.prefix = prefix
        self.day = day
        self._target_limbs = (batch.hi, batch.lo)
        self._protocols = protocols
        self.branch_responses = branch_responses or []

    @classmethod
    def from_matrix(
        cls,
        prefix: IPv6Prefix,
        day: int,
        target_hi: np.ndarray,
        target_lo: np.ndarray,
        matrix: np.ndarray,
        protocols: tuple[Protocol, ...],
        aliased: bool,
    ) -> "PrefixProbeOutcome":
        """An outcome over a (branch x protocol) boolean matrix.

        The fan-out targets come as the ``hi``/``lo`` limbs of an
        :class:`AddressBatch`; *aliased* is the verdict the caller already
        reduced from the matrix.
        """
        outcome = cls.__new__(cls)
        outcome.prefix = prefix
        outcome.day = day
        outcome._target_limbs = (target_hi, target_lo)
        outcome._matrix = matrix
        outcome._protocols = protocols
        outcome._aliased = aliased
        return outcome

    @property
    def targets(self) -> list[IPv6Address]:
        """The fan-out target addresses (materialised on demand)."""
        return AddressBatch(*self._target_limbs).to_addresses()

    @property
    def num_targets(self) -> int:
        """Fan-out size without materialising scalar addresses."""
        return len(self._target_limbs[0])

    @property
    def branch_responses(self) -> list[set[Protocol]]:
        """Per-branch (0..15) set of protocols that answered."""
        return [{self._protocols[j] for j in row.nonzero()[0].tolist()} for row in self._matrix]

    @branch_responses.setter
    def branch_responses(self, value: list[set[Protocol]]) -> None:
        matrix = np.zeros((len(value), len(self._protocols)), dtype=bool)
        for i, protocols in enumerate(value):
            matrix[i, [self._protocols.index(p) for p in protocols]] = True
        self._matrix = matrix
        self._aliased = None

    @property
    def responsive_branches(self) -> set[int]:
        """Branch indices whose target answered on at least one protocol."""
        return set(np.flatnonzero(self._matrix.any(axis=1)).tolist())

    @property
    def num_responsive(self) -> int:
        return int(self._matrix.any(axis=1).sum())

    @property
    def is_aliased(self) -> bool:
        """All fan-out branches responded -> the prefix is labelled aliased."""
        if self._aliased is None:
            self._aliased = (
                self.num_responsive >= self.num_targets and self.num_targets > 0
            )
        return self._aliased

    @property
    def probes_sent(self) -> int:
        """Number of probe packets sent for this prefix (one per target and protocol)."""
        return self.num_targets * len(self._protocols)

    def __repr__(self) -> str:
        return (
            f"PrefixProbeOutcome({self.prefix}, day={self.day}, "
            f"responsive={self.num_responsive}/{self.num_targets})"
        )


@dataclass(slots=True)
class APDResult:
    """Result of one APD run: per-prefix outcomes and the aliased filter."""

    day: int
    outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = field(default_factory=dict)
    _trie: PrefixTrie | None = field(default=None, repr=False, compare=False)
    _flat: "tuple[FlatLPM, np.ndarray] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def probed_prefixes(self) -> list[IPv6Prefix]:
        return list(self.outcomes)

    @property
    def aliased_prefixes(self) -> list[IPv6Prefix]:
        """All prefixes labelled aliased."""
        return [p for p, o in self.outcomes.items() if o.is_aliased]

    @property
    def non_aliased_prefixes(self) -> list[IPv6Prefix]:
        return [p for p, o in self.outcomes.items() if not o.is_aliased]

    @property
    def probes_sent(self) -> int:
        """Total probe packets sent."""
        return sum(o.probes_sent for o in self.outcomes.values())

    @property
    def addresses_probed(self) -> int:
        """Total distinct target addresses probed."""
        return sum(o.num_targets for o in self.outcomes.values())

    def _ensure_trie(self) -> PrefixTrie:
        if self._trie is None:
            trie: PrefixTrie[bool] = PrefixTrie()
            for prefix, outcome in self.outcomes.items():
                trie.insert(prefix, outcome.is_aliased)
            self._trie = trie
        return self._trie

    def verdict_lpm(self) -> tuple[FlatLPM, np.ndarray]:
        """The probed prefixes as one :class:`FlatLPM` plus its verdict array.

        ``verdicts[i]`` is the aliased verdict of the prefix behind LPM index
        *i*.  Built once per result, forcing every lazy ``is_aliased``, and
        shared by :meth:`is_aliased_batch` and the day's published snapshot.
        """
        if self._flat is None:
            verdicts = [outcome.is_aliased for outcome in self.outcomes.values()]
            self._flat = FlatLPM(zip(self.outcomes, verdicts)), np.array(verdicts, dtype=bool)
        return self._flat

    def for_day(self, day: int) -> "APDResult":
        """These verdicts published again on *day*.

        The new result shares this one's outcome map and verdict LPM instead
        of rebuilding them; neither may be mutated afterwards.
        """
        return APDResult(day=day, outcomes=self.outcomes, _flat=self.verdict_lpm())

    def is_aliased(self, address: "IPv6Address | int | str") -> bool:
        """Longest-prefix-match classification of one address.

        The most specific probed prefix covering the address decides: this is
        what lets small non-aliased subprefixes survive inside aliased
        covering prefixes (the /116 anomaly of Section 5.1).
        """
        verdict = self._ensure_trie().lookup(address)
        return bool(verdict)

    def is_aliased_batch(self, batch: AddressBatch) -> np.ndarray:
        """Vectorised longest-prefix-match classification of a whole batch.

        Same semantics as :meth:`is_aliased`, but one flattened-LPM binary
        search for the entire array instead of a scalar lookup per address.
        """
        lpm, verdicts = self.verdict_lpm()
        indices = lpm.lookup_indices(batch)
        covered = indices >= 0
        result = np.zeros(len(batch), dtype=bool)
        result[covered] = verdicts[indices[covered]]
        return result

    def filter_non_aliased(self, addresses: Iterable[IPv6Address]) -> list[IPv6Address]:
        """Addresses that do NOT fall into an aliased prefix (scan input)."""
        return self.split(addresses)[1]

    def split(
        self,
        addresses: Iterable[IPv6Address],
        batch: AddressBatch | None = None,
    ) -> tuple[list[IPv6Address], list[IPv6Address]]:
        """Split addresses into (aliased, non-aliased) by longest-prefix match.

        Pass *batch* (the columnar view of the same addresses, in the same
        order) to skip the conversion when the caller already holds one.
        """
        address_list = list(addresses)
        if not address_list:
            return [], []
        if batch is None:
            batch = AddressBatch.from_addresses(address_list)
        hits = self.is_aliased_batch(batch)
        aliased: list[IPv6Address] = []
        clean: list[IPv6Address] = []
        for address, hit in zip(address_list, hits.tolist()):
            (aliased if hit else clean).append(address)
        return aliased, clean


class AliasedPrefixDetector:
    """The paper's multi-level APD over the simulated Internet.

    Two probing engines are available, selected by ``policy.reference``:

    * the fast engine (default): fan-out targets for all candidate prefixes
      are generated in one vectorised pass and resolved with a single
      :meth:`SimulatedInternet.probe_batch` call -- the hot path for whole
      hitlists, turning O(prefixes x 16 x protocols) Python probe round-trips
      into a handful of array operations.
    * the reference engine: the original per-probe scalar loop over
      :meth:`SimulatedInternet.probe`, kept for parity testing, ablations and
      benchmarks.  It records each answer into its outcome's matrix, the
      form the fast engine publishes.

    Fan-out host bits are keyed on (prefix, day, branch, *seed*) and every
    probe outcome on its own coordinates (:mod:`repro.keyed`), so the two
    engines -- and any chunking of the fast one -- return identical
    outcomes, loss and rate limiting included.
    """

    def __init__(
        self,
        internet: SimulatedInternet,
        config: APDConfig = APDConfig(),
        seed: int = 0,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.internet = internet
        self.config = config
        self.policy = policy
        self._seed = seed

    # -- candidate selection ----------------------------------------------------

    def candidate_prefixes(
        self,
        addresses: Sequence[IPv6Address],
        extra_prefixes: Iterable[IPv6Prefix] = (),
    ) -> list[IPv6Prefix]:
        """Prefixes to probe for a hitlist (Section 5.1).

        Hitlist addresses are mapped to every length in ``prefix_lengths``;
        a prefix qualifies when it covers more than ``min_targets_per_prefix``
        addresses, except /64s which always qualify.  ``extra_prefixes``
        (e.g. BGP announcements) are probed as given.
        """
        config = self.config
        candidates: set[IPv6Prefix] = set(extra_prefixes)
        if addresses:
            batch = AddressBatch.from_addresses(addresses).sort()
            shared = batch.shared_prefix_lengths()
            for length in config.prefix_lengths:
                starts, qualifies = config.qualifying_runs(shared, length)
                networks = batch.take(starts[qualifies]).masked(length)
                for hi, lo in zip(networks.hi.tolist(), networks.lo.tolist()):
                    candidates.add(IPv6Prefix((hi << 64) | lo, length))
        return sorted(candidates)

    # -- probing -----------------------------------------------------------------

    def probe_prefix(self, prefix: IPv6Prefix, day: int = 0) -> PrefixProbeOutcome:
        """Probe one prefix with the 16-branch fan-out on the configured protocols.

        Thin wrapper kept for backward compatibility: dispatches to the
        detector's engine (a one-prefix batch, or the scalar reference loop).
        """
        if self.policy.reference:
            return self._probe_prefix_scalar(prefix, day)
        return self.probe_prefixes([prefix], day)[prefix]

    def _probe_prefix_scalar(self, prefix: IPv6Prefix, day: int = 0) -> PrefixProbeOutcome:
        """Reference implementation: one :meth:`SimulatedInternet.probe` call
        per target and protocol, recorded into the outcome's matrix."""
        targets = fanout_targets(prefix, self._seed, day)
        protocols = self.config.protocols
        matrix = np.array(
            [
                [self.internet.probe(target, protocol, day) is not None for protocol in protocols]
                for target in targets
            ],
            dtype=bool,
        ).reshape(len(targets), len(protocols))
        batch = AddressBatch.from_addresses(targets)
        return PrefixProbeOutcome.from_matrix(
            prefix,
            day,
            batch.hi,
            batch.lo,
            matrix,
            protocols,
            aliased=bool(len(targets)) and bool(matrix.any(axis=1).all()),
        )

    def probe_prefixes(
        self, prefixes: Iterable[IPv6Prefix], day: int = 0
    ) -> dict[IPv6Prefix, PrefixProbeOutcome]:
        """Probe many candidate prefixes in one vectorised pass (the hot path).

        The fan-out rows of every prefix (a :class:`FanoutPlan`) are built
        and resolved by :meth:`SimulatedInternet.probe_batch` one span of
        ``policy.effective_chunk_rows`` rows at a time -- one span over every
        row by default -- into RAM or memmap stores (``policy.storage``).
        Verdicts are reduced per span, so the working set never exceeds one
        chunk.  Duplicate prefixes collapse onto one outcome (probed once).
        """
        prefix_list = list(dict.fromkeys(prefixes))
        if self.policy.reference:
            return {p: self._probe_prefix_scalar(p, day) for p in prefix_list}
        plan = FanoutPlan(prefix_list, self._seed, day)
        protocols = self.config.protocols
        total = plan.total
        if self.policy.storage == "memmap" and total:
            hi = scratch_memmap((total,), np.uint64)
            lo = scratch_memmap((total,), np.uint64)
            matrix = scratch_memmap((total, len(protocols)), np.bool_)
        else:
            hi = np.empty(total, dtype=np.uint64)
            lo = np.empty(total, dtype=np.uint64)
            matrix = np.empty((total, len(protocols)), dtype=bool)
        # Fan-out rows that answered on any protocol, per prefix: aliased
        # when every row answered.
        answered = np.zeros(len(prefix_list))
        for s, e in plan_chunk_spans(total, self.policy.effective_chunk_rows):
            targets, prefix_index, _ = plan.chunk(s, e)
            responsive = self.internet.probe_batch(targets, protocols, day).responsive
            hi[s:e] = targets.hi
            lo[s:e] = targets.lo
            matrix[s:e] = responsive
            answered += np.bincount(
                prefix_index, weights=responsive.any(axis=1), minlength=len(prefix_list)
            )
        aliased = (answered >= plan.counts).tolist()
        outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        for prefix, start, end, verdict in zip(
            prefix_list, plan.starts.tolist(), (plan.starts + plan.counts).tolist(), aliased
        ):
            outcomes[prefix] = PrefixProbeOutcome.from_matrix(
                prefix,
                day,
                hi[start:end],
                lo[start:end],
                matrix[start:end],
                protocols,
                aliased=verdict,
            )
        return outcomes

    def run(
        self,
        addresses: Sequence[IPv6Address] = (),
        prefixes: Iterable[IPv6Prefix] = (),
        day: int = 0,
    ) -> APDResult:
        """Run APD for a hitlist and/or an explicit prefix list on one day."""
        candidates = self.candidate_prefixes(addresses, extra_prefixes=prefixes)
        result = APDResult(day=day)
        result.outcomes = self.probe_prefixes(candidates, day)
        return result

    def run_window(
        self,
        addresses: Sequence[IPv6Address],
        days: Sequence[int],
        prefixes: Iterable[IPv6Prefix] = (),
    ) -> "Mapping[int, APDResult]":
        """Run APD daily over several days (input to the sliding window)."""
        # Materialised once: a one-shot iterable must reach every day.
        prefixes = list(prefixes)
        return {day: self.run(addresses, prefixes, day) for day in days}
