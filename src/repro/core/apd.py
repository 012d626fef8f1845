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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, FlatLPM, batch_fanout_targets
from repro.addr.generate import FANOUT, fanout_targets
from repro.addr.prefix import IPv6Prefix
from repro.addr.trie import PrefixTrie
from repro.exec import (
    ExecutionPolicy,
    FanoutPlan,
    map_shards,
    plan_chunk_spans,
    plan_chunk_spans_within,
    plan_worker_spans,
    scratch_memmap,
)
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import Protocol


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
    protocols: tuple[Protocol, ...] = (Protocol.ICMP, Protocol.TCP80)
    #: Number of fan-out probes per prefix and protocol.
    fanout: int = FANOUT
    #: Number of responsive fan-out addresses required to call a prefix aliased.
    aliased_threshold: int = FANOUT

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

    Two storage forms share one read API: the scalar engine fills
    ``branch_responses`` (one set of answering protocols per fan-out branch)
    probe by probe, while the batch engine stores a slice of the
    ``probe_batch`` responsiveness matrix and materialises targets/sets only
    when a consumer asks for them -- on the hot path (`is_aliased`,
    `responsive_branches`) everything stays an array reduction.
    """

    __slots__ = (
        "prefix",
        "day",
        "_targets",
        "_target_limbs",
        "_matrix",
        "_protocols",
        "_branch_responses",
        "_aliased",
    )

    def __init__(
        self,
        prefix: IPv6Prefix,
        day: int,
        targets: list[IPv6Address] | None = None,
        branch_responses: list[set[Protocol]] | None = None,
    ):
        self.prefix = prefix
        self.day = day
        self._targets = [] if targets is None else targets
        self._target_limbs: tuple[np.ndarray, np.ndarray] | None = None
        self._matrix: np.ndarray | None = None
        self._protocols: tuple[Protocol, ...] = ()
        self._branch_responses = [] if branch_responses is None else branch_responses
        self._aliased: bool | None = None

    @classmethod
    def from_matrix(
        cls,
        prefix: IPv6Prefix,
        day: int,
        target_hi: np.ndarray,
        target_lo: np.ndarray,
        matrix: np.ndarray,
        protocols: tuple[Protocol, ...],
        aliased: bool | None = None,
    ) -> "PrefixProbeOutcome":
        """Batch-engine constructor: a (branch x protocol) boolean matrix.

        The fan-out targets come as the ``hi``/``lo`` limbs of an
        :class:`AddressBatch`.  *aliased* is the verdict when the caller
        already reduced it from the matrix; ``None`` leaves it to the first
        :attr:`is_aliased` read.
        """
        outcome = cls.__new__(cls)
        outcome.prefix = prefix
        outcome.day = day
        outcome._targets = None
        outcome._target_limbs = (target_hi, target_lo)
        outcome._matrix = matrix
        outcome._protocols = protocols
        outcome._branch_responses = None
        outcome._aliased = aliased
        return outcome

    @property
    def targets(self) -> list[IPv6Address]:
        """The fan-out target addresses (materialised lazily on the batch path)."""
        if self._targets is None:
            self._targets = AddressBatch(*self._target_limbs).to_addresses()
        return self._targets

    @targets.setter
    def targets(self, value: list[IPv6Address]) -> None:
        self._targets = value
        self._target_limbs = None
        self._aliased = None

    @property
    def num_targets(self) -> int:
        """Fan-out size without materialising scalar addresses."""
        if self._targets is not None:
            return len(self._targets)
        return len(self._target_limbs[0])

    @property
    def branch_responses(self) -> list[set[Protocol]]:
        """Per-branch (0..15) set of protocols that answered."""
        if self._branch_responses is None:
            self._branch_responses = [
                {self._protocols[j] for j in row.nonzero()[0].tolist()}
                for row in self._matrix
            ]
        return self._branch_responses

    @branch_responses.setter
    def branch_responses(self, value: list[set[Protocol]]) -> None:
        self._branch_responses = value
        self._matrix = None
        self._aliased = None

    @property
    def responsive_branches(self) -> set[int]:
        """Branch indices whose target answered on at least one protocol."""
        if self._branch_responses is None:
            return set(np.flatnonzero(self._matrix.any(axis=1)).tolist())
        return {i for i, protocols in enumerate(self._branch_responses) if protocols}

    @property
    def num_responsive(self) -> int:
        if self._branch_responses is None:
            return int(self._matrix.any(axis=1).sum())
        return len(self.responsive_branches)

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
        """Number of probe packets sent for this prefix (16 per protocol)."""
        return self.num_targets * 2  # ICMPv6 + TCP/80

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
      benchmarks.

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
        if config.fanout != FANOUT:
            raise ValueError("the paper's APD uses a fixed fan-out of 16 probes")
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
        """Probe one prefix with the 16-branch fan-out on ICMPv6 and TCP/80.

        Thin wrapper kept for backward compatibility: dispatches to the
        detector's engine (a one-prefix batch, or the scalar reference loop).
        """
        if self.policy.reference:
            return self._probe_prefix_scalar(prefix, day)
        return self.probe_prefixes([prefix], day)[prefix]

    def _probe_prefix_scalar(self, prefix: IPv6Prefix, day: int = 0) -> PrefixProbeOutcome:
        """Reference implementation: one :meth:`SimulatedInternet.probe` call
        per target and protocol."""
        targets = fanout_targets(prefix, self._seed, day, self.config.fanout)
        outcome = PrefixProbeOutcome(prefix=prefix, day=day, targets=targets)
        for target in targets:
            answered: set[Protocol] = set()
            for protocol in self.config.protocols:
                reply = self.internet.probe(target, protocol, day)
                if reply is not None:
                    answered.add(protocol)
            outcome.branch_responses.append(answered)
        return outcome

    def probe_prefixes(
        self, prefixes: Iterable[IPv6Prefix], day: int = 0
    ) -> dict[IPv6Prefix, PrefixProbeOutcome]:
        """Probe many candidate prefixes in one vectorised pass (the hot path).

        Fan-out targets for every prefix are generated with
        :func:`batch_fanout_targets` and resolved by one
        :meth:`SimulatedInternet.probe_batch` call; the per-prefix outcomes
        are then reassembled from the responsiveness matrix.  Duplicate
        prefixes collapse onto one outcome (probed once).
        """
        prefix_list = list(dict.fromkeys(prefixes))
        if self.policy.reference:
            return {p: self._probe_prefix_scalar(p, day) for p in prefix_list}
        if self.policy.is_streaming and prefix_list:
            return self._probe_prefixes_streaming(prefix_list, day)
        targets, prefix_index, _branch = batch_fanout_targets(prefix_list, self._seed, day)
        result = self.internet.probe_batch(targets, self.config.protocols, day)
        counts = np.bincount(prefix_index, minlength=len(prefix_list)).astype(np.int64)
        # Every verdict in one pass over the matrix, not a few numpy calls
        # per outcome: aliased when every fan-out row answered.
        answered = np.bincount(
            prefix_index, weights=result.responsive.any(axis=1), minlength=len(prefix_list)
        )
        aliased = (answered >= counts).tolist()
        hi, lo, matrix, protocols = targets.hi, targets.lo, result.responsive, result.protocols
        outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        start = 0
        for prefix, end, verdict in zip(prefix_list, np.cumsum(counts).tolist(), aliased):
            outcomes[prefix] = PrefixProbeOutcome.from_matrix(
                prefix,
                day,
                hi[start:end],
                lo[start:end],
                matrix[start:end],
                protocols,
                aliased=verdict,
            )
            start = end
        return outcomes

    def _probe_prefixes_streaming(
        self, prefix_list: list[IPv6Prefix], day: int
    ) -> dict[IPv6Prefix, PrefixProbeOutcome]:
        """Out-of-core / multi-core twin of the batch probing path.

        Fan-out targets are generated and probed ``chunk_rows`` rows at a
        time (optionally sharded over forked workers and stored in unlinked
        memmap scratch), yet identical to the one-shot batch path for every
        chunking: targets and probe outcomes are keyed draws on their own
        coordinates.
        """
        policy = self.policy
        plan = FanoutPlan(prefix_list, self._seed, day)
        total = plan.total
        protocols = self.config.protocols
        chunk_rows = policy.effective_chunk_rows or max(total, 1)
        if policy.storage == "memmap" and total:
            targets_hi = scratch_memmap((total,), np.uint64)
            targets_lo = scratch_memmap((total,), np.uint64)
            responsive = scratch_memmap((total, len(protocols)), np.bool_)
        else:
            targets_hi = np.empty(total, dtype=np.uint64)
            targets_lo = np.empty(total, dtype=np.uint64)
            responsive = np.zeros((total, len(protocols)), dtype=bool)
        internet = self.internet

        def probe_chunk(span: tuple[int, int]):
            chunk, _, _ = plan.chunk(*span)
            return chunk, internet.probe_batch(chunk, protocols, day).responsive

        if policy.workers > 1:
            if policy.shard_by == "prefix":
                spans = plan.worker_spans(policy.workers)
            else:
                spans = plan_worker_spans(total, policy.workers, chunk_rows)

            def run_span(span: tuple[int, int]):
                partials = []
                for bounds in plan_chunk_spans_within(span[0], span[1], chunk_rows):
                    chunk, resp = probe_chunk(bounds)
                    partials.append((bounds[0], chunk.hi, chunk.lo, resp))
                return partials

            # Fixed span order; the parent writes each partial back at its
            # global offset, so assembly is order-independent of worker
            # scheduling.
            for partials in map_shards(run_span, spans, policy.workers):
                for s, hi, lo, resp in partials:
                    e = s + hi.shape[0]
                    targets_hi[s:e] = hi
                    targets_lo[s:e] = lo
                    responsive[s:e] = resp
        else:
            # Single worker: stream chunk by chunk straight into the stores;
            # with memmap storage the resident set stays O(chunk_rows).
            for s, e in plan_chunk_spans(total, chunk_rows):
                chunk, resp = probe_chunk((s, e))
                targets_hi[s:e] = chunk.hi
                targets_lo[s:e] = chunk.lo
                responsive[s:e] = resp
        outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        for i, prefix in enumerate(prefix_list):
            start = int(plan.starts[i])
            end = start + int(plan.counts[i])
            outcomes[prefix] = PrefixProbeOutcome.from_matrix(
                prefix,
                day,
                targets_hi[start:end],
                targets_lo[start:end],
                responsive[start:end],
                protocols,
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
