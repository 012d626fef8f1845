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

import random
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
    fanout_rand_chunk,
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

    def qualifying_runs(self, networks: AddressBatch, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Run starts of sorted /*length* *networks*, and which runs qualify.

        The candidate rule: a network qualifies with more than
        ``min_targets_per_prefix`` rows, and every /64 does while
        ``always_probe_64`` holds.  One boundary scan counts every network.
        """
        starts = networks.sorted_run_starts()
        if length == 64 and self.always_probe_64:
            return starts, np.ones(len(starts), dtype=bool)
        return starts, np.diff(starts, append=len(networks)) > self.min_targets_per_prefix


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
        "_targets_batch",
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
        self._targets_batch: AddressBatch | None = None
        self._matrix: np.ndarray | None = None
        self._protocols: tuple[Protocol, ...] = ()
        self._branch_responses = [] if branch_responses is None else branch_responses
        self._aliased: bool | None = None

    @classmethod
    def from_matrix(
        cls,
        prefix: IPv6Prefix,
        day: int,
        targets: AddressBatch,
        matrix: np.ndarray,
        protocols: tuple[Protocol, ...],
        aliased: bool | None = None,
    ) -> "PrefixProbeOutcome":
        """Batch-engine constructor: a (branch x protocol) boolean matrix.

        *aliased* is the verdict when the caller already reduced it from the
        matrix; ``None`` leaves it to the first :attr:`is_aliased` read.
        """
        outcome = cls(prefix=prefix, day=day)
        outcome._targets = None
        outcome._targets_batch = targets
        outcome._matrix = matrix
        outcome._protocols = protocols
        outcome._branch_responses = None
        outcome._aliased = aliased
        return outcome

    @property
    def targets(self) -> list[IPv6Address]:
        """The fan-out target addresses (materialised lazily on the batch path)."""
        if self._targets is None:
            self._targets = self._targets_batch.to_addresses()
        return self._targets

    @targets.setter
    def targets(self, value: list[IPv6Address]) -> None:
        self._targets = value
        self._targets_batch = None
        self._aliased = None

    @property
    def num_targets(self) -> int:
        """Fan-out size without materialising scalar addresses."""
        if self._targets is not None:
            return len(self._targets)
        return len(self._targets_batch)

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
            lpm = FlatLPM(
                (prefix, outcome.is_aliased)
                for prefix, outcome in self.outcomes.items()
            )
            self._flat = lpm, np.array([bool(v) for v in lpm.objects], dtype=bool)
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
        search for the entire array instead of a 128-step trie walk per
        address.
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

    Both engines are deterministic per seed; they draw from independent
    random streams, so their stochastic effects (loss, rate limits) are
    identically distributed but not probe-for-probe identical.
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
        self._rng = random.Random(seed)
        self._nprng = np.random.default_rng(seed)

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
            for length in config.prefix_lengths:
                # The batch is sorted and masking is monotonic, so the masked
                # networks arrive sorted too.
                networks = batch.masked(length)
                starts, qualifies = config.qualifying_runs(networks, length)
                keep = starts[qualifies]
                for hi, lo in zip(networks.hi[keep].tolist(), networks.lo[keep].tolist()):
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
        targets = fanout_targets(prefix, self._rng, self.config.fanout)
        outcome = PrefixProbeOutcome(prefix=prefix, day=day, targets=targets)
        for target in targets:
            answered: set[Protocol] = set()
            for protocol in self.config.protocols:
                reply = self.internet.probe(target, protocol, day, rng=self._rng)
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
        targets, prefix_index, _branch = batch_fanout_targets(prefix_list, self._nprng)
        result = self.internet.probe_batch(
            targets, self.config.protocols, day, rng=self._nprng
        )
        counts = np.bincount(prefix_index, minlength=len(prefix_list)).astype(np.int64)
        starts = np.cumsum(counts) - counts
        # Every verdict in one pass over the matrix, not a few numpy calls
        # per outcome: aliased when every fan-out row answered.
        answered = np.bincount(
            prefix_index, weights=result.responsive.any(axis=1), minlength=len(prefix_list)
        )
        aliased = (answered >= counts).tolist()
        protocols = result.protocols
        outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        for i, prefix in enumerate(prefix_list):
            start, end = int(starts[i]), int(starts[i] + counts[i])
            outcomes[prefix] = PrefixProbeOutcome.from_matrix(
                prefix,
                day,
                AddressBatch(targets.hi[start:end], targets.lo[start:end]),
                result.responsive[start:end],
                protocols,
                aliased=aliased[i],
            )
        return outcomes

    def _probe_prefixes_streaming(
        self, prefix_list: list[IPv6Prefix], day: int
    ) -> dict[IPv6Prefix, PrefixProbeOutcome]:
        """Out-of-core / multi-core twin of the batch probing path.

        Fan-out targets are generated and probed ``chunk_rows`` rows at a
        time (optionally sharded over forked workers and stored in unlinked
        memmap scratch), yet bit-identical to the one-shot batch path: the
        random host bits of any row span are recovered from the pre-draw
        generator state via :func:`fanout_rand_chunk`, and the generator is
        advanced past the whole conceptual draw afterwards so later calls
        stay stream-aligned with the plain engine.  Probe-side randomness is
        per-chunk (``default_rng((seed, day, chunk_start))``): with
        stochastic anomalies disabled ``probe_batch`` draws nothing and
        verdicts match the plain engine exactly; with them enabled, results
        are reproducible for a fixed ``chunk_rows`` and shard plan.
        """
        policy = self.policy
        plan = FanoutPlan(prefix_list)
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
        state = self._nprng.bit_generator.state
        internet = self.internet
        seed = self._seed

        def probe_chunk(span: tuple[int, int]):
            s, e = span
            rand_hi, rand_lo = fanout_rand_chunk(state, s, e, total)
            chunk, _, _ = plan.chunk(s, e, rand_hi, rand_lo)
            result = internet.probe_batch(
                chunk, protocols, day, rng=np.random.default_rng((seed, day, s))
            )
            return chunk, result.responsive

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
        # Consume the conceptual single-pass draw (one step per target and
        # limb) so subsequent fan-outs match the plain engine's stream.
        self._nprng.bit_generator.advance(2 * total)
        outcomes: dict[IPv6Prefix, PrefixProbeOutcome] = {}
        for i, prefix in enumerate(prefix_list):
            start = int(plan.starts[i])
            end = start + int(plan.counts[i])
            outcomes[prefix] = PrefixProbeOutcome.from_matrix(
                prefix,
                day,
                AddressBatch(targets_hi[start:end], targets_lo[start:end]),
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
