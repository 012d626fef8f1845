"""Hitlist assembly, de-aliasing and the daily hitlist service.

This module ties the pipeline of Section 6 together:

1. collect addresses from all sources (:mod:`repro.sources`),
2. run multi-level aliased prefix detection and remove targets inside aliased
   prefixes (:mod:`repro.core.apd`),
3. probe the remaining targets on all five protocols with the ZMap-style
   scanner (:mod:`repro.probing.zmap`),
4. publish the day's responsive addresses and aliased prefix list -- the two
   artefacts the paper's public hitlist service provides.

The hitlist itself is columnar: addresses live in sorted ``uint64`` hi/lo
arrays with a per-source membership bitmask and a ``first_seen_day`` array,
and scalar :class:`~repro.addr.address.IPv6Address` views are materialised
only at the publish boundary.  :class:`HitlistService` runs the daily loop in
one of two engines: the incremental fast engine (default) merges only the
day's new source records into the standing batch, reuses APD verdicts for
prefixes whose candidate membership is unchanged, and scans targets with one
``probe_batch`` call; ``ExecutionPolicy(reference=True)`` keeps the original
rebuild-everything scalar loop for parity testing.

Both engines probe a candidate prefix on its *membership epoch*: the latest
first-seen day among its rows.  A verdict is therefore a function of the
prefix's rows, which is what makes the fast engine's reuse exact.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import (
    AddressBatch,
    find128,
    readonly_view,
    searchsorted128,
    union_sorted,
)
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult, PrefixProbeOutcome
from repro.core.bias import CoverageStats, coverage_stats
from repro.events.dynamics import NetworkDynamics
from repro.exec import ExecutionPolicy
from repro.netmodel.internet import SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import BatchDailyScanResult, DailyScanResult, ScanScheduler
from repro.sources.base import HitlistSource
from repro.sources.registry import SourceAssembly

_LO_MASK = (1 << 64) - 1

#: Sentinel first-seen day for freshly inserted rows (min() always replaces it).
_NEVER_SEEN = np.int64(2**62)


class HitlistEntry:
    """One hitlist address with provenance (a scalar view of a batch row)."""

    __slots__ = ("address", "sources", "first_seen_day")

    def __init__(
        self,
        address: IPv6Address,
        sources: Iterable[str] = (),
        first_seen_day: int = 0,
    ):
        self.address = address
        self.sources = set(sources)
        self.first_seen_day = first_seen_day

    def __repr__(self) -> str:
        return (
            f"HitlistEntry({self.address.compressed}, sources={sorted(self.sources)}, "
            f"first_seen_day={self.first_seen_day})"
        )


class Hitlist:
    """A set of candidate scan targets with provenance and curation helpers.

    Provenance is stored columnarly: a sorted-unique :class:`AddressBatch`
    (the primary representation), one ``uint64`` per-source membership
    bitmask per address and one ``first_seen_day`` per address.  Scalar
    :class:`HitlistEntry` / :class:`IPv6Address` views are materialised
    lazily at the publish boundary; all curation steps -- merging, APD
    candidate aggregation, de-aliasing -- run on the arrays.
    """

    def __init__(self, entries: Iterable[HitlistEntry] = ()):
        self._hi = np.zeros(0, dtype=np.uint64)
        self._lo = np.zeros(0, dtype=np.uint64)
        self._masks = np.zeros(0, dtype=np.uint64)
        self._first = np.zeros(0, dtype=np.int64)
        self._source_names: list[str] = []
        self._source_bits: dict[str, int] = {}
        self._pending: list[tuple[int, tuple[str, ...], int]] = []
        self._addresses: list[IPv6Address] | None = None
        for entry in entries:
            self.add(entry.address, entry.sources, entry.first_seen_day)

    # -- construction -----------------------------------------------------------

    def source_bit(self, name: str) -> int:
        """Bit index of *name* in the membership masks (registered on demand)."""
        bit = self._source_bits.get(name)
        if bit is None:
            bit = len(self._source_names)
            if bit >= 64:
                raise ValueError("a hitlist supports at most 64 distinct sources")
            self._source_bits[name] = bit
            self._source_names.append(name)
        return bit

    @property
    def source_names(self) -> list[str]:
        """All registered source names, in bit order."""
        return list(self._source_names)

    def add(
        self, address: IPv6Address, sources: Iterable[str] = (), first_seen_day: int = 0
    ) -> None:
        """Add an address (merging provenance if already present)."""
        self._pending.append((address.value, tuple(sources), first_seen_day))
        self._addresses = None

    def merge_records(
        self,
        batch: AddressBatch,
        first_seen: np.ndarray,
        source: str,
        min_day: int | None = None,
        max_day: int | None = None,
    ) -> AddressBatch:
        """Merge one source's records, keeping only a first-seen-day window.

        ``batch``/``first_seen`` are parallel arrays (one row per record);
        rows outside ``[min_day, max_day]`` are ignored, which is how the
        incremental service merges exactly the days it has not seen yet.
        Returns the addresses that were new to the hitlist.

        Fractional timestamps (sub-day event times from :mod:`repro.events`)
        are floored to the day grid here, at the provenance boundary: the
        ``first_seen_day`` column is integral by contract, and a float day
        must never leak into it.
        """
        self._flush()
        first_seen = np.asarray(first_seen)
        if first_seen.dtype.kind == "f":
            first_seen = np.floor(first_seen).astype(np.int64)
        else:
            first_seen = first_seen.astype(np.int64)
        keep = np.ones(len(batch), dtype=bool)
        if min_day is not None:
            keep &= first_seen >= int(np.floor(min_day))
        if max_day is not None:
            keep &= first_seen <= int(np.floor(max_day))
        if not keep.all():
            batch = batch.take(keep)
            first_seen = first_seen[keep]
        bit = self.source_bit(source)
        masks = np.full(len(batch), np.uint64(1 << bit), dtype=np.uint64)
        return self._merge_arrays(batch, masks, first_seen)

    def _merge_arrays(
        self, batch: AddressBatch, masks: np.ndarray, days: np.ndarray
    ) -> AddressBatch:
        """Vectorised provenance merge; returns the rows new to the hitlist."""
        if len(batch) == 0:
            return AddressBatch.empty()
        # Deduplicate the incoming rows first (OR masks, min first-seen day).
        order = batch.argsort()
        s = batch.take(order)
        masks = masks[order]
        days = days[order]
        starts = s.sorted_run_starts()
        if len(starts) != len(s):
            masks = np.bitwise_or.reduceat(masks, starts)
            days = np.minimum.reduceat(days, starts)
            s = s.take(starts)
        merged, base_pos, inc_pos, is_new = union_sorted(
            AddressBatch(self._hi, self._lo), s
        )
        out_masks = np.zeros(len(merged), dtype=np.uint64)
        out_masks[base_pos] = self._masks
        out_masks[inc_pos] |= masks
        out_first = np.full(len(merged), _NEVER_SEEN, dtype=np.int64)
        out_first[base_pos] = self._first
        out_first[inc_pos] = np.minimum(out_first[inc_pos], days)
        self._hi, self._lo = merged.hi, merged.lo
        self._masks, self._first = out_masks, out_first
        self._addresses = None
        return s.take(is_new)

    def _flush(self) -> None:
        """Fold scalar ``add()`` calls into the columnar arrays."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        n = len(pending)
        batch = AddressBatch.from_ints([value for value, _, _ in pending])
        masks = np.zeros(n, dtype=np.uint64)
        for i, (_, sources, _) in enumerate(pending):
            mask = 0
            for name in sources:
                mask |= 1 << self.source_bit(name)
            masks[i] = mask
        days = np.fromiter((day for _, _, day in pending), dtype=np.int64, count=n)
        self._merge_arrays(batch, masks, days)

    @classmethod
    def from_assembly(cls, assembly: SourceAssembly, day: int | None = None) -> "Hitlist":
        """Build a hitlist from every source's snapshot up to *day*."""
        return cls.from_sources(assembly.sources, day=day)

    @classmethod
    def from_sources(cls, sources: Sequence[HitlistSource], day: int | None = None) -> "Hitlist":
        """Build a hitlist from an explicit list of sources (vectorised).

        *day* is floored to the day grid first, so a fractional event time
        (e.g. a wave timestamp) selects exactly the completed days.
        """
        hitlist = cls()
        if day is not None:
            day = int(np.floor(day))
        for source in sources:
            batch, first_seen = source.record_arrays()
            hitlist.merge_records(batch, first_seen, source.name, max_day=day)
        return hitlist

    def copy(self) -> "Hitlist":
        """An independent snapshot (the per-day provenance artefact)."""
        self._flush()
        snapshot = Hitlist()
        snapshot._hi = self._hi.copy()
        snapshot._lo = self._lo.copy()
        snapshot._masks = self._masks.copy()
        snapshot._first = self._first.copy()
        snapshot._source_names = list(self._source_names)
        snapshot._source_bits = dict(self._source_bits)
        return snapshot

    # -- access -------------------------------------------------------------------

    def __len__(self) -> int:
        self._flush()
        return int(self._hi.shape[0])

    def __contains__(self, address: IPv6Address) -> bool:
        self._flush()
        value = address.value
        pos = find128(
            self._hi,
            self._lo,
            np.asarray([value >> 64], dtype=np.uint64),
            np.asarray([value & _LO_MASK], dtype=np.uint64),
        )
        return bool(pos[0] >= 0)

    def __iter__(self):
        return iter(self.addresses)

    @property
    def addresses(self) -> list[IPv6Address]:
        """All hitlist addresses (ascending; materialised lazily and cached)."""
        if self._addresses is None:
            self._flush()
            self._addresses = self.address_batch.to_addresses()
        return self._addresses

    @property
    def address_batch(self) -> AddressBatch:
        """All hitlist addresses as a columnar batch (the primary view).

        A read-only view over the internal arrays: curation mutates the
        hitlist only by replacing whole arrays, never in place, so handing
        out frozen views is free and keeps published snapshots immutable.
        """
        self._flush()
        return AddressBatch(self._hi, self._lo).readonly()

    @property
    def first_seen_days(self) -> np.ndarray:
        """Per-address first-seen day, aligned with :attr:`address_batch` (read-only)."""
        self._flush()
        return readonly_view(self._first)

    @property
    def source_masks(self) -> np.ndarray:
        """Per-address source membership bitmasks, bit order = source_names (read-only)."""
        self._flush()
        return readonly_view(self._masks)

    def snapshot_arrays(
        self,
    ) -> tuple[AddressBatch, np.ndarray, np.ndarray, tuple[str, ...]]:
        """The snapshot export: every column a published view needs, frozen.

        Returns ``(addresses, source_masks, first_seen_days, source_names)``
        where the arrays are read-only views sharing this hitlist's memory --
        the zero-copy input of :class:`repro.serving.HitlistSnapshot`.
        """
        return (
            self.address_batch,
            self.source_masks,
            self.first_seen_days,
            tuple(self._source_names),
        )

    def _sources_of_mask(self, mask: int) -> set[str]:
        return {name for bit, name in enumerate(self._source_names) if mask >> bit & 1}

    @property
    def entries(self) -> list[HitlistEntry]:
        """Scalar provenance views of every row (publish-boundary only)."""
        self._flush()
        return [
            HitlistEntry(address, self._sources_of_mask(mask), day)
            for address, mask, day in zip(
                self.addresses, self._masks.tolist(), self._first.tolist()
            )
        ]

    def entry(self, address: IPv6Address) -> HitlistEntry | None:
        self._flush()
        value = address.value
        pos = find128(
            self._hi,
            self._lo,
            np.asarray([value >> 64], dtype=np.uint64),
            np.asarray([value & _LO_MASK], dtype=np.uint64),
        )
        index = int(pos[0])
        if index < 0:
            return None
        return HitlistEntry(
            address,
            self._sources_of_mask(int(self._masks[index])),
            int(self._first[index]),
        )

    def by_source(self, source: str) -> list[IPv6Address]:
        """Addresses contributed (possibly among others) by one source."""
        self._flush()
        bit = self._source_bits.get(source)
        if bit is None:
            return []
        mask = (self._masks >> np.uint64(bit)) & np.uint64(1)
        return self.address_batch.take(mask.astype(bool)).to_addresses()

    def provenance(self) -> dict[int, tuple[frozenset[str], int]]:
        """Address value -> (source set, first seen day), for parity checks."""
        self._flush()
        return {
            value: (frozenset(self._sources_of_mask(mask)), day)
            for value, mask, day in zip(
                self.address_batch.to_ints(), self._masks.tolist(), self._first.tolist()
            )
        }

    # -- curation -------------------------------------------------------------------

    def split_aliased(self, apd: APDResult) -> tuple[list[IPv6Address], list[IPv6Address]]:
        """Split into (aliased, non-aliased) using the APD filter (batch LPM)."""
        return apd.split(self.addresses, batch=self.address_batch)

    def non_aliased(self, apd: APDResult) -> list[IPv6Address]:
        """Scan targets after removing addresses in aliased prefixes."""
        return self.split_aliased(apd)[1]

    def coverage(self, internet: SimulatedInternet) -> CoverageStats:
        """AS/prefix coverage of the full hitlist."""
        return coverage_stats(self.addresses, internet)


def _membership_epochs(hitlist: Hitlist, prefixes: Sequence[IPv6Prefix]) -> list[int]:
    """The latest first-seen day among each prefix's hitlist rows.

    Every prefix must cover at least one row (APD candidates do).
    """
    batch = hitlist.address_batch
    first = hitlist.first_seen_days
    networks = AddressBatch.from_ints([p.network for p in prefixes])
    lasts = AddressBatch.from_ints([p.last.value for p in prefixes])
    starts = searchsorted128(batch.hi, batch.lo, networks.hi, networks.lo, "left")
    ends = searchsorted128(batch.hi, batch.lo, lasts.hi, lasts.lo, "right")
    return [int(first[s:e].max()) for s, e in zip(starts.tolist(), ends.tolist())]


def _probe_on_epochs(
    detector: AliasedPrefixDetector, prefixes: Sequence[IPv6Prefix], epochs: Sequence[int]
) -> list[PrefixProbeOutcome]:
    """Probe each prefix on its membership epoch (one detector call per epoch)."""
    rows_by_epoch: dict[int, list[int]] = {}
    for row, epoch in enumerate(epochs):
        rows_by_epoch.setdefault(epoch, []).append(row)
    outcomes: dict[int, PrefixProbeOutcome] = {}
    for epoch, rows in rows_by_epoch.items():
        probed = detector.probe_prefixes([prefixes[row] for row in rows], epoch)
        outcomes.update(zip(rows, probed.values()))
    return [outcomes[row] for row in range(len(prefixes))]


class DailyHitlist:
    """The published artefacts of one day of the hitlist service.

    Batch-engine days carry the columnar target batch and responsiveness
    matrix; scalar address/set views are materialised lazily, only when a
    consumer actually asks for the published lists.
    """

    def __init__(
        self,
        day: int,
        input_addresses: int,
        aliased_prefixes: list[IPv6Prefix],
        scan_result: "DailyScanResult | BatchDailyScanResult",
        apd_result: APDResult,
        scan_targets: list[IPv6Address] | None = None,
        targets_batch: AddressBatch | None = None,
        hitlist: Hitlist | None = None,
    ):
        if scan_targets is None and targets_batch is None:
            raise ValueError("either scan_targets or targets_batch is required")
        self.day = day
        self.input_addresses = input_addresses
        self.aliased_prefixes = aliased_prefixes
        self.scan_result = scan_result
        self.apd_result = apd_result
        #: Day's hitlist snapshot with provenance (arrays, not entry objects).
        self.hitlist = hitlist
        self._scan_targets = scan_targets
        self._targets_batch = targets_batch

    @property
    def num_scan_targets(self) -> int:
        """Number of scan targets (no scalar materialisation)."""
        if self._targets_batch is not None:
            return len(self._targets_batch)
        return len(self._scan_targets)

    @property
    def scan_targets(self) -> list[IPv6Address]:
        """The de-aliased scan targets (materialised at the publish boundary)."""
        if self._scan_targets is None:
            self._scan_targets = self._targets_batch.to_addresses()
        return self._scan_targets

    @property
    def targets_batch(self) -> AddressBatch:
        """The scan targets as a columnar batch (read-only: a published artefact)."""
        if self._targets_batch is None:
            self._targets_batch = AddressBatch.from_addresses(self._scan_targets)
        return self._targets_batch.readonly()

    @property
    def responsive_addresses(self) -> set[IPv6Address]:
        """Addresses responsive on at least one protocol (the published list)."""
        return self.scan_result.responsive_any

    def responsive_on(self, protocol: Protocol) -> set[IPv6Address]:
        """Addresses responsive on one protocol."""
        return self.scan_result.responsive_on(protocol)

    def count_responsive(self, protocol: Protocol | None = None) -> int:
        """Responsive-address count (matrix sum on the batch engine)."""
        return self.scan_result.count_responsive(protocol)

    @property
    def aliased_share(self) -> float:
        """Fraction of input addresses removed by de-aliasing."""
        if not self.input_addresses:
            return 0.0
        return 1.0 - self.num_scan_targets / self.input_addresses


class HitlistService:
    """The daily IPv6 hitlist service (Section 11).

    Composes source collection, APD and responsiveness scanning into the
    daily loop the paper runs for six months, and keeps per-day outputs.

    Two engines are available, selected by ``policy.reference``:

    * the fast engine (default) -- incremental and columnar.  Day *d* merges
      only source records with ``first_seen_day`` in the not-yet-merged window
      into the standing batch (vectorised dedup via sorted hi/lo binary
      search), updates per-length candidate-prefix counts incrementally,
      re-probes only candidate prefixes whose membership changed (all other
      APD verdicts are reused: an unchanged prefix keeps its membership
      epoch, the day it is probed on), and resolves the daily
      five-protocol scan with one ``probe_batch`` call, keeping per-day
      responsiveness as (target x protocol) boolean matrices.  Days must be
      run in increasing order.
    * the reference engine -- the original scalar loop: rebuild the hitlist
      from scratch, run APD over everything, sweep per protocol with the
      scalar ZMap scanner.  Kept for seeded parity tests and benchmarks.
    """

    def __init__(
        self,
        internet: SimulatedInternet,
        assembly: SourceAssembly,
        apd_config: APDConfig = APDConfig(),
        protocols: Sequence[Protocol] = ALL_PROTOCOLS,
        seed: int = 0,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.internet = internet
        self.assembly = assembly
        self.apd_config = apd_config
        self.protocols = tuple(protocols)
        self.policy = policy
        self._seed = seed
        #: Sub-day dynamics (token buckets, rotation churn, probe waves), or
        #: None for the degenerate whole-day configuration.  Owned per
        #: service: the reference and batch engines each build their own
        #: identically-seeded instance, so parity holds by construction.
        self._dynamics = NetworkDynamics.from_config(internet, seed=seed)
        self.history: dict[int, DailyHitlist] = {}
        #: Per-day number of candidate prefixes actually (re-)probed.
        self.apd_probe_counts: dict[int, int] = {}
        self._publish_hooks: list = []
        # Incremental batch-engine state.
        self._standing: Hitlist | None = None
        self._merged_through: int | None = None
        # Candidates and cached outcomes keyed by ``(hi, lo, length)``, which
        # sorts like the prefixes themselves.
        self._candidates: dict[tuple[int, int, int], IPv6Prefix] = {}
        self._candidate_sorted: list[tuple[tuple[int, int, int], IPv6Prefix]] | None = None
        self._outcome_cache: dict[tuple[int, int, int], PrefixProbeOutcome] = {}

    # -- daily loop -------------------------------------------------------------

    def add_publish_hook(self, hook) -> None:
        """Register a callable invoked with each day's :class:`DailyHitlist`.

        Hooks fire after the day is recorded in :attr:`history` -- the
        publish boundary.  The serving layer subscribes here to freeze and
        swap in a new :class:`~repro.serving.HitlistSnapshot` the moment a
        day is complete, so a service driven by any caller (CLI, examples,
        tests) keeps its servers current without extra wiring.
        """
        self._publish_hooks.append(hook)

    def run_day(self, day: int) -> DailyHitlist:
        """Run the full pipeline for one day and record the outcome."""
        if self.policy.reference:
            daily = self._run_day_reference(day)
        else:
            daily = self._run_day_batch(day)
        self.history[day] = daily
        for hook in self._publish_hooks:
            hook(daily)
        return daily

    def _run_day_reference(self, day: int) -> DailyHitlist:
        """The original scalar loop: rebuild, full APD, per-protocol sweeps."""
        hitlist = Hitlist.from_assembly(self.assembly, day=day)
        addresses = hitlist.addresses
        detector = AliasedPrefixDetector(self.internet, self.apd_config, seed=self._seed)
        candidates = detector.candidate_prefixes(addresses)
        epochs = _membership_epochs(hitlist, candidates)
        apd_result = APDResult(day=day)
        apd_result.outcomes = dict(
            zip(candidates, _probe_on_epochs(detector, candidates, epochs))
        )
        self.apd_probe_counts[day] = len(apd_result.outcomes)
        targets = apd_result.filter_non_aliased(addresses)
        scheduler = ScanScheduler(self.internet, self.protocols, seed=self._seed ^ day)
        scan_result = scheduler.run_day(targets, day, dynamics=self._dynamics)
        return DailyHitlist(
            day=day,
            input_addresses=len(addresses),
            aliased_prefixes=apd_result.aliased_prefixes,
            scan_targets=targets,
            scan_result=scan_result,
            apd_result=apd_result,
            hitlist=hitlist,
        )

    def _run_day_batch(self, day: int) -> DailyHitlist:
        """The incremental columnar loop."""
        if self._merged_through is not None and day < self._merged_through:
            raise ValueError(
                f"batch service days must be non-decreasing (day {day} after "
                f"{self._merged_through}); use ExecutionPolicy(reference=True) for replays"
            )
        new_batch = self._merge_new_records(day)
        changed = self._update_candidates(new_batch)
        cache = self._outcome_cache
        self.apd_probe_counts[day] = len(changed)
        if changed:
            detector = AliasedPrefixDetector(
                self.internet, self.apd_config, seed=self._seed, policy=self.policy
            )
            keys = list(changed)
            prefixes = [self._candidates[key] for key in keys]
            cache.update(zip(keys, _probe_on_epochs(detector, prefixes, list(changed.values()))))
        apd_result = APDResult(day=day)
        apd_result.outcomes = {prefix: cache[key] for key, prefix in self._sorted_candidates()}
        batch = self._standing.address_batch
        aliased_mask = apd_result.is_aliased_batch(batch)
        targets = batch.take(~aliased_mask)
        scheduler = ScanScheduler(self.internet, self.protocols, seed=self._seed ^ day)
        scan_result = scheduler.run_day_batch(targets, day, dynamics=self._dynamics)
        return DailyHitlist(
            day=day,
            input_addresses=len(batch),
            aliased_prefixes=apd_result.aliased_prefixes,
            targets_batch=targets,
            scan_result=scan_result,
            apd_result=apd_result,
            hitlist=self._standing.copy(),
        )

    def _merge_new_records(self, day: int) -> AddressBatch:
        """Merge the not-yet-seen first-seen-day window into the standing batch.

        Returns the union of addresses new to the standing hitlist today
        (sorted, unique) -- the only rows whose candidate membership can have
        changed.
        """
        if self._standing is None:
            self._standing = Hitlist()
        min_day = None if self._merged_through is None else self._merged_through + 1
        fresh: list[AddressBatch] = []
        for source in self.assembly.sources:
            batch, first_seen = source.record_arrays()
            new = self._standing.merge_records(
                batch, first_seen, source.name, min_day=min_day, max_day=day
            )
            if len(new):
                fresh.append(new)
        self._merged_through = day
        if not fresh:
            return AddressBatch.empty()
        return AddressBatch.concatenate(fresh).unique()

    def _update_candidates(self, new_batch: AddressBatch) -> dict[tuple[int, int, int], int]:
        """Re-evaluate candidate membership for prefixes touched by new rows.

        Returns the ``(hi, lo, length)`` key of every candidate whose
        membership changed today, mapped to its new membership epoch.  The
        standing batch is sorted, so per length one boundary scan of its
        shared prefix lengths (:meth:`APDConfig.qualifying_runs`, as in
        one-shot candidate selection) judges every network, and the new
        rows' positions in the standing batch, found once, mark the networks
        they touched.
        """
        changed: dict[tuple[int, int, int], int] = {}
        if len(new_batch) == 0:
            return changed
        config = self.apd_config
        standing = self._standing.address_batch
        first_seen = self._standing.first_seen_days
        shared = standing.shared_prefix_lengths()
        is_new = np.zeros(len(standing), dtype=bool)
        positions = searchsorted128(standing.hi, standing.lo, new_batch.hi, new_batch.lo, "left")
        is_new[positions] = True
        for length in config.prefix_lengths:
            starts, qualifies = config.qualifying_runs(shared, length)
            # Only qualifying networks matter downstream: a touched candidate
            # always qualifies (counts never shrink), and touched
            # non-candidates are never consulted by the re-probe decision.
            touched = qualifies & np.logical_or.reduceat(is_new, starts)
            epochs = np.maximum.reduceat(first_seen, starts)[touched]
            networks = standing.take(starts[touched]).masked(length)
            for hi, lo, epoch in zip(networks.hi.tolist(), networks.lo.tolist(), epochs.tolist()):
                key = (hi, lo, length)
                changed[key] = epoch
                if key not in self._candidates:
                    self._candidates[key] = IPv6Prefix((hi << 64) | lo, length)
                    self._candidate_sorted = None
        return changed

    def _sorted_candidates(self) -> list[tuple[tuple[int, int, int], IPv6Prefix]]:
        if self._candidate_sorted is None:
            self._candidate_sorted = sorted(self._candidates.items())
        return self._candidate_sorted

    @property
    def standing_hitlist(self) -> Hitlist | None:
        """The batch engine's standing hitlist (None before the first day)."""
        return self._standing

    def run_days(self, days: Sequence[int]) -> list[DailyHitlist]:
        """Run the daily pipeline for several days."""
        return [self.run_day(day) for day in days]

    def campaign(self) -> list["DailyScanResult | BatchDailyScanResult"]:
        """All recorded scan results, ordered by day (longitudinal input)."""
        return [daily.scan_result for _, daily in sorted(self.history.items())]

    def apd_history(self) -> Mapping[int, APDResult]:
        """Per-day APD results (input to the sliding window / Table 4)."""
        return {day: daily.apd_result for day, daily in sorted(self.history.items())}

    def responsive_over_time(self, protocol: Protocol | None = None) -> Mapping[int, int]:
        """Number of responsive addresses per day (for longitudinal views).

        On the batch engine this sums the (target x protocol) boolean
        matrices -- no per-day address-set materialisation.
        """
        return {
            day: daily.count_responsive(protocol)
            for day, daily in sorted(self.history.items())
        }
