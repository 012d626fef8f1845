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
only at the publish boundary.  Rows enter it one way only,
:meth:`Hitlist.merge_records`: one union of every source's first-seen-day
window.  :class:`HitlistService` runs the daily loop in
one of two engines: the incremental fast engine (default) merges only the
day's new source records into the standing batch, reuses APD verdicts for
prefixes whose candidate membership is unchanged, and scans targets with one
``probe_batch`` call; ``ExecutionPolicy(reference=True)`` keeps the original
rebuild-everything scalar loop for parity testing.  Both publish the same
:class:`DailyHitlist`, whose scan is a (target x protocol) matrix on either
engine.

Both engines probe a candidate prefix on its *membership epoch*: the latest
first-seen day among its rows.  A verdict is therefore a function of the
prefix's rows, which is what makes the fast engine's reuse exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import (
    AddressBatch,
    PackedKeys,
    prefix_masks,
    readonly_view,
    searchsorted128,
    union_sorted,
)
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult, PrefixProbeOutcome
from repro.events.dynamics import NetworkDynamics
from repro.exec import ExecutionPolicy
from repro.netmodel.internet import BatchProbeResult, ResolvedTargets, SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import ScanScheduler
from repro.sources.base import HitlistSource
from repro.sources.registry import SourceAssembly

#: Sentinel first-seen day for freshly inserted rows (min() always replaces it).
_NEVER_SEEN = np.int64(2**62)


class Hitlist:
    """The accumulated union of the hitlist sources, with provenance.

    Provenance is stored columnarly: a sorted-unique :class:`AddressBatch`
    (the primary representation), one ``uint64`` per-source membership
    bitmask per address and one ``first_seen_day`` per address.  Scalar
    :class:`IPv6Address` views are materialised lazily at the publish
    boundary; all curation steps -- merging, APD candidate aggregation,
    de-aliasing -- run on the arrays.

    :meth:`merge_records` is the only write path: every build (from
    :meth:`from_sources`, or the daily service's day window) is one union of
    the sources' first-seen windows.  Merges are copy-on-write: they replace
    the four arrays and never write them in place, which is what keeps a
    :meth:`frozen` view valid after later merges.
    """

    def __init__(self) -> None:
        self._hi = np.zeros(0, dtype=np.uint64)
        self._lo = np.zeros(0, dtype=np.uint64)
        self._masks = np.zeros(0, dtype=np.uint64)
        self._first = np.zeros(0, dtype=np.int64)
        self._source_names: list[str] = []
        self._source_bits: dict[str, int] = {}
        self._addresses: tuple[IPv6Address, ...] | None = None
        self._view: Hitlist | None = None
        self._read_only = False

    # -- construction -----------------------------------------------------------

    def _check_writable(self) -> None:
        if self._read_only:
            raise ValueError("a frozen hitlist view is read-only")

    def source_bit(self, name: str) -> int:
        """Bit index of *name* in the membership masks (registered on demand)."""
        bit = self._source_bits.get(name)
        if bit is None:
            self._check_writable()
            bit = len(self._source_names)
            if bit >= 64:
                raise ValueError("a hitlist supports at most 64 distinct sources")
            self._source_bits[name] = bit
            self._source_names.append(name)
            # The cached view carries the names it was made with.
            self._view = None
        return bit

    @property
    def source_names(self) -> list[str]:
        """All registered source names, in bit order."""
        return list(self._source_names)

    def merge_records(
        self,
        sources: Sequence[HitlistSource],
        first_day: float | None = None,
        last_day: float | None = None,
    ) -> AddressBatch:
        """Merge every source's records first seen in ``[first_day, last_day]``.

        Each window is one slice of its source's day-sorted record columns
        (:meth:`HitlistSource.record_arrays`: ``None`` leaves a side open and
        fractional bounds floor to the day grid), and the windows of all
        sources are merged in one union.  Every source's bit is registered
        in the given order, even when its window is empty, so the mask
        layout depends only on the source order.  If every window is empty
        nothing is replaced, and unless a new source name was registered
        :meth:`frozen` keeps returning the same view.

        Returns the addresses that were new to the hitlist (sorted, unique).
        """
        self._check_writable()
        windows: list[tuple[AddressBatch, np.ndarray, np.ndarray]] = []
        for source in sources:
            bit = self.source_bit(source.name)
            batch, days = source.record_arrays(first_day, last_day)
            if len(batch):
                windows.append((batch, np.full(len(batch), np.uint64(1 << bit)), days))
        if not windows:
            return AddressBatch.empty()
        batches, masks, days = zip(*windows)
        return self._merge_arrays(
            AddressBatch.concatenate(batches), np.concatenate(masks), np.concatenate(days)
        )

    def _merge_arrays(
        self, batch: AddressBatch, masks: np.ndarray, days: np.ndarray
    ) -> AddressBatch:
        """Vectorised provenance merge; returns the rows new to the hitlist."""
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
        self._view = None
        return s.take(is_new)

    @classmethod
    def from_assembly(cls, assembly: SourceAssembly, day: int | None = None) -> "Hitlist":
        """Build a hitlist from every source's snapshot up to *day*."""
        return cls.from_sources(assembly.sources, day=day)

    @classmethod
    def from_sources(cls, sources: Sequence[HitlistSource], day: float | None = None) -> "Hitlist":
        """Build a hitlist from every record first seen on or before *day*.

        *day* floors to the day grid, so a fractional event time (e.g. a
        wave timestamp) selects exactly the completed days.
        """
        hitlist = cls()
        hitlist.merge_records(sources, last_day=day)
        return hitlist

    def frozen(self) -> "Hitlist":
        """A read-only view of the current rows (the per-day provenance artefact).

        Zero copy: the view shares this hitlist's arrays, and merges replace
        those rather than write them, so the view keeps today's rows after
        later merges.  Until the next merge (or source registration) every
        call returns the same view object, so view identity tells whether
        anything changed since.  The view's mutators raise ``ValueError``.
        """
        if self._read_only:
            return self
        if self._view is None:
            view = Hitlist()
            view._hi, view._lo = readonly_view(self._hi), readonly_view(self._lo)
            view._masks, view._first = readonly_view(self._masks), readonly_view(self._first)
            view._source_names = list(self._source_names)
            view._source_bits = dict(self._source_bits)
            view._read_only = True
            self._view = view
        return self._view

    # -- access -------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self._hi.shape[0])

    @property
    def addresses(self) -> tuple[IPv6Address, ...]:
        """All hitlist addresses (ascending; materialised lazily and cached).

        A tuple: every reader gets the same cached object, so no reader may
        change what the others see.
        """
        if self._addresses is None:
            self._addresses = tuple(self.address_batch.to_addresses())
        return self._addresses

    @property
    def address_batch(self) -> AddressBatch:
        """All hitlist addresses as a columnar batch (the primary view).

        A read-only view over the internal arrays: curation mutates the
        hitlist only by replacing whole arrays, never in place, so handing
        out frozen views is free and keeps published snapshots immutable.
        """
        return AddressBatch(self._hi, self._lo).readonly()

    @property
    def first_seen_days(self) -> np.ndarray:
        """Per-address first-seen day, aligned with :attr:`address_batch` (read-only)."""
        return readonly_view(self._first)

    @property
    def source_masks(self) -> np.ndarray:
        """Per-address source membership bitmasks, bit order = source_names (read-only)."""
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

    def by_source(self, source: str) -> list[IPv6Address]:
        """Addresses contributed (possibly among others) by one source."""
        bit = self._source_bits.get(source)
        if bit is None:
            return []
        mask = (self._masks >> np.uint64(bit)) & np.uint64(1)
        return self.address_batch.take(mask.astype(bool)).to_addresses()

    def provenance(self) -> dict[int, tuple[frozenset[str], int]]:
        """Address value -> (source set, first seen day), for parity checks."""
        return {
            value: (frozenset(self._sources_of_mask(mask)), day)
            for value, mask, day in zip(
                self.address_batch.to_ints(), self._masks.tolist(), self._first.tolist()
            )
        }


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
    """Probe each prefix on its membership epoch (one detector call per epoch),
    returning the outcomes epoch by epoch."""
    by_epoch: dict[int, list[IPv6Prefix]] = {}
    for prefix, epoch in zip(prefixes, epochs):
        by_epoch.setdefault(epoch, []).append(prefix)
    outcomes: list[PrefixProbeOutcome] = []
    for epoch, group in by_epoch.items():
        outcomes += detector.probe_prefixes(group, epoch).values()
    return outcomes


@dataclass(frozen=True, slots=True, eq=False)
class DailyHitlist:
    """The published artefacts of one day of the hitlist service.

    Both engines publish the same containers: the day's scan is one
    read-only :class:`~repro.netmodel.internet.BatchProbeResult` whose rows
    are the scan targets, the hitlist rows at :attr:`target_rows`, and
    scalar address/set views are materialised only when a consumer asks
    for the published lists.  A published day cannot be changed by its
    readers: the fields cannot be rebound, and each is read-only.  On the
    batch engine every day up to the next merge shares the same hitlist
    view, verdict table and target rows.
    """

    day: int
    input_addresses: int
    aliased_prefixes: tuple[IPv6Prefix, ...]
    scan_result: BatchProbeResult
    apd_result: APDResult
    #: The day's hitlist with provenance (columnar arrays); on the batch
    #: engine a :meth:`Hitlist.frozen` view of the standing rows.
    hitlist: Hitlist
    #: The scan targets' positions among the hitlist rows (ascending,
    #: read-only): row *i* of the scan belongs to hitlist row
    #: ``target_rows[i]``.
    target_rows: np.ndarray

    @property
    def num_scan_targets(self) -> int:
        """Number of scan targets (no scalar materialisation)."""
        return len(self.scan_result.targets)

    @property
    def scan_targets(self) -> list[IPv6Address]:
        """The de-aliased scan targets (a new list on every call)."""
        return self.scan_result.targets.to_addresses()

    @property
    def targets_batch(self) -> AddressBatch:
        """The scan targets as a columnar batch (read-only: a published artefact).

        The scan's own target batch, so its rows align with the
        responsiveness matrix.
        """
        return self.scan_result.targets.readonly()

    @property
    def responsive_addresses(self) -> frozenset[IPv6Address]:
        """Addresses responsive on at least one protocol (the published list)."""
        return self.scan_result.responsive_on()

    def responsive_on(self, protocol: Protocol) -> frozenset[IPv6Address]:
        """Addresses responsive on one protocol."""
        return self.scan_result.responsive_on(protocol)

    def count_responsive(self, protocol: Protocol | None = None) -> int:
        """Responsive-target count: a sum over the scan matrix's rows.

        The rows are the day's scan targets, unique hitlist rows on both
        engines, so the count equals the size of the published sets.
        """
        return self.scan_result.count_responsive(protocol)

    @property
    def aliased_share(self) -> float:
        """Fraction of input addresses removed by de-aliasing."""
        if not self.input_addresses:
            return 0.0
        return 1.0 - self.num_scan_targets / self.input_addresses


@dataclass(frozen=True)
class _PublishedState:
    """What the batch engine publishes besides the day's scan.

    All of it is a function of the standing rows and the candidate
    outcomes, so it changes only on a day that merges a source record; every
    other day wraps the same objects in its own :class:`DailyHitlist` and
    scans the same resolved targets, so it makes no address lookup.  A day
    that merges records carries the previous state's row columns through the
    merge: only the new rows are resolved, and only the rows of the blocks
    they fall in are looked up in the new verdict LPM.
    """

    #: The standing rows as of the build (a :meth:`Hitlist.frozen` view).
    hitlist: Hitlist
    #: The candidate verdict table, with its LPM built.
    apd: APDResult
    #: Every standing row, resolved, and whether it lies in an aliased
    #: prefix (read-only, aligned with the rows).
    rows: ResolvedTargets
    aliased: np.ndarray
    #: The rows outside aliased prefixes (their ascending positions,
    #: read-only, and their resolution): the scan targets of every day
    #: until the next merge.
    target_rows: np.ndarray
    targets: ResolvedTargets
    #: The table's aliased prefixes.
    aliased_prefixes: tuple[IPv6Prefix, ...]


class HitlistService:
    """The daily IPv6 hitlist service (Section 11).

    Composes source collection, APD and responsiveness scanning into the
    daily loop the paper runs for six months, and keeps per-day outputs.

    Two engines are available, selected by ``policy.reference``:

    * the fast engine (default) -- incremental and columnar.  Day *d* merges
      only source records with ``first_seen_day`` in the not-yet-merged window
      into the standing batch (vectorised dedup via sorted hi/lo binary
      search) and works only on that delta: the new rows and the /*L* blocks
      they fall in (*L* the shortest APD prefix length), which hold every
      candidate prefix, verdict and aliased-row status a new row can change.
      It re-judges the candidates of those blocks, re-probes only candidate
      prefixes whose membership changed (all other APD verdicts are reused:
      an unchanged prefix keeps its membership epoch, the day it is probed
      on), resolves only the new rows and looks up only the blocks' rows in
      the new verdict LPM, and resolves the daily five-protocol scan with
      one ``probe_batch`` call, keeping per-day responsiveness as
      (target x protocol) boolean matrices.  A day whose window holds no
      source record reuses the previous day's published state (hitlist
      view, verdict table, resolved rows and targets, aliased prefixes) and
      only draws its scan.  Days must be run in increasing order.
    * the reference engine -- the original scalar loop: rebuild the hitlist
      from scratch, run APD over everything, sweep per protocol with the
      scalar ZMap scanner, recording the replies into the same scan matrix.
      Kept for seeded parity tests and benchmarks.
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
        #: Every candidate's latest outcome: a record day replaces the
        #: table with :meth:`APDResult.with_outcomes`, never writes it.
        self._apd = APDResult.from_outcomes(())
        self._published: _PublishedState | None = None

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
        apd_result = APDResult.from_outcomes(_probe_on_epochs(detector, candidates, epochs))
        self.apd_probe_counts[day] = len(apd_result.outcomes)
        target_rows = np.flatnonzero(~apd_result.is_aliased_batch(hitlist.address_batch))
        targets = [addresses[row] for row in target_rows.tolist()]
        scheduler = ScanScheduler(self.internet, self.protocols, seed=self._seed ^ day)
        scan_result = scheduler.run_day(targets, day, dynamics=self._dynamics)
        return DailyHitlist(
            day=day,
            input_addresses=len(addresses),
            aliased_prefixes=apd_result.aliased_prefixes,
            scan_result=scan_result,
            apd_result=apd_result,
            hitlist=hitlist,
            target_rows=readonly_view(target_rows),
        )

    def _run_day_batch(self, day: int) -> DailyHitlist:
        """The incremental columnar loop."""
        if self._merged_through is not None and day < self._merged_through:
            raise ValueError(
                f"batch service days must be non-decreasing (day {day} after "
                f"{self._merged_through}); use ExecutionPolicy(reference=True) for replays"
            )
        new_batch = self._merge_new_records(day)
        # Any merged record replaces the standing arrays and with them the
        # frozen view, even one that only adds a source to a known row.
        hitlist = self._standing.frozen()
        state = self._published
        self.apd_probe_counts[day] = 0
        if state is None or state.hitlist is not hitlist:
            state = self._published = self._build_published_state(hitlist, new_batch, day)
        scheduler = ScanScheduler(self.internet, self.protocols, seed=self._seed ^ day)
        scan_result = scheduler.run_day_batch(state.targets, day, dynamics=self._dynamics)
        return DailyHitlist(
            day=day,
            input_addresses=len(hitlist),
            aliased_prefixes=state.aliased_prefixes,
            scan_result=scan_result,
            apd_result=state.apd,
            hitlist=hitlist,
            target_rows=state.target_rows,
        )

    def _build_published_state(
        self, hitlist: Hitlist, new_batch: AddressBatch, day: int
    ) -> _PublishedState:
        """Carry the published state through a merge that added *new_batch*.

        Only the delta is worked: the candidates of the blocks the new rows
        fall in are re-judged (:meth:`_update_candidates`), the new rows are
        resolved and inserted into the previous state's resolution, and only
        the blocks' rows are looked up in the new verdict LPM -- every other
        row keeps its aliased status.  The first build is the same code with
        every row new.
        """
        batch = hitlist.address_batch
        keys = PackedKeys(batch)
        new_rows = keys.searchsorted(new_batch, "left")
        block_rows = self._block_rows(keys, new_batch)
        self.apd_probe_counts[day] = self._update_candidates(hitlist, new_rows, block_rows)
        apd = self._apd
        rows = self.internet.resolve_targets(new_batch)
        aliased = np.zeros(len(batch), dtype=bool)
        previous = self._published
        if previous is not None:
            # ``np.insert`` positions: each new row goes before the old row
            # that follows it.
            before = new_rows - np.arange(len(new_rows))
            rows = previous.rows.insert(before, rows)
            aliased = np.insert(previous.aliased, before, False)
        aliased[block_rows] = apd.is_aliased_batch(batch.take(block_rows))
        target_rows = np.flatnonzero(~aliased)
        return _PublishedState(
            hitlist,
            apd,
            rows,
            readonly_view(aliased),
            readonly_view(target_rows),
            rows.take(target_rows),
            apd.aliased_prefixes,
        )

    def _merge_new_records(self, day: int) -> AddressBatch:
        """Merge the not-yet-seen first-seen-day window into the standing batch.

        One :meth:`Hitlist.merge_records` call over all sources, which floors
        the window to the day grid.  Returns the addresses new to the
        standing hitlist today (sorted, unique) -- the only rows whose
        candidate membership can have changed.
        """
        if self._standing is None:
            self._standing = Hitlist()
        first_day = None if self._merged_through is None else self._merged_through + 1
        new = self._standing.merge_records(self.assembly.sources, first_day, last_day=day)
        self._merged_through = day
        return new

    def _block_rows(self, keys: PackedKeys, new_batch: AddressBatch) -> np.ndarray:
        """Positions of the standing rows in the /L blocks the new rows fall in.

        *L* is the shortest APD prefix length, so a row's block holds every
        candidate prefix that covers it: rows outside these blocks keep
        their candidates, verdicts and aliased status.  *keys* are the
        standing rows, packed; the result is sorted.
        """
        length = min(self.apd_config.prefix_lengths, default=128)
        blocks = new_batch.masked(length)
        blocks = blocks.take(blocks.sorted_run_starts())
        mask_hi, mask_lo = prefix_masks(np.array([length]))
        lasts = AddressBatch(blocks.hi | ~mask_hi, blocks.lo | ~mask_lo)
        starts = keys.searchsorted(blocks, "left")
        counts = keys.searchsorted(lasts, "right") - starts
        # Each block's rows are one run: output index plus the block's shift.
        shifts = starts - (np.cumsum(counts) - counts)
        return np.arange(counts.sum(), dtype=np.int64) + np.repeat(shifts, counts)

    def _update_candidates(
        self, hitlist: Hitlist, new_rows: np.ndarray, block_rows: np.ndarray
    ) -> int:
        """Re-judge the candidates of the touched blocks; re-probe the changed ones.

        *new_rows* and *block_rows* are standing-row positions (see
        :meth:`_block_rows`).  The block rows are sorted and every block is
        whole, so one pass of the candidate rule
        (:meth:`APDConfig.candidate_runs`, as in one-shot candidate
        selection) judges every network in the blocks, and the new rows'
        places among them mark the networks they touched.  A candidate whose
        membership changed is probed on its new membership epoch, and the
        verdict table takes the outcomes copy-on-write.  Returns the number
        of candidates probed.
        """
        if len(new_rows) == 0:
            return 0
        rows = hitlist.address_batch.take(block_rows)
        # Only qualifying networks matter downstream: a touched candidate
        # always qualifies (counts never shrink), and touched non-candidates
        # are never consulted by the re-probe decision.
        keys, starts, ends = self.apd_config.candidate_runs(rows)
        # new_before[i]: how many new rows lie before block row i.
        new_before = np.zeros(len(rows) + 1, dtype=np.int64)
        new_before[np.searchsorted(block_rows, new_rows) + 1] = 1
        new_before = np.cumsum(new_before)
        touched = new_before[ends] > new_before[starts]
        if not touched.any():
            return 0
        # The latest first-seen day of each touched run: reduce over the
        # (start, end) pairs, padded so that a run may end at the last row,
        # and keep every other result.
        first_seen = np.append(hitlist.first_seen_days[block_rows], 0)
        runs = np.column_stack((starts[touched], ends[touched])).ravel()
        epochs = np.maximum.reduceat(first_seen, runs)[::2]
        prefixes = [
            IPv6Prefix((hi << 64) | lo, length) for hi, lo, length in keys[touched].tolist()
        ]
        detector = AliasedPrefixDetector(
            self.internet, self.apd_config, seed=self._seed, policy=self.policy
        )
        self._apd = self._apd.with_outcomes(_probe_on_epochs(detector, prefixes, epochs.tolist()))
        return len(prefixes)

    @property
    def standing_hitlist(self) -> Hitlist | None:
        """The batch engine's standing hitlist (None before the first day)."""
        return self._standing

    def run_days(self, days: Sequence[int]) -> list[DailyHitlist]:
        """Run the daily pipeline for several days."""
        return [self.run_day(day) for day in days]

    def campaign(self) -> list[BatchProbeResult]:
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
