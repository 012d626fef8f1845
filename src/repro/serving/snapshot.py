"""Immutable published hitlist snapshots -- the read side of the service.

A :class:`HitlistSnapshot` freezes one published day of the hitlist service
into a self-contained, query-ready view: the sorted ``uint64`` hi/lo address
columns with per-source membership bitmasks and first-seen days, the day's
(address x protocol) responsiveness matrix scattered back onto the full
hitlist rows, the day's APD verdict table and a per-row origin-AS index.
Every array is a read-only view (``writeable=False``), all lazy state is
materialised at build time, and nothing on the query path mutates the
snapshot -- which is what makes it safe to share between any number of
reader threads while the next day's snapshot builds elsewhere.
Snapshots of one published state share its row columns
(:class:`SnapshotRows`): a day that merged no source record builds only its
responsiveness matrix, and a day that merged records builds its rows from
the previous snapshot's, converting and AS-mapping only the new rows.  Both
service engines publish the same day containers, so one build path serves
both.

Query surface (mirroring what the measurement community asks of the real
service, Section 11 and "IPv6 Hitlists at Scale"):

* :meth:`point_query` -- "is this address on the hitlist / responsive on
  TCP/443 / aliased, and which sources contributed it?"  One C-speed bisect
  over a prebuilt integer index.
* :meth:`prefix_query` -- "the unaliased subset under 2001:db8::/32": two
  bisects cut the sorted rows to the prefix range, masks do the rest.
* :meth:`as_query` -- all rows originated by one AS, via a sorted AS index.
* :meth:`download` -- the whole snapshot as frozen columnar arrays.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.addr.address import IPv6Address, _to_int
from repro.addr.batch import AddressBatch, readonly_view
from repro.addr.prefix import IPv6Prefix, parse_prefix
from repro.netmodel.services import Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hitlist import DailyHitlist
    from repro.netmodel.internet import SimulatedInternet


@dataclass(frozen=True)
class PointAnswer:
    """Answer to one point query, derived from exactly one snapshot."""

    address: IPv6Address
    generation: int
    day: int
    in_hitlist: bool
    aliased: bool
    sources: tuple[str, ...]
    first_seen_day: int | None
    protocols: tuple[Protocol, ...]
    responsive: tuple[bool, ...]

    def responsive_on(self, protocol: Protocol) -> bool:
        """Was the address responsive on *protocol* in this snapshot?"""
        try:
            return self.responsive[self.protocols.index(protocol)]
        except ValueError:
            return False

    @property
    def responsive_any(self) -> bool:
        """Responsive on at least one scanned protocol."""
        return any(self.responsive)


@dataclass(frozen=True)
class SubsetAnswer:
    """A set of hitlist rows selected by a prefix or AS query.

    All columns are aligned, read-only slices of one snapshot generation;
    scalar address objects are materialised only on request (the publish
    boundary discipline of the rest of the pipeline).
    """

    generation: int
    day: int
    addresses: AddressBatch
    responsive: np.ndarray
    source_masks: np.ndarray
    first_seen_days: np.ndarray
    protocols: tuple[Protocol, ...]

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def num_addresses(self) -> int:
        return len(self.addresses)

    def responsive_mask(self, protocol: Protocol | None = None) -> np.ndarray:
        """Boolean responsiveness per selected row (any protocol, or one)."""
        if protocol is None:
            return self.responsive.any(axis=1)
        return self.responsive[:, self.protocols.index(protocol)]

    def num_responsive(self, protocol: Protocol | None = None) -> int:
        return int(self.responsive_mask(protocol).sum())

    def responsive_addresses(self, protocol: Protocol | None = None) -> list[IPv6Address]:
        """Scalar addresses of the responsive rows (materialised on demand)."""
        return self.addresses.take(self.responsive_mask(protocol)).to_addresses()


@dataclass(frozen=True)
class PrefixAnswer(SubsetAnswer):
    """Answer to a prefix query (the rows under one CIDR prefix)."""

    prefix: IPv6Prefix = IPv6Prefix(0, 0)
    include_aliased: bool = False


@dataclass(frozen=True)
class ASAnswer(SubsetAnswer):
    """Answer to an AS query (the rows originated by one AS)."""

    asn: int = -1


@dataclass(frozen=True)
class SnapshotDownload:
    """The whole published snapshot as frozen columnar arrays."""

    generation: int
    day: int
    addresses: AddressBatch
    source_masks: np.ndarray
    first_seen_days: np.ndarray
    source_names: tuple[str, ...]
    protocols: tuple[Protocol, ...]
    responsive: np.ndarray
    unaliased: np.ndarray
    aliased_prefixes: tuple[IPv6Prefix, ...]

    @property
    def num_addresses(self) -> int:
        return len(self.addresses)


class SnapshotRows:
    """The row columns of one published state, shared by all its snapshots.

    Everything a snapshot holds besides the day's responsiveness matrix is
    a function of three objects: the day's hitlist, its verdict table (the
    scan targets are the hitlist rows it does not label aliased, which the
    day hands over as :attr:`~repro.core.hitlist.DailyHitlist.target_rows`)
    and the internet that maps rows to origin ASes.  The batch service hands
    every day up to its next merge the very same hitlist view and verdict
    table, so the snapshots of those days share one instance
    (:meth:`built_from`): the point index and the AS index are built once
    per published state.

    A state that merged records is built from the previous state's rows:
    a hitlist only grows and a row's first-seen day never changes, so the
    previous rows are the rows first seen no later than their last
    first-seen day.  Where those equal the previous rows (and the internet
    is the same), only the new rows get Python ints, spliced into the
    point index, and an origin-AS lookup; otherwise -- a replay of an
    earlier day, another internet -- every row is new.  A first build is
    the same code with no previous rows.
    """

    __slots__ = (
        "hitlist",
        "internet",
        "source_names",
        "batch",
        "values",
        "masks",
        "first",
        "positions",
        "unaliased",
        "apd",
        "asn",
        "asn_sorted",
        "asn_order",
    )

    #: Immutability contract, enforced statically by reprolint rule R2: the
    #: columns are bound once in ``__init__`` and only read afterwards --
    #: any number of snapshots and their readers share them lock-free.
    __frozen_arrays__ = (
        "values",
        "masks",
        "first",
        "positions",
        "unaliased",
        "asn",
        "asn_sorted",
        "asn_order",
    )

    def __init__(
        self,
        daily: "DailyHitlist",
        internet: "SimulatedInternet | None",
        previous: "SnapshotRows | None" = None,
    ) -> None:
        # Sorted unique rows with aligned provenance, all read-only already.
        batch, masks, first, source_names = daily.hitlist.snapshot_arrays()
        positions = daily.target_rows
        unaliased = np.zeros(len(batch), dtype=bool)
        unaliased[positions] = True
        kept = _kept_rows(previous, batch, first, internet)
        old = np.flatnonzero(kept)
        new = np.flatnonzero(~kept)
        fresh = batch.take(new)
        self.hitlist = daily.hitlist
        self.internet = internet
        self.source_names = source_names
        self.batch = batch
        #: Plain-int bisect index: point queries in ~1 us instead of a
        #: vectorised one-element binary search.  Kept rows share the
        #: previous index's ints.
        values = np.empty(len(batch), dtype=object)
        if len(old):
            values[old] = previous.values
        values[new] = fresh.to_ints()
        self.values = values.tolist()
        self.masks = masks
        self.first = first
        self.positions = readonly_view(positions)
        self.unaliased = readonly_view(unaliased)
        # The day's verdict table, its LPM built here so that no reader
        # races the table's lazy build.
        self.apd = daily.apd_result
        self.apd.lpm
        self.asn: np.ndarray | None = None
        self.asn_sorted: np.ndarray | None = None
        self.asn_order: np.ndarray | None = None
        if internet is not None:
            bgp = internet.bgp_lpm()
            indices = bgp.lookup_indices(fresh)
            origins = np.fromiter(
                (a.origin_asn for a in bgp.objects), dtype=np.int64, count=len(bgp.objects)
            )
            asn = np.empty(len(batch), dtype=np.int64)
            if len(old):
                asn[old] = previous.asn
            asn[new] = np.where(indices >= 0, origins[np.maximum(indices, 0)], np.int64(-1))
            order = np.argsort(asn, kind="stable")
            self.asn = readonly_view(asn)
            self.asn_order = readonly_view(order)
            self.asn_sorted = readonly_view(asn[order])

    def built_from(self, daily: "DailyHitlist", internet: "SimulatedInternet | None") -> bool:
        """Are *daily*'s hitlist and verdict table, and *internet*, the very
        objects these rows were built from?"""
        return (
            daily.hitlist is self.hitlist
            and internet is self.internet
            and daily.apd_result is self.apd
        )


def _kept_rows(
    previous: SnapshotRows | None,
    batch: AddressBatch,
    first: np.ndarray,
    internet: "SimulatedInternet | None",
) -> np.ndarray:
    """Which of *batch*'s rows are *previous*'s rows (all False: none are).

    The candidates are the rows first seen no later than the previous rows'
    last first-seen day; they are kept only if they equal the previous rows.
    """
    if previous is None or internet is not previous.internet or not len(previous.batch):
        return np.zeros(len(batch), dtype=bool)
    kept = first <= previous.first.max()
    rows = batch.take(kept)
    if np.array_equal(rows.hi, previous.batch.hi) and np.array_equal(rows.lo, previous.batch.lo):
        return kept
    return np.zeros(len(batch), dtype=bool)


class HitlistSnapshot:
    """One published day of the hitlist, frozen for concurrent readers.

    The row columns come from a :class:`SnapshotRows` that snapshots of one
    published state share; ``__init__`` binds them to the snapshot's own
    slots, so the query path reads them directly.  Only the responsiveness
    matrix belongs to the day.
    """

    __slots__ = (
        "generation",
        "day",
        "source_names",
        "protocols",
        "aliased_prefixes",
        "_rows",
        "_batch",
        "_values",
        "_masks",
        "_first",
        "_responsive",
        "_unaliased",
        "_apd",
        "_asn",
        "_asn_sorted",
        "_asn_order",
    )

    #: Immutability contract, enforced statically by reprolint rule R2: these
    #: array slots are written once in ``__init__`` and never rebound or
    #: mutated afterwards -- concurrent readers hold this object lock-free.
    __frozen_arrays__ = (
        "_values",
        "_masks",
        "_first",
        "_responsive",
        "_unaliased",
        "_asn",
        "_asn_sorted",
        "_asn_order",
    )

    def __init__(
        self,
        *,
        generation: int,
        day: int,
        rows: SnapshotRows,
        protocols: Sequence[Protocol],
        responsive: np.ndarray,
        aliased_prefixes: Sequence[IPv6Prefix] = (),
    ):
        if responsive.shape != (len(rows.batch), len(protocols)):
            raise ValueError("responsiveness columns must align with the address rows")
        self.generation = generation
        self.day = day
        self.source_names = rows.source_names
        self.protocols = tuple(protocols)
        self.aliased_prefixes = tuple(aliased_prefixes)
        self._rows = rows
        self._batch = rows.batch
        self._values = rows.values
        self._masks = rows.masks
        self._first = rows.first
        self._responsive = readonly_view(np.asarray(responsive, dtype=bool))
        self._unaliased = rows.unaliased
        self._apd = rows.apd
        self._asn = rows.asn
        self._asn_sorted = rows.asn_sorted
        self._asn_order = rows.asn_order

    # -- construction ------------------------------------------------------

    @classmethod
    def from_daily(
        cls,
        daily: "DailyHitlist",
        *,
        generation: int,
        internet: "SimulatedInternet | None" = None,
        previous: "HitlistSnapshot | None" = None,
    ) -> "HitlistSnapshot":
        """Freeze one day of the service into a query-ready snapshot.

        Works for both engines, which publish the same containers: the
        hitlist columns come straight from :meth:`Hitlist.snapshot_arrays`
        (zero copy), the day's (target x protocol) scan matrix is scattered
        back onto the full rows with one assignment (its row *i* is hitlist
        row ``target_rows[i]``, see
        :attr:`~repro.core.hitlist.DailyHitlist.target_rows`), and the APD
        verdicts are the day's own :class:`~repro.core.apd.APDResult`.

        *previous* is the snapshot published before this one.  When its
        rows were built from the very objects this day carries
        (:meth:`SnapshotRows.built_from`), the new snapshot shares them and
        builds only its own responsiveness matrix; otherwise the new rows
        are built from them, converting only the rows they lack.
        """
        rows = None if previous is None else previous._rows
        if rows is None or not rows.built_from(daily, internet):
            rows = SnapshotRows(daily, internet, rows)
        scan = daily.scan_result
        protocols = scan.protocols
        responsive = np.zeros((len(rows.batch), len(protocols)), dtype=bool)
        responsive[rows.positions, :] = scan.responsive
        return cls(
            generation=generation,
            day=daily.day,
            rows=rows,
            protocols=protocols,
            responsive=responsive,
            aliased_prefixes=daily.aliased_prefixes,
        )

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._batch)

    def __repr__(self) -> str:
        return (
            f"HitlistSnapshot(generation={self.generation}, day={self.day}, "
            f"addresses={len(self)})"
        )

    @property
    def num_addresses(self) -> int:
        return len(self._batch)

    @property
    def num_scan_targets(self) -> int:
        """Rows outside aliased prefixes (the day's scan targets)."""
        return int(self._unaliased.sum())

    def num_responsive(self, protocol: Protocol | None = None) -> int:
        """Responsive-row count (any protocol, or one)."""
        if protocol is None:
            return int(self._responsive.any(axis=1).sum())
        return int(self._responsive[:, self.protocols.index(protocol)].sum())

    def _sources_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(
            name for bit, name in enumerate(self.source_names) if mask >> bit & 1
        )

    # -- queries -----------------------------------------------------------

    def point_query(self, address: "IPv6Address | int | str") -> PointAnswer:
        """Everything the snapshot knows about one address.

        Membership, de-aliasing verdict, per-protocol responsiveness and
        provenance, answered from this snapshot generation only.
        """
        value = _to_int(address)
        row = bisect.bisect_left(self._values, value)
        if row < len(self._values) and self._values[row] == value:
            return PointAnswer(
                address=IPv6Address(value),
                generation=self.generation,
                day=self.day,
                in_hitlist=True,
                aliased=not bool(self._unaliased[row]),
                sources=self._sources_of_mask(int(self._masks[row])),
                first_seen_day=int(self._first[row]),
                protocols=self.protocols,
                responsive=tuple(self._responsive[row].tolist()),
            )
        return PointAnswer(
            address=IPv6Address(value),
            generation=self.generation,
            day=self.day,
            in_hitlist=False,
            aliased=self._apd.is_aliased(value),
            sources=(),
            first_seen_day=None,
            protocols=self.protocols,
            responsive=tuple(False for _ in self.protocols),
        )

    def _subset_rows(self, rows: np.ndarray) -> dict:
        return {
            "generation": self.generation,
            "day": self.day,
            "addresses": self._batch.take(rows).readonly(),
            "responsive": readonly_view(self._responsive[rows]),
            "source_masks": readonly_view(self._masks[rows]),
            "first_seen_days": readonly_view(self._first[rows]),
            "protocols": self.protocols,
        }

    def prefix_query(
        self,
        prefix: "IPv6Prefix | str",
        *,
        include_aliased: bool = False,
        responsive_only: bool = False,
        protocol: Protocol | None = None,
    ) -> PrefixAnswer:
        """The hitlist rows under one CIDR prefix (unaliased by default).

        Two bisects cut the sorted rows to the prefix's address range; the
        de-aliasing and responsiveness filters are mask intersections on the
        cut.  ``include_aliased=True`` returns the raw membership instead of
        the curated (scan-target) subset.
        """
        prefix = parse_prefix(prefix)
        low = bisect.bisect_left(self._values, prefix.network)
        high = bisect.bisect_right(self._values, prefix.network | prefix.hostmask)
        rows = np.arange(low, high, dtype=np.int64)
        keep = np.ones(len(rows), dtype=bool)
        if not include_aliased:
            keep &= self._unaliased[rows]
        if responsive_only or protocol is not None:
            if protocol is None:
                keep &= self._responsive[rows].any(axis=1)
            else:
                keep &= self._responsive[rows, self.protocols.index(protocol)]
        rows = rows[keep]
        return PrefixAnswer(
            prefix=prefix, include_aliased=include_aliased, **self._subset_rows(rows)
        )

    def as_query(self, asn: int) -> ASAnswer:
        """All hitlist rows whose covering BGP announcement originates at *asn*."""
        if self._asn is None:
            raise ValueError(
                "snapshot was built without an AS index (pass internet= at build time)"
            )
        low = int(np.searchsorted(self._asn_sorted, asn, side="left"))
        high = int(np.searchsorted(self._asn_sorted, asn, side="right"))
        # The stable argsort already lists each AS's rows in ascending order.
        rows = self._asn_order[low:high]
        return ASAnswer(asn=asn, **self._subset_rows(rows))

    def download(self) -> SnapshotDownload:
        """The whole snapshot as frozen columnar arrays (zero copy)."""
        return SnapshotDownload(
            generation=self.generation,
            day=self.day,
            addresses=self._batch,
            source_masks=self._masks,
            first_seen_days=self._first,
            source_names=self.source_names,
            protocols=self.protocols,
            responsive=self._responsive,
            unaliased=self._unaliased,
            aliased_prefixes=self.aliased_prefixes,
        )
