"""Immutable published hitlist snapshots -- the read side of the service.

A :class:`HitlistSnapshot` freezes one published day of the hitlist service
into a self-contained, query-ready view: the sorted ``uint64`` hi/lo address
columns with per-source membership bitmasks and first-seen days, the day's
(address x protocol) responsiveness matrix scattered back onto the full
hitlist rows, the de-aliasing verdicts as a :class:`FlatLPM`, and a per-row
origin-AS index.  Every array is a read-only view (``writeable=False``), all
lazy state is materialised at build time, and nothing on the query path
mutates the snapshot -- which is what makes it safe to share between any
number of reader threads while the next day's snapshot builds elsewhere.

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
from repro.addr.batch import AddressBatch, FlatLPM, readonly_view
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


class HitlistSnapshot:
    """One published day of the hitlist, frozen for concurrent readers."""

    __slots__ = (
        "generation",
        "day",
        "source_names",
        "protocols",
        "aliased_prefixes",
        "_batch",
        "_values",
        "_masks",
        "_first",
        "_responsive",
        "_unaliased",
        "_apd_lpm",
        "_apd_verdicts",
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
        "_apd_verdicts",
        "_asn",
        "_asn_sorted",
        "_asn_order",
    )

    def __init__(
        self,
        *,
        generation: int,
        day: int,
        batch: AddressBatch,
        source_masks: np.ndarray,
        first_seen_days: np.ndarray,
        source_names: Sequence[str],
        protocols: Sequence[Protocol],
        responsive: np.ndarray,
        unaliased: np.ndarray,
        aliased_prefixes: Sequence[IPv6Prefix] = (),
        apd_lpm: FlatLPM | None = None,
        apd_verdicts: np.ndarray | None = None,
        asn: np.ndarray | None = None,
    ):
        n = len(batch)
        if not batch.is_sorted():
            raise ValueError("snapshot addresses must be sorted")
        if source_masks.shape != (n,) or first_seen_days.shape != (n,):
            raise ValueError("provenance columns must align with the address rows")
        if responsive.shape != (n, len(protocols)) or unaliased.shape != (n,):
            raise ValueError("responsiveness columns must align with the address rows")
        self.generation = generation
        self.day = day
        self.source_names = tuple(source_names)
        self.protocols = tuple(protocols)
        self.aliased_prefixes = tuple(aliased_prefixes)
        self._batch = batch.readonly()
        #: Plain-int bisect index: point queries in ~1 us instead of a
        #: vectorised one-element binary search.
        self._values = batch.to_ints()
        self._masks = readonly_view(np.asarray(source_masks, dtype=np.uint64))
        self._first = readonly_view(np.asarray(first_seen_days, dtype=np.int64))
        self._responsive = readonly_view(np.asarray(responsive, dtype=bool))
        self._unaliased = readonly_view(np.asarray(unaliased, dtype=bool))
        self._apd_lpm = apd_lpm
        self._apd_verdicts = None if apd_verdicts is None else readonly_view(apd_verdicts)
        if asn is None:
            self._asn = None
            self._asn_sorted = None
            self._asn_order = None
        else:
            self._asn = readonly_view(np.asarray(asn, dtype=np.int64))
            order = np.argsort(self._asn, kind="stable")
            self._asn_order = readonly_view(order)
            self._asn_sorted = readonly_view(self._asn[order])

    # -- construction ------------------------------------------------------

    @classmethod
    def from_daily(
        cls,
        daily: "DailyHitlist",
        *,
        generation: int,
        internet: "SimulatedInternet | None" = None,
    ) -> "HitlistSnapshot":
        """Freeze one day of the service into a query-ready snapshot.

        Works for both engines: the hitlist columns come straight from
        :meth:`Hitlist.snapshot_arrays` (zero copy), the day's scan result is
        scattered back onto the full rows (matrix assignment on the batch
        engine, per-protocol membership search on the reference engine), and
        the APD verdicts are the day's own LPM from
        :meth:`~repro.core.apd.APDResult.verdict_lpm`, with every lazy
        ``is_aliased`` forced by *now*, so no reader ever races a lazy cache.
        """
        from repro.addr.batch import find128
        from repro.probing.scheduler import BatchDailyScanResult

        if daily.hitlist is None:
            raise ValueError("DailyHitlist carries no hitlist; cannot snapshot")
        batch, masks, first, source_names = daily.hitlist.snapshot_arrays()
        n = len(batch)
        targets = daily.targets_batch
        positions = find128(batch.hi, batch.lo, targets.hi, targets.lo)
        if len(targets) and bool((positions < 0).any()):
            raise ValueError("scan targets are not a subset of the day's hitlist")
        unaliased = np.zeros(n, dtype=bool)
        unaliased[positions] = True
        scan = daily.scan_result
        if isinstance(scan, BatchDailyScanResult):
            protocols = scan.protocols
            responsive = np.zeros((n, len(protocols)), dtype=bool)
            responsive[positions, :] = scan.responsive_matrix
        else:
            protocols = tuple(scan.results)
            responsive = np.zeros((n, len(protocols)), dtype=bool)
            for j, protocol in enumerate(protocols):
                members = scan.responsive_on(protocol)
                if not members:
                    continue
                member_batch = AddressBatch.from_addresses(members).unique()
                member_pos = find128(batch.hi, batch.lo, member_batch.hi, member_batch.lo)
                responsive[member_pos[member_pos >= 0], j] = True
        apd_lpm, apd_verdicts = daily.apd_result.verdict_lpm()
        asn = None
        if internet is not None:
            bgp = internet.bgp_lpm()
            indices = bgp.lookup_indices(batch)
            origins = np.fromiter(
                (a.origin_asn for a in bgp.objects), dtype=np.int64, count=len(bgp.objects)
            )
            asn = np.where(indices >= 0, origins[np.maximum(indices, 0)], np.int64(-1))
        return cls(
            generation=generation,
            day=daily.day,
            batch=batch,
            source_masks=masks,
            first_seen_days=first,
            source_names=source_names,
            protocols=protocols,
            responsive=responsive,
            unaliased=unaliased,
            aliased_prefixes=daily.aliased_prefixes,
            apd_lpm=apd_lpm,
            apd_verdicts=apd_verdicts,
            asn=asn,
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

    def _lpm_aliased(self, value: int) -> bool:
        """APD verdict for an arbitrary address via the frozen LPM."""
        if self._apd_lpm is None or not len(self._apd_lpm):
            return False
        index = int(
            self._apd_lpm.lookup_indices(AddressBatch.from_ints([value]))[0]
        )
        return bool(self._apd_verdicts[index]) if index >= 0 else False

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
            aliased=self._lpm_aliased(value),
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
