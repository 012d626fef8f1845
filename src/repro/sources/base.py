"""Common machinery for hitlist sources.

A source produces :class:`SourceRecord` entries -- an address, the source
name, and the day the address was first observed.  The paper accumulates
sources ("IP addresses will stay indefinitely in our scanning list"), so the
natural query is a *snapshot*: every address first seen on or before a day.
A source keeps its records sorted by first-seen day, so every day-bounded
query -- a snapshot, a cumulative count, the hitlist's merge window -- is a
binary search over them.
"""

from __future__ import annotations

import abc
import bisect
import math
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, readonly_view
from repro.netmodel.internet import SimulatedInternet


@dataclass(frozen=True, slots=True)
class SourceRecord:
    """One address observation by one source."""

    address: IPv6Address
    source: str
    first_seen_day: int


@dataclass(slots=True)
class SourceSnapshot:
    """All addresses a source has contributed up to (and including) a day."""

    source: str
    day: int
    addresses: list[IPv6Address] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self):
        return iter(self.addresses)

    def as_set(self) -> set[IPv6Address]:
        """The snapshot as a set (for overlap computations)."""
        return set(self.addresses)


def growth_first_seen_day(
    rng: random.Random, runup_days: int, explosiveness: float = 3.0
) -> int:
    """Sample the day an address first entered a source.

    Figure 1a shows sources growing by a factor of 10-100 over the run-up
    period -- most addresses are recent.  Sampling ``T * u^(1/explosiveness)``
    makes the cumulative count grow like ``(t/T)^explosiveness``: slow at
    first, explosive at the end.  Larger values model sources like scamper.
    """
    if runup_days <= 0:
        return 0
    u = rng.random()
    return min(runup_days - 1, int(runup_days * (u ** (1.0 / explosiveness))))


_first_seen_day = attrgetter("first_seen_day")


class HitlistSource(abc.ABC):
    """Base class for all hitlist sources.

    Subclasses generate their full record timeline at construction time (so
    everything is deterministic given the seed) and answer day-bounded
    queries from it.  The records are sorted by first-seen day (then
    address) once, here, and every query relies on that order: it bisects
    the record list or slices the record columns instead of testing each
    record.
    """

    #: Name used in tables and figures.
    name: str = "source"
    #: "Servers", "Routers", "Clients" or "Mixed" -- the Table 2 "Nature" column.
    nature: str = "Mixed"
    #: Whether the paper classifies the source as public.
    public: bool = True
    #: Growth explosiveness for first-seen-day sampling.
    explosiveness: float = 3.0

    def __init__(
        self,
        internet: SimulatedInternet,
        target_size: int,
        seed: int,
        runup_days: int = 180,
    ):
        self.internet = internet
        self.target_size = target_size
        self.runup_days = runup_days
        self._rng = random.Random(seed)
        self._records: list[SourceRecord] = []
        self._record_arrays: tuple[AddressBatch, np.ndarray] | None = None
        self._build_records()

    # -- to implement ------------------------------------------------------

    @abc.abstractmethod
    def _draw_addresses(self, rng: random.Random) -> list[IPv6Address]:
        """Draw the source's address population from the simulated Internet."""

    # -- record generation --------------------------------------------------

    def _build_records(self) -> None:
        addresses = self._draw_addresses(self._rng)
        seen: set[int] = set()
        for addr in addresses:
            if addr.value in seen:
                continue
            seen.add(addr.value)
            day = growth_first_seen_day(self._rng, self.runup_days, self.explosiveness)
            self._records.append(SourceRecord(addr, self.name, day))
        self._records.sort(key=lambda r: (r.first_seen_day, r.address.value))

    # -- queries -------------------------------------------------------------

    @property
    def records(self) -> list[SourceRecord]:
        """All records of this source (sorted by first-seen day)."""
        return list(self._records)

    def record_arrays(
        self, first_day: float | None = None, last_day: float | None = None
    ) -> tuple[AddressBatch, np.ndarray]:
        """The records first seen in ``[first_day, last_day]`` as columns.

        Returns ``(addresses, first_seen_days)`` in record order (sorted by
        first-seen day, then address), already deduplicated per source: the
        zero-object input of :meth:`Hitlist.merge_records`.  ``None`` leaves
        a side of the window open, so no bounds give every record.  The day
        column is ``int64`` (a fractional record day floors to the day grid)
        and fractional bounds floor too, so the window is one slice of the
        columns.  The columns are built once and cached -- records are
        immutable after construction -- and each window is a read-only view
        of them, so a consumer cannot corrupt the shared cache.
        """
        if self._record_arrays is None:
            batch = AddressBatch.from_ints([r.address.value for r in self._records])
            days = np.fromiter(
                (r.first_seen_day for r in self._records),
                dtype=np.int64,
                count=len(self._records),
            )
            self._record_arrays = (batch.readonly(), readonly_view(days))
        batch, days = self._record_arrays
        start, stop = 0, len(days)
        # Python-int bounds: a float bound would make each search convert the column.
        if first_day is not None:
            start = int(np.searchsorted(days, math.floor(first_day), "left"))
        if last_day is not None:
            stop = int(np.searchsorted(days, math.floor(last_day), "right"))
        window = slice(start, stop)
        return batch.take(window).readonly(), readonly_view(days[window])

    def snapshot(self, day: int | None = None) -> SourceSnapshot:
        """Addresses first seen on or before *day* (default: everything)."""
        if day is None:
            day = self.runup_days
        stop = bisect.bisect_right(self._records, day, key=_first_seen_day)
        addresses = [r.address for r in self._records[:stop]]
        return SourceSnapshot(source=self.name, day=day, addresses=addresses)

    def cumulative_counts(self, days: Sequence[int]) -> list[int]:
        """Cumulative address count at each of the given days (Figure 1a)."""
        return [bisect.bisect_right(self._records, day, key=_first_seen_day) for day in days]

    def __len__(self) -> int:
        return len(self._records)

    # -- shared sampling helpers ---------------------------------------------

    def _weighted_server_addresses(
        self,
        rng: random.Random,
        count: int,
        concentration: float,
        roles: Iterable | None = None,
    ) -> list[IPv6Address]:
        """Sample bound server addresses with tunable AS concentration.

        ``concentration`` in [0, 1]: 0 samples hosts uniformly (balanced over
        the host population), 1 samples proportionally to the square of the
        AS weight (very top-heavy, like the domain-list and CT sources).
        Intermediate values interpolate through the exponent, so a moderately
        concentrated source (e.g. FDNS) is noticeably flatter than CT.
        """
        from repro.netmodel.services import HostRole

        wanted_roles = (
            set(roles)
            if roles is not None
            else {HostRole.WEB_SERVER, HostRole.CDN_EDGE, HostRole.DNS_SERVER, HostRole.MAIL_SERVER}
        )
        hosts = [h for h in self.internet.hosts if h.role in wanted_roles]
        if not hosts:
            return []
        weights = []
        exponent = 2.0 * concentration
        for host in hosts:
            descriptor = self.internet.registry.get(host.asn)
            as_weight = descriptor.weight if descriptor else 1.0
            weights.append(as_weight**exponent)
        picks = rng.choices(hosts, weights=weights, k=count)
        return [rng.choice(h.addresses) for h in picks]
