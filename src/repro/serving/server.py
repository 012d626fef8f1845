"""The hitlist server: many concurrent readers, one double-buffered writer.

:class:`HitlistServer` turns the batch-computing :class:`HitlistService` into
the *service* the measurement community actually consumes (Section 11):
readers answer point/prefix/AS queries and snapshot downloads against the
currently published :class:`HitlistSnapshot` while the next day's update
builds in the background, and a publish is one atomic reference swap.

The concurrency model is strict read/write separation over the columnar
substrate:

* **Writers are serialised.**  All publishing -- running the service's day,
  freezing the result into a snapshot, swapping it in -- happens under one
  re-entrant publish lock, on the caller's thread or on the server's
  single-worker background lane (:meth:`publish_day_async`).  The service's
  mutable standing state is only ever touched by the publisher.
* **Readers never take the publish lock.**  A query captures the current
  snapshot reference exactly once and answers everything from that frozen
  object, so a reader either sees generation *g* or generation *g+1* in its
  entirety -- never a half-built day, never a torn mix of two days.  The
  swap itself is a single attribute assignment (atomic under the GIL; the
  copy-on-write discipline means the old snapshot stays fully valid for
  readers still holding it).

Later scale-out shards the same snapshot object: the FlatLPM
disjoint-interval representation gives natural prefix-range shard keys, and
a shard is just a snapshot over a row slice.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable

from repro.core.hitlist import HitlistService
from repro.netmodel.services import Protocol
from repro.serving.snapshot import (
    ASAnswer,
    HitlistSnapshot,
    PointAnswer,
    PrefixAnswer,
    SnapshotDownload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.addr.address import IPv6Address
    from repro.addr.prefix import IPv6Prefix
    from repro.core.hitlist import DailyHitlist


class ServingError(RuntimeError):
    """Base class for serving-layer errors."""


class NoPublishedSnapshot(ServingError):
    """A query arrived before the first snapshot was published."""


class HitlistServer:
    """Serve hitlist queries against atomically published snapshots.

    The server subscribes to its service's publish hook, so *any* caller
    driving ``service.run_day`` -- :meth:`publish_day`, the background lane,
    an example script holding the service directly -- ends with a freshly
    frozen snapshot swapped in.  Queries are answered lock-free against the
    published snapshot (only a small stats counter takes a lock).
    """

    #: Lock discipline, enforced statically by reprolint rule R3: these
    #: attributes may only be touched inside ``with self.<lock>:`` blocks.
    #: ``_current`` is deliberately absent -- it is the one lock-free cell,
    #: a single atomic reference that readers capture without locking.
    _GUARDED_BY = {
        "_generation": "_publish_lock",
        "_snapshots": "_publish_lock",
        "_executor": "_publish_lock",
        "_query_counts": "_stats_lock",
    }

    def __init__(
        self,
        service: HitlistService,
        *,
        validate_hook: "Callable[[HitlistSnapshot], None] | None" = None,
    ):
        self.service = service
        self.internet = service.internet
        #: Invoked with each fully built snapshot *before* the atomic swap --
        #: a validation gate (reject a bad build before it goes live); tests
        #: use it to hold a publish in flight deterministically.
        self.validate_hook = validate_hook
        self._current: HitlistSnapshot | None = None
        self._snapshots: dict[int, HitlistSnapshot] = {}
        self._generation = 0
        # Re-entrant: publish_day holds it across service.run_day, whose
        # publish hook re-enters for the freeze + swap.
        self._publish_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._query_counts = {"point": 0, "prefix": 0, "as": 0, "download": 0}
        self._executor: ThreadPoolExecutor | None = None
        service.add_publish_hook(self._on_publish)

    # -- publish side (serialised) ----------------------------------------

    def _on_publish(self, daily: "DailyHitlist") -> None:
        """Freeze a finished day and swap it in (the service's publish hook).

        The current snapshot is offered to the build, which shares its row
        columns when the day carries the very objects they came from.
        """
        with self._publish_lock:
            snapshot = HitlistSnapshot.from_daily(
                daily,
                generation=self._generation + 1,
                internet=self.internet,
                previous=self._current,
            )
            if self.validate_hook is not None:
                self.validate_hook(snapshot)
            self._generation = snapshot.generation
            self._snapshots[snapshot.generation] = snapshot
            self._current = snapshot  # the atomic swap: readers see it whole

    def publish_day(self, day: int) -> HitlistSnapshot:
        """Run the service for *day* and publish the result (blocking)."""
        with self._publish_lock:
            self.service.run_day(day)
            return self._current

    def publish_day_async(self, day: int) -> "Future[HitlistSnapshot]":
        """Queue *day* on the single-worker background build lane.

        Builds run strictly in submission order (the lane has one worker and
        publishing is lock-serialised anyway), so queued days respect the
        batch engine's non-decreasing-day contract.  Readers keep querying
        the current snapshot throughout.
        """
        with self._publish_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="hitlist-publish"
                )
            executor = self._executor
        return executor.submit(self.publish_day, day)

    def close(self) -> None:
        """Drain the background build lane (if one was started)."""
        with self._publish_lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "HitlistServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- read side (lock-free against publishes) ---------------------------

    @property
    def current(self) -> HitlistSnapshot:
        """The currently published snapshot (one atomic reference read)."""
        snapshot = self._current
        if snapshot is None:
            raise NoPublishedSnapshot(
                "no snapshot published yet; call publish_day() first"
            )
        return snapshot

    @property
    def generation(self) -> int:
        """Generation number of the published snapshot (0 before the first)."""
        snapshot = self._current
        return 0 if snapshot is None else snapshot.generation

    @property
    def published_generations(self) -> list[int]:
        """All published generation numbers."""
        with self._publish_lock:
            return sorted(self._snapshots)

    def snapshot(self, generation: int | None = None) -> HitlistSnapshot:
        """A published snapshot: the current one, or a historic generation."""
        if generation is None:
            return self.current
        try:
            with self._publish_lock:
                return self._snapshots[generation]
        except KeyError:
            raise ServingError(
                f"generation {generation} is not in the published history "
                f"({self.published_generations})"
            ) from None

    def _count(self, kind: str) -> None:
        with self._stats_lock:
            self._query_counts[kind] += 1

    def point_query(self, address: "IPv6Address | int | str") -> PointAnswer:
        """Point lookup against the current snapshot."""
        snapshot = self.current
        self._count("point")
        return snapshot.point_query(address)

    def prefix_query(
        self,
        prefix: "IPv6Prefix | str",
        *,
        include_aliased: bool = False,
        responsive_only: bool = False,
        protocol: Protocol | None = None,
    ) -> PrefixAnswer:
        """Prefix subset against the current snapshot (unaliased by default)."""
        snapshot = self.current
        self._count("prefix")
        return snapshot.prefix_query(
            prefix,
            include_aliased=include_aliased,
            responsive_only=responsive_only,
            protocol=protocol,
        )

    def as_query(self, asn: int) -> ASAnswer:
        """Per-AS subset against the current snapshot."""
        snapshot = self.current
        self._count("as")
        return snapshot.as_query(asn)

    def download(self) -> SnapshotDownload:
        """Full snapshot download (frozen arrays, zero copy)."""
        snapshot = self.current
        self._count("download")
        return snapshot.download()

    def stats(self) -> dict:
        """Served-query counters and publish state (for ops/benchmarks)."""
        with self._stats_lock:
            counts = dict(self._query_counts)
        with self._publish_lock:
            published_days = sorted(s.day for s in self._snapshots.values())
        return {
            "generation": self.generation,
            "published_days": published_days,
            "queries": counts,
            "queries_total": sum(counts.values()),
        }
