"""Concurrency tests for the hitlist serving layer.

Readers hammer point/prefix queries while the publisher swaps in new
generations; every recorded answer must be consistent with exactly one
published snapshot generation (no torn reads), and readers must keep making
progress while a publish is in flight.  All synchronisation is explicit
(events, conditions, barriers) -- no sleeps, so the tests are deterministic
and fast on any machine.
"""

from __future__ import annotations

import threading

import pytest

from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.scenarios import build
from repro.serving import HitlistServer, NoPublishedSnapshot, ServingError

SCENARIO = dict(scale="tiny", seed=7)
FIRST_DAY = 25  # the tiny tier's run-up horizon
NUM_READERS = 4
PUBLISH_DAYS = [26, 27, 28]
#: Queries every reader must answer while each publish is held in flight.
MIN_PROGRESS = 3


def _query_mix(snapshot):
    """A deterministic mix of hits, misses and prefixes for the readers."""
    values = snapshot._values
    addresses = [values[0], values[len(values) // 2], values[-1], values[0] ^ 0xDEAD]
    prefixes = [
        IPv6Prefix.of(IPv6Address(values[0]), 32),
        IPv6Prefix.of(IPv6Address(values[len(values) // 2]), 48),
        IPv6Prefix.of(IPv6Address(values[-1]), 64),
    ]
    return addresses, prefixes


class Readers:
    """A pool of reader threads recording (generation, query, answer) triples."""

    def __init__(self, server: HitlistServer, num_readers: int = NUM_READERS):
        self.server = server
        self.stop = threading.Event()
        self.start_barrier = threading.Barrier(num_readers + 1)
        self.cond = threading.Condition()
        self.progress = [0] * num_readers
        self.records: list[list[tuple]] = [[] for _ in range(num_readers)]
        self.errors: list[BaseException] = []
        self.threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(num_readers)
        ]

    def _run(self, index: int) -> None:
        try:
            self.start_barrier.wait(timeout=60)
            addresses, prefixes = _query_mix(self.server.current)
            step = 0
            while not self.stop.is_set():
                # Capture the published snapshot exactly once; everything in
                # this iteration must come from that one generation.
                snapshot = self.server.current
                address = addresses[(index + step) % len(addresses)]
                point = snapshot.point_query(address)
                prefix = prefixes[(index + step) % len(prefixes)]
                subset = snapshot.prefix_query(prefix)
                self.records[index].append(
                    (
                        snapshot.generation,
                        snapshot.day,
                        address,
                        point,
                        prefix,
                        len(subset),
                        subset.num_responsive(),
                    )
                )
                step += 1
                with self.cond:
                    self.progress[index] += 1
                    self.cond.notify_all()
        except BaseException as error:  # pragma: no cover - failure reporting
            self.errors.append(error)
            with self.cond:
                self.cond.notify_all()

    def start(self) -> None:
        for thread in self.threads:
            thread.start()
        self.start_barrier.wait(timeout=60)

    def finish(self) -> None:
        self.stop.set()
        with self.cond:
            self.cond.notify_all()
        for thread in self.threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in self.threads)
        assert not self.errors, self.errors


class PublishGate:
    """Validate-hook that holds each publish until every reader progressed.

    The hook runs after the next generation is fully built but *before* the
    atomic swap -- exactly the window in which readers must still be served
    from the previous generation.  Requiring every reader to advance by
    ``MIN_PROGRESS`` queries inside that window proves reads never block on
    a publish, with no sleeps involved.
    """

    def __init__(self):
        self.readers: Readers | None = None
        self.observed: list[tuple[int, bool]] = []

    def __call__(self, snapshot) -> None:
        if self.readers is None:  # the bootstrap publish has no readers yet
            return
        readers = self.readers
        with readers.cond:
            baseline = list(readers.progress)
            progressed = readers.cond.wait_for(
                lambda: readers.errors
                or all(
                    now >= before + MIN_PROGRESS
                    for now, before in zip(readers.progress, baseline)
                ),
                timeout=60,
            )
        self.observed.append((snapshot.generation, progressed))


@pytest.fixture(scope="module")
def published_run():
    """One server, publishes under reader load, plus the reader records."""
    gate = PublishGate()
    server = build("server", "baseline", validate_hook=gate, **SCENARIO)
    server.publish_day(FIRST_DAY)
    readers = Readers(server)
    gate.readers = readers
    readers.start()
    for day in PUBLISH_DAYS:
        server.publish_day(day)
    readers.finish()
    return server, readers, gate


class TestConcurrentReads:
    def test_no_reader_errors_and_all_generations_valid(self, published_run):
        server, readers, _ = published_run
        published = set(server.published_generations)
        seen = {record[0] for reader in readers.records for record in reader}
        assert seen <= published
        # Readers started on generation 1 and the publisher went to 4.
        assert published == {1, 2, 3, 4}

    def test_every_answer_consistent_with_one_generation(self, published_run):
        """No torn reads: each recorded answer equals a recomputation against
        the (immutable) snapshot of the generation the reader observed."""
        server, readers, _ = published_run
        day_of = {g: server.snapshot(g).day for g in server.published_generations}
        for reader in readers.records:
            for generation, day, address, point, prefix, count, responsive in reader:
                assert day == day_of[generation]
                snapshot = server.snapshot(generation)
                expected = snapshot.point_query(address)
                assert point == expected
                subset = snapshot.prefix_query(prefix)
                assert (count, responsive) == (len(subset), subset.num_responsive())

    def test_point_answers_are_internally_consistent(self, published_run):
        """Every answer names the generation/day of the snapshot it came from."""
        _, readers, _ = published_run
        for reader in readers.records:
            for generation, day, _, point, *_ in reader:
                assert point.generation == generation
                assert point.day == day

    def test_readers_progress_during_inflight_publish(self, published_run):
        """While each publish was held before its swap, every reader kept
        answering queries -- reads never block on a publish."""
        _, readers, gate = published_run
        assert [g for g, _ in gate.observed] == [2, 3, 4]
        assert all(progressed for _, progressed in gate.observed)
        assert all(len(reader) >= MIN_PROGRESS for reader in readers.records)

    def test_snapshots_match_service_history(self, published_run):
        """Generation g serves exactly the data of service.history[day(g)]."""
        server, _, _ = published_run
        for generation in server.published_generations:
            snapshot = server.snapshot(generation)
            daily = server.service.history[snapshot.day]
            assert snapshot.num_addresses == len(daily.hitlist)
            assert snapshot.num_scan_targets == len(daily.scan_result.targets)
            assert snapshot.num_responsive() == daily.count_responsive()
            for protocol in snapshot.protocols:
                assert snapshot.num_responsive(protocol) == daily.count_responsive(
                    protocol
                )


class TestAsyncPublish:
    def test_background_publishes_in_order(self):
        server = build("server", "baseline", **SCENARIO)
        with server:
            futures = [
                server.publish_day_async(day) for day in (FIRST_DAY, FIRST_DAY + 1)
            ]
            snapshots = [future.result(timeout=120) for future in futures]
        assert [s.generation for s in snapshots] == [1, 2]
        assert [s.day for s in snapshots] == [FIRST_DAY, FIRST_DAY + 1]
        assert server.current is snapshots[-1]

    def test_readers_during_background_publish(self):
        """A reader sampling mid-build sees the old generation, never a torn
        or partial one; after the future resolves it sees the new one."""
        release = threading.Event()
        building = threading.Event()

        def hold(snapshot):
            if snapshot.generation == 2:
                building.set()
                assert release.wait(timeout=60)

        server = build("server", "baseline", validate_hook=hold, **SCENARIO)
        with server:
            first = server.publish_day(FIRST_DAY)
            future = server.publish_day_async(FIRST_DAY + 1)
            assert building.wait(timeout=120)
            # Generation 2 is fully built but unswapped: reads still hit 1.
            assert server.current is first
            assert server.point_query(first._values[0]).generation == 1
            release.set()
            second = future.result(timeout=120)
        assert server.current is second
        assert second.generation == 2


class TestServerEdges:
    def test_query_before_first_publish_raises(self):
        server = build("server", "baseline", **SCENARIO)
        with pytest.raises(NoPublishedSnapshot):
            server.current
        with pytest.raises(NoPublishedSnapshot):
            server.point_query("2001:db8::1")
        assert server.generation == 0

    def test_unknown_generation_raises(self):
        server = build("server", "baseline", **SCENARIO)
        server.publish_day(FIRST_DAY)
        with pytest.raises(ServingError, match="generation 9"):
            server.snapshot(9)

    def test_stats_count_queries(self):
        server = build("server", "baseline", **SCENARIO)
        snapshot = server.publish_day(FIRST_DAY)
        server.point_query(snapshot._values[0])
        server.point_query(snapshot._values[0] ^ 1)
        server.prefix_query(IPv6Prefix.of(IPv6Address(snapshot._values[0]), 48))
        server.download()
        stats = server.stats()
        assert stats["queries"] == {"point": 2, "prefix": 1, "as": 0, "download": 1}
        assert stats["queries_total"] == 4
        assert stats["generation"] == 1
        assert stats["published_days"] == [FIRST_DAY]
