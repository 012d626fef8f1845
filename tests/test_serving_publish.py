"""The publish side: snapshots of one published state share its row columns.

The batch service hands every day up to its next merge the same hitlist
view, target batch and verdict LPM, and :meth:`HitlistSnapshot.from_daily`
then shares the previous snapshot's row columns instead of rebuilding them.
Sharing must never change an answer: every published snapshot equals a
full, unshared build of the same day, also after a rejected publish left
the server on an older state.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.addr.batch import AddressBatch, FlatLPM
from repro.exec import ExecutionPolicy
from repro.scenarios import build
from repro.serving import HitlistSnapshot

SCENARIO = dict(scale="tiny", seed=7)
#: The tiny tier's run-up: its sources report records on days 0-24 only.
RUNUP_DAYS = 25
LAST_RECORD_DAY = RUNUP_DAYS - 1
DAYS = range(RUNUP_DAYS + 10)


def record_days(server) -> set[int]:
    """Every day on which some source reports at least one record."""
    days: set[int] = set()
    for source in server.service.assembly.sources:
        _, first_seen = source.record_arrays()
        days.update(np.floor(first_seen).astype(np.int64).tolist())
    return days


def full_build(server, snapshot: HitlistSnapshot) -> HitlistSnapshot:
    """The same day frozen again from scratch, sharing nothing."""
    return HitlistSnapshot.from_daily(
        server.service.history[snapshot.day],
        generation=snapshot.generation,
        internet=server.internet,
    )


def assert_same_subset(got, want) -> None:
    """Two prefix or AS answers select the same rows with the same columns."""
    assert (got.generation, got.day, got.protocols) == (want.generation, want.day, want.protocols)
    np.testing.assert_array_equal(got.addresses.hi, want.addresses.hi)
    np.testing.assert_array_equal(got.addresses.lo, want.addresses.lo)
    for column in ("responsive", "source_masks", "first_seen_days"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column))


def assert_same_snapshot(snapshot: HitlistSnapshot, expected: HitlistSnapshot) -> None:
    """Every column, every row's point query and one miss next to it, and
    the AS query of every origin AS of the rows."""
    got, want = snapshot.download(), expected.download()
    assert (got.generation, got.day) == (want.generation, want.day)
    assert got.source_names == want.source_names
    assert got.protocols == want.protocols
    assert got.aliased_prefixes == want.aliased_prefixes
    for column in ("source_masks", "first_seen_days", "responsive", "unaliased"):
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
    rows = want.addresses.to_ints()
    assert got.addresses.to_ints() == rows
    listed = set(rows)
    for value in rows:
        assert snapshot.point_query(value) == expected.point_query(value)
        neighbour = value + 1
        while neighbour in listed:
            neighbour += 1
        miss = snapshot.point_query(neighbour)
        assert not miss.in_hitlist
        assert miss == expected.point_query(neighbour)
    for asn in np.unique(expected._asn).tolist():
        assert_same_subset(snapshot.as_query(asn), expected.as_query(asn))


@pytest.fixture(scope="module")
def published():
    """The run-up plus ten days, each published on one server."""
    server = build("server", "baseline", **SCENARIO)
    return server, [server.publish_day(day) for day in DAYS]


def test_the_scenario_has_days_without_records(published):
    server, _ = published
    assert record_days(server) == set(range(RUNUP_DAYS))


def test_every_day_equals_a_full_build(published):
    """Checked after the last publish: earlier days' views stay valid
    across every later merge."""
    server, snapshots = published
    for snapshot in snapshots:
        assert_same_snapshot(snapshot, full_build(server, snapshot))


def test_the_reference_engine_publishes_the_same_snapshots(published):
    """The scalar service fills the containers the batch service publishes,
    so each of its snapshots equals the batch server's, row for row."""
    _, snapshots = published
    reference = build("server", "baseline", policy=ExecutionPolicy(reference=True), **SCENARIO)
    published = [reference.publish_day(day) for day in DAYS]
    for snapshot, expected in zip(published, snapshots, strict=True):
        assert_same_snapshot(snapshot, expected)


def test_no_record_day_shares_rows_but_not_responsiveness(published):
    _, snapshots = published
    for day in DAYS[1:]:
        before, after = snapshots[day - 1].download(), snapshots[day].download()
        shared = day > LAST_RECORD_DAY
        for column in ("source_masks", "first_seen_days", "unaliased"):
            assert np.shares_memory(getattr(before, column), getattr(after, column)) == shared
        assert np.shares_memory(before.addresses.hi, after.addresses.hi) == shared
        assert not np.shares_memory(before.responsive, after.responsive)


def test_no_record_day_builds_no_lpm_and_converts_no_rows(monkeypatch):
    calls: Counter[str] = Counter()
    lpm_init, to_ints = FlatLPM.__init__, AddressBatch.to_ints

    def counting_lpm_init(self, *args, **kwargs):
        calls["lpm"] += 1
        lpm_init(self, *args, **kwargs)

    def counting_to_ints(self):
        calls["to_ints"] += 1
        return to_ints(self)

    monkeypatch.setattr(FlatLPM, "__init__", counting_lpm_init)
    monkeypatch.setattr(AddressBatch, "to_ints", counting_to_ints)
    server = build("server", "baseline", **SCENARIO)
    for day in range(LAST_RECORD_DAY):
        server.publish_day(day)
    calls.clear()
    server.publish_day(LAST_RECORD_DAY)
    assert calls["lpm"] >= 1 and calls["to_ints"] >= 1
    for day in (RUNUP_DAYS, RUNUP_DAYS + 1):
        calls.clear()
        server.publish_day(day)
        assert calls == Counter(), day


def test_publish_after_a_rejected_day_equals_a_full_build():
    """The hook rejects the last day that merged records.  The service keeps
    that day's state while the server stays on the day before, so the next
    day -- which merges nothing -- must not share the older rows."""

    def reject(snapshot):
        if snapshot.day == LAST_RECORD_DAY:
            raise RuntimeError("rejected")

    server = build("server", "baseline", validate_hook=reject, **SCENARIO)
    for day in range(LAST_RECORD_DAY):
        server.publish_day(day)
    before = server.current
    with pytest.raises(RuntimeError, match="rejected"):
        server.publish_day(LAST_RECORD_DAY)
    assert server.current is before
    after = server.publish_day(RUNUP_DAYS)
    assert after.generation == before.generation + 1
    assert not np.shares_memory(before.download().source_masks, after.download().source_masks)
    assert_same_snapshot(after, full_build(server, after))


def test_a_record_day_converts_only_its_new_rows(monkeypatch):
    """A snapshot of a day that merged records carries the previous
    snapshot's point index: only the day's new rows become Python ints."""
    converted: list[int] = []
    to_ints = AddressBatch.to_ints

    def recording_to_ints(self):
        values = to_ints(self)
        converted.extend(values)
        return values

    monkeypatch.setattr(AddressBatch, "to_ints", recording_to_ints)
    server = build("server", "baseline", **SCENARIO)
    for day in DAYS:
        converted.clear()
        download = server.publish_day(day).download()
        new = download.first_seen_days == day
        assert sorted(converted) == to_ints(download.addresses.take(new)), day


def test_a_previous_snapshot_of_a_later_day_is_not_reused():
    """The reference engine replays any day: a snapshot of day 30 offered
    to the build of day 20 holds rows day 20 lacks, so nothing is carried."""
    server = build("server", "baseline", policy=ExecutionPolicy(reference=True), **SCENARIO)
    later = server.publish_day(30)
    earlier = server.publish_day(20)
    assert len(earlier) < len(later)
    assert_same_snapshot(earlier, full_build(server, earlier))


def test_a_previous_snapshot_of_another_internet_is_not_reused(published):
    """Rows AS-mapped on another internet are rebuilt: the other world
    announces other prefixes, so a carried AS index would answer wrongly."""
    server, _ = published
    other = build("internet", "baseline", scale="tiny", seed=8)
    service = server.service
    day = LAST_RECORD_DAY
    previous = HitlistSnapshot.from_daily(service.history[day - 1], generation=1, internet=other)
    snapshot = HitlistSnapshot.from_daily(
        service.history[day], generation=2, internet=server.internet, previous=previous
    )
    expected = HitlistSnapshot.from_daily(
        service.history[day], generation=2, internet=server.internet
    )
    assert_same_snapshot(snapshot, expected)
    assert len(np.unique(expected._asn)) > 1
