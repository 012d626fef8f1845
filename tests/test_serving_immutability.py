"""Regression tests: everything a published snapshot hands out is frozen.

The serving layer's safety argument rests on copy-on-write -- a published
generation is never mutated in place, so handing readers zero-copy views is
safe *only* if those views are read-only.  These tests pin the
``writeable=False`` contract at every boundary: snapshot queries and
downloads, the hitlist's columnar exports, the scheduler's responsiveness
matrix and the sources' record arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, readonly_view
from repro.addr.prefix import IPv6Prefix
from repro.scenarios import build

FIRST_DAY = 25  # the tiny tier's run-up horizon


@pytest.fixture(scope="module")
def served():
    server = build("server", "baseline", scale="tiny", seed=7)
    snapshot = server.publish_day(FIRST_DAY)
    return server, snapshot


def _assert_frozen(array: np.ndarray):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 0


class TestReadonlyPrimitives:
    def test_readonly_view_shares_memory_but_blocks_writes(self):
        base = np.arange(4, dtype=np.uint64)
        view = readonly_view(base)
        assert np.shares_memory(base, view)
        _assert_frozen(view)
        base[0] = 7  # the owner may still mutate; the view may not
        assert view[0] == 7

    def test_batch_readonly_freezes_both_columns(self):
        batch = AddressBatch.from_ints([1, 2, 3]).readonly()
        _assert_frozen(batch.hi)
        _assert_frozen(batch.lo)


class TestSnapshotHandsOutFrozenArrays:
    def test_download_arrays_are_frozen(self, served):
        _, snapshot = served
        download = snapshot.download()
        _assert_frozen(download.addresses.hi)
        _assert_frozen(download.addresses.lo)
        _assert_frozen(download.source_masks)
        _assert_frozen(download.first_seen_days)
        _assert_frozen(download.responsive)
        _assert_frozen(download.unaliased)

    def test_prefix_answer_arrays_are_frozen(self, served):
        _, snapshot = served
        anchor = IPv6Address(snapshot._values[0])
        answer = snapshot.prefix_query(IPv6Prefix.of(anchor, 32), include_aliased=True)
        assert len(answer)
        _assert_frozen(answer.addresses.hi)
        _assert_frozen(answer.addresses.lo)
        _assert_frozen(answer.responsive)
        _assert_frozen(answer.source_masks)
        _assert_frozen(answer.first_seen_days)

    def test_mutating_a_download_cannot_corrupt_later_queries(self, served):
        """The attack the contract prevents: a reader scribbling over a
        downloaded column would silently corrupt every other reader."""
        _, snapshot = served
        download = snapshot.download()
        before = snapshot.point_query(snapshot._values[0])
        with pytest.raises(ValueError):
            download.responsive[:] = False
        with pytest.raises(ValueError):
            download.addresses.hi += 1
        assert snapshot.point_query(snapshot._values[0]) == before


class TestPipelineBoundariesAreFrozen:
    def test_hitlist_columnar_exports_are_frozen(self, served):
        server, _ = served
        hitlist = server.service.history[FIRST_DAY].hitlist
        batch, masks, first, _ = hitlist.snapshot_arrays()
        _assert_frozen(batch.hi)
        _assert_frozen(batch.lo)
        _assert_frozen(masks)
        _assert_frozen(first)
        _assert_frozen(hitlist.address_batch.hi)
        _assert_frozen(hitlist.source_masks)
        _assert_frozen(hitlist.first_seen_days)

    def test_daily_targets_and_matrix_are_frozen(self, served):
        server, _ = served
        daily = server.service.history[FIRST_DAY]
        _assert_frozen(daily.targets_batch.hi)
        _assert_frozen(daily.targets_batch.lo)
        _assert_frozen(daily.scan_result.responsive_matrix)

    def test_source_record_arrays_are_frozen(self, served):
        server, _ = served
        for source in server.service.assembly.sources:
            batch, first_seen = source.record_arrays()
            _assert_frozen(batch.hi)
            _assert_frozen(batch.lo)
            _assert_frozen(first_seen)
