"""Regression tests: everything a published snapshot hands out is frozen.

The serving layer's safety argument rests on copy-on-write -- a published
generation is never mutated in place, so handing readers zero-copy views is
safe *only* if those views are read-only.  These tests pin the
``writeable=False`` contract at every boundary: snapshot queries and
downloads, the hitlist's columnar exports, every scan's responsiveness
matrix and the sources' record arrays.  A published day of the service is
frozen the same way: no reader can change what it shows the others.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, readonly_view
from repro.addr.prefix import IPv6Prefix
from repro.events.dynamics import NetworkDynamics
from repro.exec import ExecutionPolicy
from repro.genaddr.pipeline import TOOLS, GenerationPipeline
from repro.netmodel.services import Protocol
from repro.probing import ScanScheduler, ZMapScanner
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
        _assert_frozen(daily.scan_result.responsive)

    def test_source_record_arrays_are_frozen(self, served):
        server, _ = served
        for source in server.service.assembly.sources:
            batch, first_seen = source.record_arrays()
            _assert_frozen(batch.hi)
            _assert_frozen(batch.lo)
            _assert_frozen(first_seen)


def _assert_scan_frozen(scan):
    assert len(scan.targets), "an empty scan checks nothing"
    _assert_frozen(scan.responsive)
    _assert_frozen(scan.responsive_mask())
    _assert_frozen(scan.responsive_mask(Protocol.ICMP))


class TestEveryScanIsFrozen:
    """Every scan is one read-only ``BatchProbeResult``, however it was made:
    its consumers (the service, snapshots, experiments, the generation
    report) share it, so none of them may write its matrix or a view of it."""

    @pytest.fixture(scope="class")
    def targets(self, served):
        server, _ = served
        return server.service.internet, server.service.history[FIRST_DAY].targets_batch

    @pytest.fixture(scope="class")
    def churn(self):
        internet = build("internet", "subday-churn", scale="tiny")
        targets = AddressBatch.from_addresses(internet.all_bound_addresses()[:300])
        return internet, targets

    def test_probe_and_sweep_results_are_frozen(self, targets):
        internet, batch = targets
        _assert_scan_frozen(internet.probe_batch(batch, day=FIRST_DAY))
        _assert_scan_frozen(ZMapScanner(internet, seed=1).sweep_batch(batch, day=FIRST_DAY))

    @pytest.mark.parametrize("engine", ["run_day", "run_day_batch"])
    def test_scan_days_are_frozen(self, targets, engine):
        internet, batch = targets
        scheduler = ScanScheduler(internet, seed=2)
        day_targets = batch.to_addresses() if engine == "run_day" else batch
        scan = getattr(scheduler, engine)(day_targets, FIRST_DAY)
        _assert_scan_frozen(scan)
        _assert_scan_frozen(scan.take(np.arange(0, len(batch), 2)))

    @pytest.mark.parametrize("engine", ["run_day", "run_day_batch"])
    def test_waved_scan_days_are_frozen(self, churn, engine):
        internet, batch = churn
        dynamics = NetworkDynamics.from_config(internet, seed=3)
        assert dynamics is not None and dynamics.waves_per_day > 1
        scheduler = ScanScheduler(internet, seed=3)
        day_targets = batch.to_addresses() if engine == "run_day" else batch
        scan = getattr(scheduler, engine)(day_targets, 0, dynamics=dynamics)
        assert scan.count_responsive(), "the waves filled no row"
        _assert_scan_frozen(scan)

    @pytest.mark.parametrize("reference", [False, True], ids=["batch", "reference"])
    def test_generation_sweeps_are_frozen(self, served, reference):
        server, _ = served
        daily = server.service.history[FIRST_DAY]
        pipeline = GenerationPipeline(
            server.service.internet,
            min_seeds_per_as=20,
            generation_budget_per_as=40,
            seed=4,
            policy=ExecutionPolicy(reference=reference),
        )
        report = pipeline.run(daily.targets_batch, daily.hitlist.addresses, day=FIRST_DAY)
        for tool in TOOLS:
            assert report.generated_count(tool), tool
            _assert_frozen(report.responsive_matrix(tool))


#: One mutation of a published day's public containers each.
DAY_MUTATIONS = {
    "append-aliased-prefix": lambda daily: daily.aliased_prefixes.append(
        daily.aliased_prefixes[0]
    ),
    "pop-outcome": lambda daily: daily.apd_result.outcomes.pop(
        next(iter(daily.apd_result.outcomes))
    ),
    "assign-outcome": lambda daily: daily.apd_result.outcomes.__setitem__(
        *next(iter(daily.apd_result.outcomes.items()))
    ),
    "clear-responsive": lambda daily: daily.responsive_addresses.clear(),
    "clear-hitlist-addresses": lambda daily: daily.hitlist.addresses.clear(),
    "rebind-field": lambda daily: setattr(daily, "aliased_prefixes", ()),
    "set-branch-responses": lambda daily: setattr(
        next(iter(daily.apd_result.outcomes.values())),
        "branch_responses",
        [{Protocol.ICMP}] * 16,
    ),
}


class TestPublishedDayCannotBeChanged:
    """Days up to the next merge share their containers, so a reader that
    could change one day would change them all.  Each case mutates a day of
    its own service, so that no case's mutation can mask another's."""

    @pytest.mark.parametrize("mutation", sorted(DAY_MUTATIONS))
    @pytest.mark.parametrize("reference", [False, True], ids=["batch", "reference"])
    def test_mutation_raises(self, reference, mutation):
        service = build(
            "service", "baseline", scale="tiny", seed=7, policy=ExecutionPolicy(reference=reference)
        )
        daily = service.run_days(range(FIRST_DAY, FIRST_DAY + 4))[-1]
        with pytest.raises((AttributeError, TypeError)):
            DAY_MUTATIONS[mutation](daily)
