"""Daily scan orchestration.

Section 6 describes the paper's daily pipeline: collect source addresses,
preprocess/merge/shuffle, run aliased prefix detection, traceroute targets
with scamper, then run ZMapv6 responsiveness scans on all five protocols.
:class:`ScanScheduler` provides that loop for the simulated Internet; the
full curation pipeline (including APD filtering) lives in
:mod:`repro.core.hitlist`, which composes this scheduler.

A day's scan is one :class:`BatchDailyScanResult` on either engine: the
vectorised :meth:`ScanScheduler.run_day_batch` and the scalar
:meth:`ScanScheduler.run_day`, kept as its parity oracle, fill the same
(target x protocol) matrix, so every consumer reads one container.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch, readonly_view
from repro.netmodel.internet import BatchProbeResult, ResolvedTargets, SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.zmap import ZMapScanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.dynamics import NetworkDynamics, WaveAdmission


def wave_spans(n: int, waves: int) -> list[tuple[int, int]]:
    """Split *n* targets into *waves* contiguous spans (rounded evenly).

    Both engines split identically -- the reference engine slices its
    (ascending) target list, the batch engine slices its (same-order) target
    batch -- so per-wave token-bucket charging sees the same arrivals.
    """
    bounds = [round(i * n / waves) for i in range(waves + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(waves)]


class BatchDailyScanResult:
    """One day's multi-protocol scan as a (target x protocol) boolean matrix.

    Both scan engines publish this container: :meth:`ScanScheduler.run_day_batch`
    fills it from ``probe_batch`` and the scalar :meth:`ScanScheduler.run_day`
    records each reply of its per-probe sweep into it.  Its rows follow the
    caller's target order.  The set-of-address views are materialised lazily
    (and cached) only when asked for -- the publish boundary of the daily
    service.
    """

    def __init__(self, day: int, result: BatchProbeResult):
        self.day = day
        self.result = result
        self._any_set: set[IPv6Address] | None = None
        self._per_protocol: dict[Protocol, set[IPv6Address]] = {}

    @property
    def targets(self) -> int:
        """Number of scan targets."""
        return len(self.result.targets)

    @property
    def targets_batch(self) -> AddressBatch:
        """The scan targets as a columnar batch."""
        return self.result.targets

    @property
    def protocols(self) -> tuple[Protocol, ...]:
        return self.result.protocols

    @property
    def responsive_matrix(self) -> np.ndarray:
        """``matrix[i, j]``: did target *i* answer on ``protocols[j]``?

        A read-only view: one day's published responsiveness is shared by
        every consumer (longitudinal analysis, snapshots, experiments) and
        must never be mutated in place.
        """
        return readonly_view(self.result.responsive)

    def responsive_mask(self, protocol: Protocol | None = None) -> np.ndarray:
        """Boolean responsiveness per target (any protocol, or one)."""
        if protocol is None:
            return self.result.responsive_any
        return self.result.column(protocol)

    def count_responsive(self, protocol: Protocol | None = None) -> int:
        """Responsive-row count straight off the matrix.

        Rows follow the target list, so the count is per row: a target
        listed twice counts twice, while :attr:`responsive_any` and
        :meth:`responsive_on` are address sets.  The daily service's targets
        are unique hitlist rows, so there the two agree.
        """
        return int(self.responsive_mask(protocol).sum())

    @property
    def responsive_any(self) -> set[IPv6Address]:
        """Addresses responsive on at least one protocol (lazy scalar view)."""
        if self._any_set is None:
            self._any_set = set(self.result.responsive_addresses())
        return self._any_set

    def responsive_on(self, protocol: Protocol) -> set[IPv6Address]:
        """Addresses responsive on one protocol (lazy scalar view)."""
        cached = self._per_protocol.get(protocol)
        if cached is None:
            cached = set(self.result.responsive_addresses(protocol))
            self._per_protocol[protocol] = cached
        return cached

    def take(self, indices: np.ndarray) -> "BatchDailyScanResult":
        """This day restricted to the targets at *indices* (matrix slice).

        Lets one combined sweep serve several target groups -- e.g. the
        generation pipeline probes the union of both tools' candidates once
        and splits the result back per tool -- without re-probing or
        materialising scalar address sets.
        """
        sliced = BatchProbeResult(
            day=self.result.day,
            protocols=self.result.protocols,
            targets=self.result.targets.take(indices),
            responsive=self.result.responsive[indices],
        )
        return BatchDailyScanResult(day=self.day, result=sliced)


class ScanScheduler:
    """Run multi-day, multi-protocol scan campaigns."""

    def __init__(
        self,
        internet: SimulatedInternet,
        protocols: Sequence[Protocol] = ALL_PROTOCOLS,
        seed: int = 0,
    ):
        self.internet = internet
        self.protocols = tuple(protocols)
        self._seed = seed

    def run_day(
        self,
        targets: Iterable[IPv6Address],
        day: int,
        *,
        dynamics: "Optional[NetworkDynamics]" = None,
    ) -> BatchDailyScanResult:
        """One daily measurement: a scalar sweep of all protocols over the targets.

        The reference engine of :meth:`run_day_batch`: every probe is one
        packet of :meth:`ZMapScanner.sweep`, and the replies are recorded
        into the same (target x protocol) matrix, with one row per entry of
        *targets*, in order (a repeated target is a repeated row, and
        :meth:`BatchDailyScanResult.count_responsive` counts rows).  With
        active sub-day *dynamics* the day is split into
        timestamped probe waves on the dynamics' event scheduler; without it
        (the degenerate whole-day configuration) one sweep covers the day.
        """
        target_list = list(targets)
        scanner = ZMapScanner(self.internet, seed=self._seed ^ (day * 0x9E3779B1))
        responsive = np.zeros((len(target_list), len(self.protocols)), dtype=bool)

        def record(start: int, stop: int, wave: "Optional[WaveAdmission]" = None) -> None:
            span = target_list[start:stop]
            sweep = scanner.sweep(span, self.protocols, day, wave=wave)
            for j, protocol in enumerate(self.protocols):
                replies = sweep[protocol].replies
                responsive[start:stop, j] = [address in replies for address in span]

        if dynamics is None or not dynamics.active:
            record(0, len(target_list))
        else:
            dynamics.begin_day(day)
            for w, (start, stop) in enumerate(
                wave_spans(len(target_list), dynamics.waves_per_day)
            ):
                when = dynamics.wave_time(day, w)

                def fire(start=start, stop=stop, when=when):
                    record(start, stop, dynamics.begin_wave(day, when, target_list[start:stop]))

                dynamics.scheduler.schedule(when, fire)
            dynamics.scheduler.run_until(day + 1.0)
        result = BatchProbeResult(
            day=day,
            protocols=self.protocols,
            targets=AddressBatch.from_addresses(target_list),
            responsive=responsive,
        )
        return BatchDailyScanResult(day=day, result=result)

    def run_day_batch(
        self,
        targets: "ResolvedTargets | AddressBatch",
        day: int,
        *,
        dynamics: "Optional[NetworkDynamics]" = None,
    ) -> BatchDailyScanResult:
        """One daily measurement as a single vectorised multi-protocol pass.

        Same per-day seeding discipline as :meth:`run_day`, but the whole
        (target x protocol) responsiveness matrix comes from one
        ``probe_batch`` call via :meth:`ZMapScanner.sweep_batch` -- or, with
        active sub-day *dynamics*, from one ``probe_batch`` call per wave,
        assembled into the same matrix.  As there, the matrix has one row per
        row of *targets* and counts are per row.  *targets* may be a
        resolution (:meth:`SimulatedInternet.resolve_targets`): a caller that
        scans one batch every day resolves it once, and the day only draws.
        """
        scanner = ZMapScanner(self.internet, seed=self._seed ^ (day * 0x9E3779B1))
        if dynamics is None or not dynamics.active:
            result = scanner.sweep_batch(targets, self.protocols, day)
            return BatchDailyScanResult(day=day, result=result)
        scan = self.enqueue_day_batch(targets, day, dynamics, scanner=scanner)
        dynamics.scheduler.run_until(day + 1.0)
        return scan

    def enqueue_day_batch(
        self,
        targets: "ResolvedTargets | AddressBatch",
        day: int,
        dynamics: "NetworkDynamics",
        *,
        scanner: Optional[ZMapScanner] = None,
        phase: float = 0.5,
    ) -> BatchDailyScanResult:
        """Schedule a day's probe waves without running them yet.

        The returned result's matrix fills in as the dynamics' scheduler
        fires the waves (``dynamics.scheduler.run_until(day + 1)`` completes
        it).  Two schedulers enqueueing against the *same* dynamics with
        interleaved ``phase`` offsets is the scanner-contention scenario:
        their waves alternate on the shared event queue and compete for the
        same token budgets.  The targets are resolved once (unless they
        already are a resolution); each wave probes its span of the
        resolution.
        """
        if scanner is None:
            scanner = ZMapScanner(self.internet, seed=self._seed ^ (day * 0x9E3779B1))
        resolved = (
            targets
            if isinstance(targets, ResolvedTargets)
            else self.internet.resolve_targets(targets)
        )
        n = len(resolved)
        responsive = np.zeros((n, len(self.protocols)), dtype=bool)
        combined = BatchProbeResult(
            day=day, protocols=self.protocols, targets=resolved.targets, responsive=responsive
        )
        dynamics.begin_day(day)
        for w, (start, stop) in enumerate(wave_spans(n, dynamics.waves_per_day)):
            when = dynamics.wave_time(day, w, phase)

            def fire(start=start, stop=stop, when=when):
                span = resolved.take(np.arange(start, stop))
                wave = dynamics.begin_wave(day, when, span.targets)
                result = scanner.sweep_batch(span, self.protocols, day, wave=wave)
                responsive[start:stop, :] = result.responsive

            dynamics.scheduler.schedule(when, fire)
        return BatchDailyScanResult(day=day, result=combined)

    def run_campaign(
        self,
        targets_for_day: Callable[[int], Iterable[IPv6Address]],
        days: Sequence[int],
    ) -> list[BatchDailyScanResult]:
        """Run a scan every day, with possibly day-dependent target lists."""
        return [self.run_day(targets_for_day(day), day) for day in days]

    def run_fixed_campaign(
        self, targets: Iterable[IPv6Address], days: Sequence[int]
    ) -> list[BatchDailyScanResult]:
        """Run a scan every day over the same fixed target list.

        The paper keeps probing addresses even when they disappear from the
        input sources, to measure longitudinal responsiveness (Section 6.3).
        """
        target_list = list(targets)
        return self.run_campaign(lambda _day: target_list, days)
