"""Daily scan orchestration.

Section 6 describes the paper's daily pipeline: collect source addresses,
preprocess/merge/shuffle, run aliased prefix detection, traceroute targets
with scamper, then run ZMapv6 responsiveness scans on all five protocols.
:class:`ScanScheduler` provides that loop for the simulated Internet; the
full curation pipeline (including APD filtering) lives in
:mod:`repro.core.hitlist`, which composes this scheduler.

A day's scan is one :class:`~repro.netmodel.internet.BatchProbeResult` on
either engine: the vectorised :meth:`ScanScheduler.run_day_batch` and the
scalar :meth:`ScanScheduler.run_day`, kept as its parity oracle, fill the
same (target x protocol) matrix, so every consumer reads one container.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
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


class ScanScheduler:
    """Run daily multi-protocol scans."""

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
    ) -> BatchProbeResult:
        """One daily measurement: a scalar sweep of all protocols over the targets.

        The reference engine of :meth:`run_day_batch`: every probe is one
        packet of :meth:`ZMapScanner.sweep`, and the replies are recorded
        into the same (target x protocol) matrix, with one row per entry of
        *targets*, in order (a repeated target is a repeated row, and
        :meth:`BatchProbeResult.count_responsive` counts rows).  With
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
        return BatchProbeResult(
            day, self.protocols, AddressBatch.from_addresses(target_list), responsive
        )

    def run_day_batch(
        self,
        targets: "ResolvedTargets | AddressBatch",
        day: int,
        *,
        dynamics: "Optional[NetworkDynamics]" = None,
    ) -> BatchProbeResult:
        """One daily measurement as a single vectorised multi-protocol pass.

        Same per-day seeding discipline as :meth:`run_day`, but the whole
        (target x protocol) responsiveness matrix comes from one
        ``probe_batch`` call via :meth:`ZMapScanner.sweep_batch` -- or, with
        active sub-day *dynamics*, from one ``probe_batch`` call per wave,
        assembled into the same matrix.  As there, the matrix has one row per
        row of *targets* and counts are per row.  *targets* may be a
        resolution (:meth:`SimulatedInternet.resolve_targets`): a caller that
        scans one batch every day resolves it once, and the day only draws.
        With dynamics, each wave probes its span of that resolution.
        """
        scanner = ZMapScanner(self.internet, seed=self._seed ^ (day * 0x9E3779B1))
        if dynamics is None or not dynamics.active:
            return scanner.sweep_batch(targets, self.protocols, day)
        resolved = (
            targets
            if isinstance(targets, ResolvedTargets)
            else self.internet.resolve_targets(targets)
        )
        n = len(resolved)
        # The scan's matrix is a read-only view of this array: the waves
        # write here.
        responsive = np.zeros((n, len(self.protocols)), dtype=bool)
        dynamics.begin_day(day)
        for w, (start, stop) in enumerate(wave_spans(n, dynamics.waves_per_day)):
            when = dynamics.wave_time(day, w)

            def fire(start=start, stop=stop, when=when):
                span = resolved.take(np.arange(start, stop))
                wave = dynamics.begin_wave(day, when, span.targets)
                result = scanner.sweep_batch(span, self.protocols, day, wave=wave)
                responsive[start:stop, :] = result.responsive

            dynamics.scheduler.schedule(when, fire)
        dynamics.scheduler.run_until(day + 1.0)
        return BatchProbeResult(day, self.protocols, resolved.targets, responsive)
