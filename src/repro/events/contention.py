"""Two-scanner interference: concurrent scans over shared token budgets.

The paper's measurements assume (implicitly) that theirs is the only scan
hitting the rate limiters.  This scenario drops that assumption: *k*
:class:`~repro.probing.scheduler.ScanScheduler` runs enqueue their probe
waves onto one shared :class:`~repro.events.dynamics.NetworkDynamics`
scheduler with interleaved phases, so their waves alternate in simulated
time and drain the same ICMP token buckets.  A solo baseline run against a
fresh but identically-parameterised dynamics instance quantifies the
distortion: responsiveness lost to a neighbour's probes, not the network.

Everything is deterministic -- the interleaving is fixed by the wave
timestamps and the scheduler's ``(time, seq)`` order, so the contended
result is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.events.dynamics import NetworkDynamics
from repro.netmodel.internet import BatchProbeResult, SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import ScanScheduler

#: Seed stride separating the per-scanner probe streams.
_SCANNER_SEED_STRIDE = 0x51ED


@dataclass(slots=True)
class ContentionReport:
    """Outcome of one contended scan day.

    ``per_scanner[k]`` is scanner *k*'s result under contention; ``solo`` is
    scanner 0 re-run alone against fresh token buckets.  ``contended_count``
    / ``solo_count`` summarise ICMP responsiveness, where bucket contention
    bites.
    """

    day: int
    per_scanner: list[BatchProbeResult]
    solo: BatchProbeResult

    @property
    def contended_count(self) -> int:
        return self.per_scanner[0].count_responsive(Protocol.ICMP)

    @property
    def solo_count(self) -> int:
        return self.solo.count_responsive(Protocol.ICMP)

    @property
    def lost_to_contention(self) -> int:
        """ICMP answers scanner 0 lost because rivals drained the buckets."""
        return self.solo_count - self.contended_count


def run_scanner_contention(
    internet: SimulatedInternet,
    targets,
    day: int,
    *,
    scanners: int = 2,
    waves_per_day: Optional[int] = None,
    bucket_capacity: Optional[float] = None,
    bucket_refill_per_day: Optional[float] = None,
    protocols: Sequence[Protocol] = ALL_PROTOCOLS,
    seed: int = 0,
) -> ContentionReport:
    """Run *scanners* concurrent scan days competing for shared buckets.

    Dynamics knobs default to the internet's own config (`waves_per_day`,
    `icmp_bucket_capacity`, `icmp_bucket_refill_per_day`); pass overrides to
    explore other regimes.  Scanner *k* probes with an independent seed and
    phase ``(k + 0.5) / scanners``, so waves interleave deterministically.
    """
    scanners = max(1, int(scanners))
    cfg = internet.config
    kwargs = dict(
        waves_per_day=cfg.waves_per_day if waves_per_day is None else waves_per_day,
        bucket_capacity=(
            cfg.icmp_bucket_capacity if bucket_capacity is None else bucket_capacity
        ),
        bucket_refill_per_day=(
            cfg.icmp_bucket_refill_per_day
            if bucket_refill_per_day is None
            else bucket_refill_per_day
        ),
        rotation_rate=cfg.prefix_rotation_rate,
        competing_scanners=0,  # contention is explicit here, not synthetic
        seed=seed,
    )
    shared = NetworkDynamics(internet, **kwargs)
    pending: list[BatchProbeResult] = []
    for k in range(scanners):
        scheduler = ScanScheduler(
            internet, protocols, seed=seed ^ (k * _SCANNER_SEED_STRIDE)
        )
        pending.append(
            scheduler.enqueue_day_batch(
                targets, day, shared, phase=(k + 0.5) / scanners
            )
        )
    shared.scheduler.run_until(day + 1.0)
    # Solo baseline: scanner 0 alone, fresh identically-parameterised buckets.
    alone = NetworkDynamics(internet, **kwargs)
    solo = ScanScheduler(internet, protocols, seed=seed).run_day_batch(
        targets, day, dynamics=alone
    )
    return ContentionReport(day=day, per_scanner=pending, solo=solo)
