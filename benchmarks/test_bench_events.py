"""Benchmark: discrete-event scheduler throughput and wave-split overhead.

Two acceptance bounds for the sub-day dynamics layer.  First, the raw
:class:`~repro.events.scheduler.EventScheduler` must sustain a high no-op
event rate -- it sits under every wave, rotation and contention scenario.
Second, the *degenerate* cost of wave splitting: running a day as four probe
waves with no token buckets and no rotation must produce the bit-identical
responsiveness matrix at no more than 1.2x the single-sweep wall time, so
turning the event layer on without any dynamics knob is near-free.
"""

import time

import numpy as np

from benchmarks.conftest import run_once, write_bench_json
from repro.addr.batch import AddressBatch
from repro.events import EventScheduler, NetworkDynamics
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.probing.scheduler import ScanScheduler

EVENT_COUNT = 200_000
MAX_DEGENERATE_OVERHEAD = 1.2

#: Deterministic mid-size Internet, same substrate as the routing benchmark.
EVENTS_BENCH_CONFIG = InternetConfig(
    seed=11,
    num_ases=150,
    base_hosts_per_allocation=20,
    max_hosts_per_allocation=700,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

DAYS = list(range(3))


def _drain_seconds() -> float:
    """Best-of-three: schedule and drain EVENT_COUNT no-op events."""

    def noop() -> None:
        pass

    best = float("inf")
    for _ in range(3):
        scheduler = EventScheduler()
        start = time.perf_counter()
        for i in range(EVENT_COUNT):
            scheduler.schedule(i / EVENT_COUNT, noop)
        scheduler.run_all()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_seconds(internet, targets, dynamics_of) -> float:
    """Best-of-three multi-day sweeps, fresh dynamics per round."""
    scheduler = ScanScheduler(internet, seed=5)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for day in DAYS:
            scheduler.run_day_batch(targets, day, dynamics=dynamics_of())
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_event_scheduler_and_degenerate_waves(benchmark):
    """Scheduler drains fast; empty-knob waves stay within 1.2x of one sweep."""

    def measure():
        drain = _drain_seconds()
        internet = SimulatedInternet(EVENTS_BENCH_CONFIG)
        base = AddressBatch.from_addresses(internet.all_bound_addresses())
        # Tile to a sweep-scale workload so the linear probe work -- not the
        # per-call fixed costs -- decides the overhead ratio.
        n = 1 << 17
        targets = AddressBatch(
            np.resize(np.asarray(base.hi), n), np.resize(np.asarray(base.lo), n)
        )
        internet.probe_batch([1], day=0)  # warm the lazy batch index
        plain = _sweep_seconds(internet, targets, lambda: None)
        waved = _sweep_seconds(
            internet,
            targets,
            lambda: NetworkDynamics(internet, waves_per_day=4, seed=5),
        )
        # The degenerate guarantee is correctness first: four empty-knob
        # waves must assemble the exact single-sweep matrix.
        scheduler = ScanScheduler(internet, seed=5)
        one = scheduler.run_day_batch(targets, 0)
        four = scheduler.run_day_batch(
            targets, 0, dynamics=NetworkDynamics(internet, waves_per_day=4, seed=5)
        )
        assert (one.responsive == four.responsive).all()
        return len(targets), drain, plain, waved

    num_targets, drain, plain, waved = run_once(benchmark, measure)
    events_per_sec = EVENT_COUNT / drain
    overhead = waved / plain if plain else float("inf")
    probes = num_targets * len(DAYS)
    print(
        f"\n{EVENT_COUNT:,} events drained in {drain:.3f} s "
        f"({events_per_sec:,.0f} events/s); {len(DAYS)}-day sweep over "
        f"{num_targets:,} targets: plain {plain:.3f} s, 4-wave {waved:.3f} s "
        f"-> {overhead:.2f}x overhead"
    )

    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "events",
        {
            "event_count": EVENT_COUNT,
            "drain_seconds": round(drain, 4),
            "events_per_sec": round(events_per_sec),
            "days": len(DAYS),
            "targets": num_targets,
            "plain_seconds": round(plain, 4),
            "waved_seconds": round(waved, 4),
            "degenerate_overhead_ratio": round(overhead, 3),
            "max_degenerate_overhead_ratio": MAX_DEGENERATE_OVERHEAD,
            "waved_probes_per_sec": round(probes / waved),
        },
    )

    assert num_targets > 10_000
    assert events_per_sec > 100_000
    assert overhead <= MAX_DEGENERATE_OVERHEAD
