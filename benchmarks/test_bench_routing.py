"""Benchmark: routed-topology probe_batch overhead vs the flat resolution.

The AS-graph routing layer folds per-vantage path effects (filtering,
congestion, upstream rate limiting, churn) into dense day-view matrices so
``probe_batch`` stays a handful of vectorized masks.  The acceptance bound
of the migration: a fully-loaded routed topology may cost at most 2x the
flat (degenerate) resolution on the same sweep workload.
"""

import time
from dataclasses import replace

from benchmarks.conftest import run_once, write_bench_json
from repro.addr.batch import AddressBatch
from repro.netmodel import InternetConfig, SimulatedInternet

#: Deterministic mid-size Internet, same substrate as the service benchmark.
FLAT_BENCH_CONFIG = InternetConfig(
    seed=11,
    num_ases=150,
    base_hosts_per_allocation=20,
    max_hosts_per_allocation=700,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

#: The same Internet with every routed path effect switched on.
ROUTED_BENCH_CONFIG = replace(
    FLAT_BENCH_CONFIG,
    num_transit_ases=5,
    num_ixps=2,
    num_vantages=3,
    transit_congestion=0.2,
    upstream_rate_limit=0.25,
    filtered_region=2,
    bgp_churn_rate=0.3,
)

DAYS = list(range(5))
MAX_OVERHEAD = 2.0


def _sweep_seconds(internet, targets) -> float:
    """Best-of-three full-protocol sweeps over all study days."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for day in DAYS:
            internet.probe_batch(targets, day=day)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_routed_probe_batch_overhead(benchmark):
    """Routed probe_batch stays within 2x of the flat resolution."""

    def compare():
        flat = SimulatedInternet(FLAT_BENCH_CONFIG)
        routed = SimulatedInternet(ROUTED_BENCH_CONFIG)
        targets = AddressBatch.from_addresses(flat.all_bound_addresses())
        # Warm the batch indexes and route matrices outside the timed region:
        # both are one-off constructions amortised over a whole campaign.
        flat.probe_batch([1], day=0)
        routed.probe_batch([1], day=0)
        for day in DAYS:
            routed.routing.day_view(day)
        flat_elapsed = _sweep_seconds(flat, targets)
        routed_elapsed = _sweep_seconds(routed, targets)
        return len(targets), flat_elapsed, routed_elapsed

    num_targets, flat_elapsed, routed_elapsed = run_once(benchmark, compare)
    overhead = routed_elapsed / flat_elapsed if flat_elapsed else float("inf")
    probes = num_targets * len(DAYS)
    print(
        f"\n{len(DAYS)}-day sweep over {num_targets:,} targets: "
        f"flat {flat_elapsed:.3f} s, routed {routed_elapsed:.3f} s "
        f"-> {overhead:.2f}x overhead ({probes / routed_elapsed:,.0f} probes/s routed)"
    )

    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "routing",
        {
            "days": len(DAYS),
            "targets": num_targets,
            "flat_seconds": round(flat_elapsed, 4),
            "routed_seconds": round(routed_elapsed, 4),
            "overhead_ratio": round(overhead, 3),
            "max_overhead_ratio": MAX_OVERHEAD,
            "routed_probes_per_sec": round(probes / routed_elapsed),
        },
    )

    assert num_targets > 10_000
    assert overhead <= MAX_OVERHEAD
