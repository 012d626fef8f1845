"""Benchmark: the batch generation pipeline vs the scalar reference loop.

Section 7's per-AS Entropy/IP + 6Gen generation was the last scalar
subsystem: the batch engine runs seed partitioning, both generators, the
hitlist dedup and the five-protocol probe sweep columnar end to end, and
must beat the reference loop by >= 5x on a >= 50k-candidate run while
producing bit-identical candidates and per-AS reports and (on the
deterministic Internet used here) identical responsive sets.
"""

import time

from benchmarks.conftest import run_once, write_bench_json
from repro.exec import ExecutionPolicy
from repro.genaddr import GenerationPipeline
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.netmodel.services import HostRole

#: Deterministic mid-size Internet: parity is exact, so the ratio is honest.
GENADDR_BENCH_CONFIG = InternetConfig(
    seed=11,
    num_ases=130,
    base_hosts_per_allocation=25,
    max_hosts_per_allocation=600,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

PIPELINE_PARAMS = dict(
    min_seeds_per_as=60,
    seed_cap_per_as=150,
    generation_budget_per_as=3_000,
    seed=3,
)

TOOLS = ("entropy_ip", "6gen")


def test_bench_genaddr_batch_speedup(benchmark):
    """>= 5x on a >= 50k-candidate generation run, with exact seeded parity."""

    def compare():
        internet = SimulatedInternet(GENADDR_BENCH_CONFIG)
        seeds = [
            a
            for a in internet.addresses_by_role(
                HostRole.WEB_SERVER,
                HostRole.DNS_SERVER,
                HostRole.MAIL_SERVER,
                HostRole.CDN_EDGE,
            )
            if not internet.is_aliased_truth(a)
        ]
        # Materialise the shared probe-batch index outside the timed region.
        internet.probe_batch([1], day=0)

        start = time.perf_counter()
        reference = GenerationPipeline(
            internet, policy=ExecutionPolicy(reference=True), **PIPELINE_PARAMS
        ).run(seeds, day=0, probe=True)
        reference_elapsed = time.perf_counter() - start

        # Best of three so one scheduler hiccup cannot dominate the ratio.
        batch_elapsed = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batch = GenerationPipeline(internet, **PIPELINE_PARAMS).run(
                seeds, day=0, probe=True
            )
            batch_elapsed = min(batch_elapsed, time.perf_counter() - start)
        return reference_elapsed, batch_elapsed, reference, batch

    reference_elapsed, batch_elapsed, reference, batch = run_once(benchmark, compare)
    speedup = reference_elapsed / batch_elapsed if batch_elapsed else float("inf")
    candidates = sum(batch.generated_count(tool) for tool in TOOLS)
    print(
        f"\ngeneration run of {candidates:,} candidates: "
        f"reference {reference_elapsed:.2f} s, batch {batch_elapsed:.3f} s "
        f"-> {speedup:.1f}x ({candidates / batch_elapsed:,.0f} candidates/s)"
    )

    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "genaddr",
        {
            "candidates": candidates,
            "per_tool": {tool: batch.generated_count(tool) for tool in TOOLS},
            "ases": len({r.asn for r in batch.per_as}),
            "reference_seconds": round(reference_elapsed, 4),
            "batch_seconds": round(batch_elapsed, 4),
            "speedup": round(speedup, 2),
            "candidates_per_sec": round(candidates / batch_elapsed),
        },
    )

    assert candidates >= 50_000
    # Exact seeded parity: candidates, per-AS reports and responsive sets.
    for tool in TOOLS:
        assert set(a.value for a in reference.candidates[tool]) == set(
            batch.candidate_batch(tool).to_ints()
        ), tool
        assert reference.responsive_any(tool) == batch.responsive_any(tool), tool
        assert reference.response_rate(tool) == batch.response_rate(tool), tool
    assert [
        (r.asn, r.tool, r.seeds, [a.value for a in r.generated])
        for r in reference.per_as
    ] == [
        (r.asn, r.tool, r.seeds, r.generated_batch.to_ints()) for r in batch.per_as
    ]
    assert speedup >= 5.0
