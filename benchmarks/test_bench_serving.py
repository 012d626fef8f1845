"""Benchmark: query throughput and latency of the hitlist serving layer.

The serving contract is twofold: point queries must be cheap enough to serve
the community at scale (>= 10k queries/sec against the default-scale
scenario, p99 tracked), and reader throughput must survive a concurrent
publish -- the double-buffered swap means readers keep answering from the
previous generation while the next day builds, so the measured dip should be
a slowdown, never a stall.

Results land in ``BENCH_serving.json`` (append-only history, one record per
run) next to the other speedup benchmarks.
"""

import statistics
import time

from benchmarks.conftest import run_once, write_bench_json
from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.scenarios import build, get_scenario

POINT_QUERIES = 20_000
PREFIX_QUERIES = 2_000
#: Days published back-to-back on the background lane while readers run.
PUBLISH_WINDOW_DAYS = 10
MIN_QUERIES_PER_SEC = 10_000


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_bench_serving_queries(benchmark):
    """>= 10k point queries/sec steady state, readers progress mid-publish."""

    def measure():
        runup = get_scenario("baseline", scale="default").experiment_config().runup_days
        server = build("server", "baseline", scale="default")
        snapshot = server.publish_day(runup)
        values = snapshot._values
        n = len(values)
        # A deterministic hit/miss mix: every fourth query misses.
        addresses = [
            values[(i * 7919) % n] ^ (0xBEEF if i % 4 == 0 else 0)
            for i in range(POINT_QUERIES)
        ]
        prefixes = [
            IPv6Prefix.of(IPv6Address(values[(i * 104729) % n]), (32, 48, 64)[i % 3])
            for i in range(PREFIX_QUERIES)
        ]

        # Steady state: per-query latency distribution and throughput.
        latencies = []
        start = time.perf_counter()
        for address in addresses:
            t0 = time.perf_counter_ns()
            server.point_query(address)
            latencies.append(time.perf_counter_ns() - t0)
        point_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        for prefix in prefixes:
            server.prefix_query(prefix)
        prefix_elapsed = time.perf_counter() - start

        # Concurrent publish: queue a run of days on the background lane and
        # keep querying until every one has been swapped in.
        with server:
            futures = [
                server.publish_day_async(day)
                for day in range(runup + 1, runup + 1 + PUBLISH_WINDOW_DAYS)
            ]
            during = 0
            start = time.perf_counter()
            while not futures[-1].done():
                server.point_query(addresses[during % POINT_QUERIES])
                during += 1
            publish_elapsed = time.perf_counter() - start
            generations = [future.result(timeout=300).generation for future in futures]

        assert generations == list(range(2, 2 + PUBLISH_WINDOW_DAYS))
        assert server.generation == 1 + PUBLISH_WINDOW_DAYS
        return (
            snapshot,
            latencies,
            point_elapsed,
            prefix_elapsed,
            during,
            publish_elapsed,
        )

    snapshot, latencies, point_elapsed, prefix_elapsed, during, publish_elapsed = (
        run_once(benchmark, measure)
    )
    point_qps = POINT_QUERIES / point_elapsed
    prefix_qps = PREFIX_QUERIES / prefix_elapsed
    during_qps = during / publish_elapsed if publish_elapsed else 0.0
    dip = during_qps / point_qps if point_qps else 0.0
    p50_us = _percentile(latencies, 0.50) / 1_000
    p99_us = _percentile(latencies, 0.99) / 1_000
    print(
        f"\nserving over {snapshot.num_addresses:,} addresses: "
        f"{point_qps:,.0f} point q/s (p50 {p50_us:.1f} us, p99 {p99_us:.1f} us), "
        f"{prefix_qps:,.0f} prefix q/s; during {PUBLISH_WINDOW_DAYS} publishes "
        f"({publish_elapsed:.2f} s): {during_qps:,.0f} q/s ({dip:.0%} of steady)"
    )

    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "serving",
        {
            "num_addresses": snapshot.num_addresses,
            "point_queries": POINT_QUERIES,
            "point_queries_per_sec": round(point_qps),
            "p50_latency_us": round(p50_us, 2),
            "p99_latency_us": round(p99_us, 2),
            "prefix_queries_per_sec": round(prefix_qps),
            "publish_window_days": PUBLISH_WINDOW_DAYS,
            "publish_window_seconds": round(publish_elapsed, 3),
            "queries_per_sec_during_publish": round(during_qps),
            "throughput_dip": round(dip, 3),
            "mean_latency_us": round(statistics.fmean(latencies) / 1_000, 2),
        },
    )

    assert point_qps >= MIN_QUERIES_PER_SEC
    assert p99_us > 0
    # Readers made progress during every in-flight publish window.
    assert during > 0 and during_qps > 0
