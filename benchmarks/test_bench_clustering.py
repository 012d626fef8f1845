"""Benchmark: the vectorized entropy-clustering pipeline vs the scalar path.

The Section 4 hot path -- group a hitlist by /32, fingerprint every group,
k-means the fingerprints -- must beat the scalar reference (per-prefix dict
grouping + per-group histogram passes + per-centroid Lloyd loops) by >= 5x on
a 100k-address hitlist, while producing the identical clustering: the same
fingerprints bit-for-bit, and k-means labels/SSE that match the reference
engine exactly under the same seed.
"""

import time

import numpy as np

from benchmarks.conftest import run_once, write_bench_json
from repro.addr.generate import synthetic_mixed_batch
from repro.core.clustering import EntropyClustering, kmeans
from repro.exec import ExecutionPolicy

HITLIST_SIZE = 100_000
NUM_PREFIXES = 200
SEED = 23


def _synthetic_hitlist():
    """100k addresses over 200 equal-size /32s, half counter, half random."""
    return synthetic_mixed_batch(
        HITLIST_SIZE, NUM_PREFIXES, seed=SEED, round_robin=True
    )


def test_bench_clustering_speedup(benchmark):
    """Fingerprint + cluster a 100k hitlist: batch engine >= 5x the scalar
    reference, with exactly matching output."""

    def compare():
        batch = _synthetic_hitlist()
        # The scalar reference consumes address objects; materialise them
        # outside the timed region so the comparison is engine vs engine,
        # not list construction.
        addresses = batch.to_addresses()
        reference = EntropyClustering(
            min_addresses=100, seed=SEED, policy=ExecutionPolicy(reference=True)
        )
        start = time.perf_counter()
        reference_fps = reference.fingerprints_by_prefix(addresses, 32)
        reference_result = reference.cluster(reference_fps, k=4)
        reference_elapsed = time.perf_counter() - start
        batched = EntropyClustering(min_addresses=100, seed=SEED)
        # The batch pass is ~ms-scale; best of three so one scheduler hiccup
        # cannot dominate the ratio.
        batch_elapsed = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batch_fps = batched.fingerprints_by_prefix(batch, 32)
            batch_result = batched.cluster(batch_fps, k=4)
            batch_elapsed = min(batch_elapsed, time.perf_counter() - start)
        return (
            reference_elapsed,
            batch_elapsed,
            reference_fps,
            batch_fps,
            reference_result,
            batch_result,
        )

    (
        reference_elapsed,
        batch_elapsed,
        reference_fps,
        batch_fps,
        reference_result,
        batch_result,
    ) = run_once(benchmark, compare)
    speedup = reference_elapsed / batch_elapsed if batch_elapsed else float("inf")
    print(
        f"\nfingerprint+cluster over {HITLIST_SIZE:,} addresses / {NUM_PREFIXES} prefixes: "
        f"reference {reference_elapsed * 1e3:.1f} ms, batch {batch_elapsed * 1e3:.1f} ms "
        f"-> {speedup:.1f}x"
    )
    # Record the measurement first: a regressed run must still leave its
    # BENCH_*.json behind for the perf trajectory.
    write_bench_json(
        "clustering",
        {
            "addresses": HITLIST_SIZE,
            "prefixes": NUM_PREFIXES,
            "reference_seconds": round(reference_elapsed, 4),
            "batch_seconds": round(batch_elapsed, 4),
            "speedup": round(speedup, 2),
            "addresses_per_sec": round(HITLIST_SIZE / batch_elapsed)
            if batch_elapsed
            else None,
        },
    )
    # Identical fingerprints, bit for bit.
    assert len(batch_fps) == len(reference_fps) == NUM_PREFIXES
    assert [f.network for f in batch_fps] == [f.network for f in reference_fps]
    assert all(a.entropies == b.entropies for a, b in zip(batch_fps, reference_fps))
    # Identical clustering outcome.
    assert batch_result.labels == reference_result.labels
    assert batch_result.k == reference_result.k == 4
    assert [c.networks for c in batch_result.clusters] == [
        c.networks for c in reference_result.clusters
    ]
    assert speedup >= 5.0


def test_bench_kmeans_engine_parity(benchmark):
    """Vectorized k-means must match the reference labels/SSE exactly under
    the same seed, across the elbow sweep's candidate ks."""

    def compare():
        batch = _synthetic_hitlist()
        clustering = EntropyClustering(min_addresses=100, seed=SEED)
        data = np.vstack(
            [f.as_array() for f in clustering.fingerprints_by_prefix(batch, 32)]
        )
        outcomes = []
        for k in (2, 3, 4, 6, 8):
            reference = kmeans(data, k, seed=SEED, policy=ExecutionPolicy(reference=True))
            vectorized = kmeans(data, k, seed=SEED)
            outcomes.append((k, reference, vectorized))
        return outcomes

    outcomes = run_once(benchmark, compare)
    for k, reference, vectorized in outcomes:
        assert np.array_equal(reference.labels, vectorized.labels), f"k={k}"
        assert reference.sse == vectorized.sse, f"k={k}"
        assert np.array_equal(reference.centroids, vectorized.centroids), f"k={k}"
