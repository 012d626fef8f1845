"""Seeded parity suite for the vectorized entropy-clustering pipeline.

The columnar fingerprint path (one sorted grouping + one offset ``bincount``)
and the vectorized k-means engine must agree exactly with the scalar
reference implementations on randomized inputs, and each bugfix that rode
along with the vectorization is pinned by a regression test:

* k-means++ no longer doubles up on one point while distinct points remain;
* ``EntropyClustering.cluster`` skips the SSE elbow sweep when ``k`` is given;
* ``ClusteringResult.label_of`` is backed by a dict, not a linear scan.
"""

import random

import numpy as np
import pytest

from repro.addr.batch import AddressBatch
from repro.addr.generate import synthetic_mixed_batch
from repro.core.clustering import (
    ClusteringResult,
    EntropyClustering,
    _kmeans_plus_plus,
    kmeans,
    sse_curve,
)
from repro.core.entropy import FULL_SPAN, IID_SPAN, grouped_nybble_entropies, nybble_entropies
from repro.exec import ExecutionPolicy

REFERENCE = ExecutionPolicy(reference=True)


def _random_hitlist(seed: int, count: int, num_prefixes: int) -> AddressBatch:
    """Addresses concentrated into a few /32s with mixed addressing styles."""
    return synthetic_mixed_batch(count, num_prefixes, seed, counter_modulus=400)


class TestGroupedFingerprintParity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("span", [FULL_SPAN, IID_SPAN])
    def test_batch_matches_reference(self, seed, span):
        batch = _random_hitlist(seed, count=4000, num_prefixes=12)
        reference = EntropyClustering(
            span=span, min_addresses=50, seed=seed, policy=REFERENCE
        )
        batched = EntropyClustering(span=span, min_addresses=50, seed=seed)
        expected = reference.fingerprints_by_prefix(batch.to_addresses(), 32)
        actual = batched.fingerprints_by_prefix(batch, 32)
        assert [f.network for f in actual] == [f.network for f in expected]
        assert [f.sample_size for f in actual] == [f.sample_size for f in expected]
        for a, b in zip(actual, expected):
            assert a.entropies == b.entropies  # bit-identical floats
            assert a.span == b.span

    def test_batch_accepts_sequences_too(self):
        batch = _random_hitlist(9, count=1000, num_prefixes=3)
        clustering = EntropyClustering(min_addresses=50, seed=0)
        from_batch = clustering.fingerprints_by_prefix(batch, 32)
        from_list = clustering.fingerprints_by_prefix(batch.to_addresses(), 32)
        assert from_batch == from_list

    def test_minimum_filter(self):
        batch = _random_hitlist(2, count=500, num_prefixes=4)
        clustering = EntropyClustering(min_addresses=10_000, seed=0)
        assert clustering.fingerprints_by_prefix(batch, 32) == []
        assert clustering.fingerprints_by_prefix(AddressBatch.empty(), 32) == []

    def test_grouped_entropies_match_per_group(self):
        batch = _random_hitlist(5, count=1500, num_prefixes=6)
        order, starts, _networks = batch.prefix_groups(32)
        counts = np.diff(np.append(starts, len(batch)))
        group_ids = np.repeat(np.arange(len(starts)), counts)
        matrix = grouped_nybble_entropies(
            batch.take(order), group_ids, len(starts), 9, 32
        )
        for g in range(len(starts)):
            members = batch.take(order[group_ids == g])
            assert list(matrix[g]) == nybble_entropies(members, 9, 32)


class TestKMeansEngineParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_labels_sse_centroids_identical(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.random((4, 6)) * 3.0
        data = np.vstack([
            center + rng.normal(0, 0.15, size=(25, 6)) for center in centers
        ])
        for k in (1, 2, 4, 7):
            reference = kmeans(data, k, seed=seed, policy=REFERENCE)
            vectorized = kmeans(data, k, seed=seed)
            assert np.array_equal(reference.labels, vectorized.labels)
            assert reference.sse == vectorized.sse
            assert np.array_equal(reference.centroids, vectorized.centroids)
            assert reference.iterations == vectorized.iterations

    def test_sse_curve_engines_agree(self):
        rng = np.random.default_rng(3)
        data = rng.random((50, 5))
        assert sse_curve(data, [1, 2, 4], seed=1, policy=REFERENCE) == sse_curve(
            data, [1, 2, 4], seed=1
        )

    def test_duplicate_points_parity(self):
        # Only two distinct values but k=3: the zero-residual seeding path
        # runs, and both engines must walk it identically.
        data = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 15, axis=0)
        for seed in range(5):
            reference = kmeans(data, 3, seed=seed, policy=REFERENCE)
            vectorized = kmeans(data, 3, seed=seed)
            assert np.array_equal(reference.labels, vectorized.labels)
            assert reference.sse == vectorized.sse


class TestKMeansPlusPlusDistinctSeeds:
    def test_no_duplicate_centroid_while_distinct_points_remain(self):
        # Three duplicates of one point plus one distinct point: once both
        # values are centroids the residual distance mass is zero, and the old
        # code drew the third centroid uniformly -- sometimes duplicating the
        # *unique* point even though an unchosen distinct duplicate existed.
        data = np.array([[0.0] * 4, [0.0] * 4, [0.0] * 4, [1.0] * 4])
        unique_row = data[3]
        for seed in range(25):
            centroids = _kmeans_plus_plus(data, 3, random.Random(seed))
            duplicates_of_unique = int((centroids == unique_row).all(axis=1).sum())
            assert duplicates_of_unique <= 1, f"seed {seed} duplicated the unique point"

    def test_all_identical_points_still_seed(self):
        data = np.zeros((5, 3))
        centroids = _kmeans_plus_plus(data, 4, random.Random(0))
        assert centroids.shape == (4, 3)
        result = kmeans(data, 2, seed=0)
        assert result.sse == 0.0


class TestExplicitKSkipsSweep:
    def test_sweep_not_run_when_k_given(self, monkeypatch):
        batch = _random_hitlist(1, count=1200, num_prefixes=5)
        clustering = EntropyClustering(min_addresses=50, seed=0)
        fingerprints = clustering.fingerprints_by_prefix(batch, 32)

        def boom(*args, **kwargs):
            raise AssertionError("sse_curve must not run when k is explicit")

        monkeypatch.setattr("repro.core.clustering.sse_curve", boom)
        result = clustering.cluster(fingerprints, k=2)
        assert result.k == 2
        assert result.sse_by_k == {}

    def test_candidate_ks_above_sample_ok_with_explicit_k(self):
        batch = _random_hitlist(4, count=1200, num_prefixes=4)
        clustering = EntropyClustering(min_addresses=50, seed=0, candidate_ks=(50, 60))
        fingerprints = clustering.fingerprints_by_prefix(batch, 32)
        result = clustering.cluster(fingerprints, k=2)
        assert result.k == 2

    def test_candidate_ks_above_sample_without_k_raises_helpfully(self):
        batch = _random_hitlist(4, count=1200, num_prefixes=4)
        clustering = EntropyClustering(min_addresses=50, seed=0, candidate_ks=(50, 60))
        fingerprints = clustering.fingerprints_by_prefix(batch, 32)
        with pytest.raises(ValueError, match="pass k explicitly"):
            clustering.cluster(fingerprints)


class TestLabelIndex:
    def test_label_of_uses_lazy_index(self):
        batch = _random_hitlist(7, count=2000, num_prefixes=6)
        clustering = EntropyClustering(min_addresses=50, seed=0)
        result = clustering.cluster_prefixes(batch, 32, k=2)
        assert result._label_index is None  # not built until first lookup
        for fingerprint, label in zip(result.fingerprints, result.labels):
            assert result.label_of(fingerprint.network) == label
        assert result._label_index is not None
        assert result.label_of("9999::/32") is None

    def test_label_index_not_part_of_equality(self):
        a = ClusteringResult(span=(9, 32), k=1, fingerprints=[], labels=[], sse_by_k={})
        b = ClusteringResult(span=(9, 32), k=1, fingerprints=[], labels=[], sse_by_k={})
        a.label_of("x")  # builds the index on one side only
        assert a == b
