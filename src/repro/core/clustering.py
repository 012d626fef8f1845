"""Entropy clustering: k-means over entropy fingerprints (Section 4).

The paper clusters per-network fingerprints with k-means, selects k with the
elbow method on the sum of squared errors (Eq. 6), and summarises each
cluster by its popularity and per-nybble median entropy (Figure 2).

k-means is implemented here directly (numpy only) with k-means++ seeding and
multiple restarts, so the library has no dependency on an external ML stack.
Two Lloyd engines are available, selected by ``policy.reference``:

* the fast engine (default) — pairwise distances in one broadcast
  ``(x - c)^2`` reduction, centroid updates via ``np.add.at``/``bincount``;
  the hot path.
* the reference engine — the original per-centroid loop, kept for seeded
  parity tests and ablations.

Both engines share the k-means++ seeding (identical rng draw sequence) and a
common finalisation step, so under the same seed they converge to identical
labels, SSE and centroids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.addr.batch import AddressBatch
from repro.addr.prefix import IPv6Prefix, group_by_prefix
from repro.core.entropy import (
    FULL_SPAN,
    MIN_ADDRESSES,
    EntropyFingerprint,
    entropy_fingerprint,
    grouped_nybble_entropies,
    median_profile,
)
from repro.exec import ExecutionPolicy

@dataclass(slots=True)
class KMeansResult:
    """Outcome of one k-means run."""

    k: int
    centroids: np.ndarray
    labels: np.ndarray
    sse: float
    iterations: int

    def cluster_sizes(self) -> list[int]:
        """Number of points per cluster, indexed by cluster id."""
        return [int((self.labels == i).sum()) for i in range(self.k)]


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    """k-means++ centroid seeding (shared by both Lloyd engines).

    When the residual distance mass is zero (every point coincides with an
    already-chosen centroid — possible when the data contains duplicates),
    the next centroid is drawn from the *remaining distinct points* instead
    of uniformly from all points, so seeding never doubles up on one value
    while an unchosen point is still available.
    """
    n = data.shape[0]
    chosen = [rng.randrange(n)]
    distances = np.sum((data - data[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(distances.sum())
        if total == 0:
            index = _distinct_seed_fallback(data, chosen, rng)
        else:
            threshold = rng.random() * total
            cumulative = np.cumsum(distances)
            index = min(int(np.searchsorted(cumulative, threshold)), n - 1)
        chosen.append(index)
        if len(chosen) < k:  # the last centroid needs no residual update
            distances = np.minimum(
                distances, np.sum((data - data[index]) ** 2, axis=1)
            )
    return np.vstack([data[i] for i in chosen])


def _distinct_seed_fallback(
    data: np.ndarray, chosen: list[int], rng: random.Random
) -> int:
    """Seed index choice when all residual k-means++ distances are zero.

    Prefers points that differ in value from every chosen centroid, then
    unchosen indices (distinct duplicates), then any index.
    """
    chosen_rows = data[np.asarray(chosen)]
    coincident = (data[:, None, :] == chosen_rows[None, :, :]).all(axis=2).any(axis=1)
    candidates = np.flatnonzero(~coincident)
    if candidates.size == 0:
        candidates = np.setdiff1d(np.arange(data.shape[0]), np.asarray(chosen))
    if candidates.size == 0:
        candidates = np.arange(data.shape[0])
    return int(candidates[rng.randrange(candidates.size)])


def _finalize(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray, k: int
) -> tuple[np.ndarray, float]:
    """Final (centroids, SSE) recomputed from the converged labels.

    Both engines funnel through this so that identical label assignments
    yield bit-identical results regardless of how the engine accumulated
    centroids during iteration.  Empty clusters keep the engine's last
    centroid value (they contribute nothing to the SSE).
    """
    final = np.array(centroids, dtype=centroids.dtype, copy=True)
    for i in range(k):
        members = data[labels == i]
        if len(members):
            final[i] = members.mean(axis=0)
    sse = float(np.sum((data - final[labels]) ** 2))
    return final, sse


def _lloyd_reference(
    data: np.ndarray, centroids: np.ndarray, k: int, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The original per-centroid Lloyd loop (reference engine)."""
    labels = np.zeros(data.shape[0], dtype=int)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = np.stack([np.sum((data - c) ** 2, axis=1) for c in centroids])
        new_labels = np.argmin(distances, axis=0)
        if iterations > 1 and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for i in range(k):
            members = data[labels == i]
            if len(members):
                centroids[i] = members.mean(axis=0)
    return labels, centroids, iterations


def _lloyd_vectorized(
    data: np.ndarray,
    centroids: np.ndarray,
    k: int,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fully vectorised Lloyd loop: no per-centroid Python iteration.

    Distances come from one broadcast ``(x - c)^2`` reduction — elementwise
    and reduction-order identical to the reference engine's per-centroid
    expression, so near-tie argmin decisions cannot diverge the way the
    ``|x|^2 - 2 x.c + |c|^2`` matmul expansion (catastrophic cancellation)
    could.  Centroid updates are one ``np.add.at`` scatter plus a
    ``bincount`` over all rows.  Empty clusters keep their previous
    centroid, like the reference loop.
    """
    n, dims = data.shape
    labels = np.zeros(n, dtype=int)
    centroids = centroids.astype(np.float64, copy=True)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(distances, axis=1)
        if iterations > 1 and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        sums = np.zeros((k, dims), dtype=np.float64)
        np.add.at(sums, labels, data)
        counts = np.bincount(labels, minlength=k)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return labels, centroids, iterations


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    max_iterations: int = 200,
    restarts: int = 5,
    *,
    policy: ExecutionPolicy = ExecutionPolicy(),
) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding and several restarts.

    Returns the restart with the lowest sum of squared errors.  ``policy``
    selects the Lloyd implementation; both engines consume the identical
    seeded rng stream and agree on the result.
    """
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty 2-D array")
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k={k} out of range for {data.shape[0]} points")
    lloyd = _lloyd_reference if policy.reference else _lloyd_vectorized
    rng = random.Random(seed)
    best: KMeansResult | None = None
    for _ in range(restarts):
        centroids = _kmeans_plus_plus(data, k, rng)
        labels, centroids, iterations = lloyd(data, centroids, k, max_iterations)
        centroids, sse = _finalize(data, labels, centroids, k)
        result = KMeansResult(
            k=k, centroids=centroids, labels=labels.copy(), sse=sse, iterations=iterations
        )
        if best is None or result.sse < best.sse:
            best = result
    assert best is not None
    return best


def sse_curve(
    data: np.ndarray,
    k_values: Sequence[int],
    seed: int = 0,
    *,
    policy: ExecutionPolicy = ExecutionPolicy(),
) -> dict[int, float]:
    """Sum of squared errors for each candidate k (Eq. 6)."""
    return {
        k: kmeans(data, k, seed=seed, policy=policy).sse
        for k in k_values
        if k <= data.shape[0]
    }


def elbow_k(sse_by_k: Mapping[int, float]) -> int:
    """Pick k at the "elbow" of the SSE curve.

    The elbow is found with the maximum-distance-to-chord heuristic: the k
    whose (k, SSE) point lies farthest from the straight line connecting the
    first and last points of the curve.  For monotone convex curves this picks
    the visually obvious elbow the paper selects by hand.
    """
    if not sse_by_k:
        raise ValueError("empty SSE curve")
    ks = sorted(sse_by_k)
    if len(ks) <= 2:
        return ks[0]
    k_first, k_last = ks[0], ks[-1]
    sse_first, sse_last = sse_by_k[k_first], sse_by_k[k_last]
    span = sse_first - sse_last or 1.0
    best_k, best_distance = ks[0], -1.0
    for k in ks:
        # Normalise both axes to [0, 1] before measuring the distance.
        x = (k - k_first) / (k_last - k_first)
        y = (sse_by_k[k] - sse_last) / span
        # Distance from the point to the chord y = 1 - x.
        distance = abs(x + y - 1.0) / np.sqrt(2.0)
        # Strictly-better comparison with a tolerance so that flat curves
        # (no real elbow) resolve to the smallest k instead of numeric noise.
        if distance > best_distance + 1e-9:
            best_k, best_distance = k, distance
    return best_k


@dataclass(slots=True)
class ClusterSummary:
    """One cluster of networks: popularity and median entropy profile."""

    cluster_id: int
    networks: list[str]
    popularity: float
    median_entropies: list[float]

    @property
    def size(self) -> int:
        return len(self.networks)


@dataclass(slots=True)
class ClusteringResult:
    """Full entropy-clustering outcome for one fingerprint span."""

    span: tuple[int, int]
    k: int
    fingerprints: list[EntropyFingerprint]
    labels: list[int]
    sse_by_k: dict[int, float]
    clusters: list[ClusterSummary] = field(default_factory=list)
    _label_index: dict[str, int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_networks(self) -> int:
        return len(self.fingerprints)

    def label_of(self, network: str) -> int | None:
        """Cluster id (1-based, ordered by popularity) of one network.

        Backed by a lazily built network -> label dict, so repeated lookups
        (e.g. colouring every BGP prefix of a zesplot) are O(1) instead of a
        linear scan over all fingerprints.
        """
        if self._label_index is None:
            self._label_index = {
                fingerprint.network: label
                for fingerprint, label in zip(self.fingerprints, self.labels)
            }
        return self._label_index.get(network)


class EntropyClustering:
    """Cluster networks of a hitlist by their entropy fingerprints.

    ``policy`` selects the implementation: the fast engine (default) groups
    and fingerprints a columnar :class:`AddressBatch` in one pass and runs
    the vectorised k-means; ``policy.reference`` keeps the original scalar
    ``group_by_prefix`` + per-network fingerprint loop and the reference
    k-means, for parity tests and ablations.
    """

    def __init__(
        self,
        span: tuple[int, int] = FULL_SPAN,
        min_addresses: int = MIN_ADDRESSES,
        candidate_ks: Sequence[int] = tuple(range(1, 21)),
        seed: int = 0,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.span = span
        self.min_addresses = min_addresses
        self.candidate_ks = tuple(candidate_ks)
        self.seed = seed
        self.policy = policy

    # -- fingerprint extraction ------------------------------------------------

    def fingerprints_by_prefix(
        self, addresses: "AddressBatch | Sequence", prefix_length: int = 32
    ) -> list[EntropyFingerprint]:
        """Group addresses into prefixes of *prefix_length* and fingerprint
        every group with at least ``min_addresses`` members.

        Accepts an :class:`AddressBatch` directly (the hot path: one sorted
        grouping plus a single offset ``bincount`` over all groups) or any
        sequence of address-like values.
        """
        is_batch = isinstance(addresses, AddressBatch)
        if self.policy.reference:
            sequence = addresses.to_addresses() if is_batch else addresses
            return self._fingerprints_by_prefix_reference(sequence, prefix_length)
        batch = addresses if is_batch else AddressBatch.from_addresses(addresses)
        return self._fingerprints_by_prefix_batch(batch, prefix_length)

    def _fingerprints_by_prefix_reference(
        self, addresses: Sequence, prefix_length: int
    ) -> list[EntropyFingerprint]:
        """Reference implementation: scalar grouping, one histogram pass per
        network."""
        groups = group_by_prefix(addresses, prefix_length)
        fingerprints = []
        for prefix, members in sorted(groups.items()):
            if len(members) < self.min_addresses:
                continue
            fingerprints.append(
                entropy_fingerprint(str(prefix), members, span=self.span, enforce_minimum=False)
            )
        return fingerprints

    def _fingerprints_by_prefix_batch(
        self, batch: AddressBatch, prefix_length: int
    ) -> list[EntropyFingerprint]:
        """Vectorised implementation over the columnar batch."""
        if len(batch) == 0:
            return []
        order, starts, networks = batch.prefix_groups(prefix_length)
        counts = np.diff(np.append(starts, len(batch)))
        keep = counts >= self.min_addresses
        if not keep.any():
            return []
        # Restrict the entropy computation to members of qualifying groups.
        group_of_row = np.repeat(np.arange(len(starts)), counts)
        kept_ids = np.cumsum(keep) - 1  # old group id -> dense kept id
        row_keep = keep[group_of_row]
        members = batch.take(order[row_keep])
        member_groups = kept_ids[group_of_row[row_keep]]
        num_kept = int(keep.sum())
        first, last = self.span
        entropies = grouped_nybble_entropies(
            members, member_groups, num_kept, first, last
        )
        kept_networks = networks.take(np.flatnonzero(keep))
        kept_counts = counts[keep]
        fingerprints = []
        for g in range(num_kept):
            network = IPv6Prefix(
                (int(kept_networks.hi[g]) << 64) | int(kept_networks.lo[g]),
                prefix_length,
            )
            fingerprints.append(
                EntropyFingerprint(
                    network=str(network),
                    first_nybble=first,
                    last_nybble=last,
                    entropies=tuple(float(h) for h in entropies[g]),
                    sample_size=int(kept_counts[g]),
                )
            )
        return fingerprints

    def fingerprints_by_group(
        self, groups: Mapping[str, Sequence]
    ) -> list[EntropyFingerprint]:
        """Fingerprint arbitrary, caller-defined groups (e.g. per AS)."""
        fingerprints = []
        for name, members in sorted(groups.items()):
            if len(members) < self.min_addresses:
                continue
            fingerprints.append(
                entropy_fingerprint(name, list(members), span=self.span, enforce_minimum=False)
            )
        return fingerprints

    # -- clustering --------------------------------------------------------------

    def cluster(
        self, fingerprints: Sequence[EntropyFingerprint], k: int | None = None
    ) -> ClusteringResult:
        """Cluster fingerprints; choose k by the elbow method unless given.

        When the caller fixes ``k`` the SSE elbow sweep over ``candidate_ks``
        is skipped entirely (the result's ``sse_by_k`` is then empty): one
        k-means run instead of one per candidate.
        """
        if not fingerprints:
            raise ValueError("no fingerprints to cluster")
        data = np.vstack([f.as_array() for f in fingerprints])
        if k is not None:
            sse_by_k: dict[int, float] = {}
            chosen_k = min(k, len(fingerprints))
        else:
            usable_ks = [x for x in self.candidate_ks if x <= len(fingerprints)]
            if not usable_ks:
                raise ValueError(
                    f"no candidate k <= {len(fingerprints)} fingerprints "
                    f"(candidate_ks={self.candidate_ks}); pass k explicitly"
                )
            sse_by_k = sse_curve(data, usable_ks, seed=self.seed, policy=self.policy)
            chosen_k = elbow_k(sse_by_k)
        result = kmeans(data, chosen_k, seed=self.seed, policy=self.policy)
        return self._summarise(fingerprints, result, sse_by_k)

    def cluster_prefixes(
        self,
        addresses: "AddressBatch | Sequence",
        prefix_length: int = 32,
        k: int | None = None,
    ) -> ClusteringResult:
        """Convenience: fingerprint /``prefix_length`` groups and cluster them."""
        return self.cluster(self.fingerprints_by_prefix(addresses, prefix_length), k=k)

    # -- summaries ---------------------------------------------------------------

    def _summarise(
        self,
        fingerprints: Sequence[EntropyFingerprint],
        result: KMeansResult,
        sse_by_k: dict[int, float],
    ) -> ClusteringResult:
        # Order clusters by popularity (most popular first), relabel 1-based.
        raw_sizes = [(i, int((result.labels == i).sum())) for i in range(result.k)]
        ordering = [i for i, _ in sorted(raw_sizes, key=lambda kv: kv[1], reverse=True)]
        relabel = {old: new + 1 for new, old in enumerate(ordering)}
        total = len(fingerprints)
        clusters: list[ClusterSummary] = []
        for old_id in ordering:
            members = [f for f, lbl in zip(fingerprints, result.labels) if lbl == old_id]
            clusters.append(
                ClusterSummary(
                    cluster_id=relabel[old_id],
                    networks=[f.network for f in members],
                    popularity=len(members) / total,
                    median_entropies=median_profile(members),
                )
            )
        labels = [relabel[int(lbl)] for lbl in result.labels]
        return ClusteringResult(
            span=self.span,
            k=result.k,
            fingerprints=list(fingerprints),
            labels=labels,
            sse_by_k=dict(sse_by_k),
            clusters=clusters,
        )
