"""6Gen: target generation from dense seed-address clusters.

6Gen (Murdock et al., IMC 2017) assumes that responsive IPv6 addresses are
clustered in dense regions of the address space.  It grows clusters around
seed addresses: starting from singleton clusters, it repeatedly merges the
cluster pair whose combined *range* (the per-nybble set of observed values)
stays densest, where density = number of seeds / size of the range.  The
tightest ranges of the densest clusters are then enumerated to produce scan
targets.

This implementation follows that structure with a scalable greedy merge and
budget-aware range enumeration, in two seeded-identical engines:

* the fast engine (default) grows clusters over per-position nybble
  *bitmask* matrices -- the pair search evaluates all candidate merges with
  one broadcast OR + ``bitwise_count`` product instead of per-pair Python
  set unions -- and enumerates wildcard expansions by mixed-radix decoding
  (the ``np.meshgrid``-style product of the per-position value arrays).
* the reference engine (``ExecutionPolicy(reference=True)``) is the
  original per-string loop, kept for parity tests and benchmarks.

Both engines make identical merge decisions (exact range sizes, identical
tie-breaking), so they produce identical clusters and identical generated
addresses for the same seeds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.addr.address import HEX_ALPHABET, IPv6Address, LO_MASK, NYBBLES
from repro.addr.batch import AddressBatch, find128, union_sorted
from repro.exec import ExecutionPolicy

#: Bit masks of the 16 nybble values, for unpacking range bitmasks.
_BIT_COLUMNS = np.uint16(1) << np.arange(16, dtype=np.uint16)


@dataclass(slots=True)
class SeedCluster:
    """A cluster of seed addresses and its covering nybble ranges."""

    #: Per-position sorted tuple of observed nybble characters.
    ranges: tuple[tuple[str, ...], ...]
    seeds: list[str] = field(default_factory=list)

    @classmethod
    def from_seed(cls, nybbles: str) -> "SeedCluster":
        return cls(ranges=tuple((c,) for c in nybbles), seeds=[nybbles])

    @property
    def size(self) -> int:
        """Number of addresses covered by the cluster's ranges."""
        size = 1
        for values in self.ranges:
            size *= len(values)
        return size

    @property
    def density(self) -> float:
        """Seeds per covered address (1.0 for a singleton cluster)."""
        return len(self.seeds) / self.size

    @property
    def free_positions(self) -> list[int]:
        """Nybble positions (0-based) where more than one value is observed."""
        return [i for i, values in enumerate(self.ranges) if len(values) > 1]

    def merged_with(self, other: "SeedCluster") -> "SeedCluster":
        """The cluster covering both clusters' seeds."""
        ranges = tuple(
            tuple(sorted(set(a) | set(b))) for a, b in zip(self.ranges, other.ranges)
        )
        return SeedCluster(ranges=ranges, seeds=self.seeds + other.seeds)

    def merged_size(self, other: "SeedCluster") -> int:
        """Size of the merged range without materialising the merge."""
        size = 1
        for a, b in zip(self.ranges, other.ranges):
            size *= len(set(a) | set(b))
        return size

    def enumerate_addresses(self, budget: int) -> list[IPv6Address]:
        """Enumerate addresses in the cluster's range, up to *budget*."""
        if budget <= 0:
            return []
        result: list[IPv6Address] = []
        for combo in itertools.product(*self.ranges):
            result.append(IPv6Address.from_nybbles("".join(combo)))
            if len(result) >= budget:
                break
        return result

    def enumerate_batch(self, budget: int) -> AddressBatch:
        """Batch counterpart of :meth:`enumerate_addresses` (same order).

        ``itertools.product`` yields combinations with the last position
        varying fastest; combination *k* is therefore the mixed-radix
        decomposition of *k* over the per-position range lengths.  Positions
        whose stride is at least the enumerated count never change digit, so
        only positions inside the varying suffix cost a vectorised
        divide/modulo + value gather each.
        """
        if budget <= 0:
            return AddressBatch.empty()
        count = min(budget, self.size)
        indices = np.arange(count, dtype=np.int64)
        hi = np.zeros(count, dtype=np.uint64)
        lo = np.zeros(count, dtype=np.uint64)
        stride = 1
        for position in range(NYBBLES - 1, -1, -1):
            values = self.ranges[position]
            shift = 4 * (NYBBLES - 1 - position)
            if stride >= count or len(values) == 1:
                value = int(values[0], 16) << shift
                hi |= np.uint64(value >> 64)
                lo |= np.uint64(value & LO_MASK)
            else:
                digits = (indices // stride) % len(values)
                contributions = [int(v, 16) << shift for v in values]
                contrib_hi = np.fromiter(
                    (c >> 64 for c in contributions), np.uint64, len(values)
                )
                contrib_lo = np.fromiter(
                    (c & LO_MASK for c in contributions), np.uint64, len(values)
                )
                hi |= contrib_hi[digits]
                lo |= contrib_lo[digits]
            stride *= len(values)
        return AddressBatch(hi, lo)


class _GrownCluster:
    """Internal batch-engine cluster: nybble-value bitmasks + seed rows.

    ``mask[p]`` has bit *v* set when nybble value *v* was observed at
    position *p*; ``rows`` indexes the generator's sorted-unique seed batch
    in the same order the scalar engine concatenates seed strings.
    """

    __slots__ = ("mask", "rows")

    def __init__(self, mask: np.ndarray, rows: np.ndarray):
        self.mask = mask
        self.rows = rows

    @property
    def size(self) -> int:
        """Exact covered-range size (Python int, no overflow)."""
        return math.prod(int(c) for c in np.bitwise_count(self.mask))

    @property
    def density(self) -> float:
        return len(self.rows) / self.size

    def merged_with(self, other: "_GrownCluster") -> "_GrownCluster":
        return _GrownCluster(
            self.mask | other.mask, np.concatenate((self.rows, other.rows))
        )

    def merged_size(self, other: "_GrownCluster") -> int:
        return math.prod(int(c) for c in np.bitwise_count(self.mask | other.mask))


class SixGenGenerator:
    """Generate scan targets by growing and enumerating dense seed clusters."""

    def __init__(
        self,
        seeds: "AddressBatch | Sequence[IPv6Address | int | str]",
        max_cluster_size: int = 2**20,
        max_clusters: int = 256,
        seed: int = 0,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.policy = policy
        self.max_cluster_size = max_cluster_size
        self._rng = random.Random(seed)
        batch = (
            seeds if isinstance(seeds, AddressBatch) else AddressBatch.from_addresses(seeds)
        ).unique()
        if len(batch) == 0:
            raise ValueError("6Gen needs at least one seed address")
        #: Sorted-unique seed addresses (the columnar seed membership filter).
        self._seed_batch = batch
        self._seed_strings: list[str] | None = None
        self._seed_set_cache: set[str] | None = None
        if self.policy.reference:
            self.clusters = self._grow_clusters(self._seed_nybbles(), max_clusters)
        else:
            self.clusters = self._grow_clusters_batch(batch, max_clusters)

    def _seed_nybbles(self) -> list[str]:
        """Sorted seed nybble strings (materialised lazily from the batch)."""
        if self._seed_strings is None:
            self._seed_strings = self._seed_batch.nybble_strings()
        return self._seed_strings

    @property
    def _seed_set(self) -> set[str]:
        if self._seed_set_cache is None:
            self._seed_set_cache = set(self._seed_nybbles())
        return self._seed_set_cache

    # -- clustering ----------------------------------------------------------------

    def _grow_clusters(self, seed_nybbles: list[str], max_clusters: int) -> list[SeedCluster]:
        """Greedy agglomerative clustering under the range-size budget.

        Seeds are bucketed by their /64 network part first (6Gen merges within
        nearby space; merging across unrelated networks would produce useless
        giant ranges), then clusters within a bucket are merged while the
        merged range stays below ``max_cluster_size``.
        """
        buckets: dict[str, list[str]] = {}
        for nybbles in seed_nybbles:
            buckets.setdefault(nybbles[:16], []).append(nybbles)
        clusters: list[SeedCluster] = []
        for _, members in sorted(buckets.items()):
            clusters.extend(self._merge_bucket([SeedCluster.from_seed(m) for m in members]))
        # Keep the densest clusters (ties broken towards more seeds).
        clusters.sort(key=lambda c: (-c.density, -len(c.seeds)))
        return clusters[:max_clusters]

    def _merge_bucket(self, clusters: list[SeedCluster]) -> list[SeedCluster]:
        merged = True
        while merged and len(clusters) > 1:
            merged = False
            best_pair: tuple[int, int] | None = None
            best_size = None
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    size = clusters[i].merged_size(clusters[j])
                    if size > self.max_cluster_size:
                        continue
                    if best_size is None or size < best_size:
                        best_size = size
                        best_pair = (i, j)
            if best_pair is not None:
                i, j = best_pair
                combined = clusters[i].merged_with(clusters[j])
                clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
                clusters.append(combined)
                merged = True
            if len(clusters) > 60:
                # Quadratic pair search would dominate; fall back to merging
                # in sorted order which is close enough for large buckets.
                clusters.sort(key=lambda c: c.seeds[0])
                halved: list[SeedCluster] = []
                for a, b in zip(clusters[0::2], clusters[1::2]):
                    if a.merged_size(b) <= self.max_cluster_size:
                        halved.append(a.merged_with(b))
                    else:
                        halved.extend((a, b))
                if len(clusters) % 2:
                    halved.append(clusters[-1])
                clusters = halved
        return clusters

    # -- batch clustering ---------------------------------------------------------

    def _grow_clusters_batch(
        self, batch: AddressBatch, max_clusters: int
    ) -> list[SeedCluster]:
        """The vectorised grower: identical decisions over bitmask matrices.

        The sorted-unique batch makes bucket boundaries one run scan over the
        upper 64 bits (the /64 network part), and ascending row order within
        a bucket matches the scalar engine's sorted seed strings.  Only the
        ``max_clusters`` surviving clusters are materialised back into
        :class:`SeedCluster` objects (ranges + seed strings).
        """
        matrix = batch.nybbles_matrix()
        masks = (np.uint16(1) << matrix.astype(np.uint16))
        boundary = np.ones(len(batch), dtype=bool)
        boundary[1:] = batch.hi[1:] != batch.hi[:-1]
        starts = np.flatnonzero(boundary).tolist() + [len(batch)]
        grown: list[_GrownCluster] = []
        for start, end in zip(starts, starts[1:]):
            bucket = [
                _GrownCluster(masks[row], np.asarray([row], dtype=np.int64))
                for row in range(start, end)
            ]
            grown.extend(self._merge_bucket_batch(bucket))
        # Exact same ordering as the scalar engine: density ties broken
        # towards more seeds, Python's stable sort everywhere.
        grown.sort(key=lambda c: (-c.density, -len(c.rows)))
        grown = grown[:max_clusters]
        # Materialise only the survivors (and only their seeds) as strings.
        kept_rows = (
            np.concatenate([c.rows for c in grown]) if grown else np.zeros(0, np.int64)
        )
        strings = batch.take(kept_rows).nybble_strings()
        clusters: list[SeedCluster] = []
        offset = 0
        for cluster in grown:
            ranges = tuple(
                tuple(HEX_ALPHABET[v] for v in np.flatnonzero(_BIT_COLUMNS & mask).tolist())
                for mask in cluster.mask.tolist()
            )
            count = len(cluster.rows)
            clusters.append(
                SeedCluster(ranges=ranges, seeds=strings[offset : offset + count])
            )
            offset += count
        return clusters

    def _merge_bucket_batch(self, clusters: list[_GrownCluster]) -> list[_GrownCluster]:
        """Scalar merge loop with the O(n^2) pair scan done as array math."""
        merged = True
        while merged and len(clusters) > 1:
            merged = False
            best_pair = self._best_pair(clusters)
            if best_pair is not None:
                i, j = best_pair
                combined = clusters[i].merged_with(clusters[j])
                clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
                clusters.append(combined)
                merged = True
            if len(clusters) > 60:
                clusters.sort(key=lambda c: int(c.rows[0]))
                halved: list[_GrownCluster] = []
                for a, b in zip(clusters[0::2], clusters[1::2]):
                    if a.merged_size(b) <= self.max_cluster_size:
                        halved.append(a.merged_with(b))
                    else:
                        halved.extend((a, b))
                if len(clusters) % 2:
                    halved.append(clusters[-1])
                clusters = halved
        return clusters

    def _best_pair(self, clusters: list[_GrownCluster]) -> tuple[int, int] | None:
        """First (row-major) admissible pair of strictly smallest merged size.

        All pairwise merged sizes come from one broadcast OR +
        ``bitwise_count`` product per row block.  Sizes are compared in
        float64: any size at or below ``max_cluster_size`` (the only ones
        that can win) is an exact integer there, so the winner and the
        scalar engine's first-strictly-smaller scan agree pair for pair.
        """
        m = len(clusters)
        stack = np.stack([c.mask for c in clusters])
        columns = np.arange(m)[None, :]
        block = max(1, 4_000_000 // (m * NYBBLES + 1))
        best_size = np.inf
        best_flat = -1
        for start in range(0, m, block):
            end = min(m, start + block)
            ors = stack[start:end, None, :] | stack[None, :, :]
            sizes = np.multiply.reduce(
                np.bitwise_count(ors).astype(np.float64), axis=2
            )
            sizes[columns <= np.arange(start, end)[:, None]] = np.inf
            sizes[sizes > self.max_cluster_size] = np.inf
            flat = int(np.argmin(sizes))
            size = float(sizes.flat[flat])
            if size < best_size:
                best_size = size
                best_flat = (start + flat // m) * m + flat % m
        if best_flat < 0 or not np.isfinite(best_size):
            return None
        return divmod(best_flat, m)

    # -- generation -------------------------------------------------------------------

    def generate(self, budget: int, include_seeds: bool = False) -> list[IPv6Address]:
        """Generate up to *budget* target addresses from the densest clusters.

        The budget is split over clusters proportionally to their density
        ranking: denser clusters are enumerated first and more exhaustively.
        """
        if budget <= 0:
            return []
        results: list[IPv6Address] = []
        seen: set[str] = set()
        seed_set = self._seed_set
        # Round-robin over clusters by density until the budget is filled, so
        # a single huge cluster does not consume everything.
        per_round = max(1, budget // max(1, len(self.clusters)))
        for cluster in self.clusters:
            if len(results) >= budget:
                break
            for address in cluster.enumerate_addresses(per_round * 4):
                nybbles = address.nybbles
                if nybbles in seen:
                    continue
                seen.add(nybbles)
                if not include_seeds and nybbles in seed_set:
                    continue
                results.append(address)
                if len(results) >= budget:
                    break
        return results

    def generate_batch(self, budget: int, include_seeds: bool = False) -> AddressBatch:
        """Batch counterpart of :meth:`generate`: same addresses, columnar.

        Clusters are enumerated with :meth:`SeedCluster.enumerate_batch`;
        cross-cluster deduplication is a sorted binary search against the
        previously accepted targets, and seed exclusion one
        :func:`find128` pass against the sorted seed batch.
        """
        if budget <= 0:
            return AddressBatch.empty()
        accepted: list[AddressBatch] = []
        accepted_sorted = AddressBatch.empty()
        total = 0
        per_round = max(1, budget // max(1, len(self.clusters)))
        for cluster in self.clusters:
            if total >= budget:
                break
            enumerated = cluster.enumerate_batch(per_round * 4)
            if len(enumerated) == 0:
                continue
            keep = find128(
                accepted_sorted.hi, accepted_sorted.lo, enumerated.hi, enumerated.lo
            ) < 0
            if not include_seeds:
                keep &= (
                    find128(
                        self._seed_batch.hi,
                        self._seed_batch.lo,
                        enumerated.hi,
                        enumerated.lo,
                    )
                    < 0
                )
            fresh = enumerated.take(keep)
            if len(fresh) > budget - total:
                fresh = fresh.take(np.arange(budget - total, dtype=np.int64))
            if len(fresh) == 0:
                continue
            accepted.append(fresh)
            total += len(fresh)
            accepted_sorted = union_sorted(accepted_sorted, fresh.sort())[0]
        return AddressBatch.concatenate(accepted)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def densest_clusters(self, limit: int = 10) -> list[SeedCluster]:
        """The *limit* densest clusters (diagnostics and ablations)."""
        return self.clusters[:limit]
