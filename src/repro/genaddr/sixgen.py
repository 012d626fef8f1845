"""6Gen: target generation from dense seed-address clusters.

6Gen (Murdock et al., IMC 2017) assumes that responsive IPv6 addresses are
clustered in dense regions of the address space.  It grows clusters around
seed addresses: starting from singleton clusters, it repeatedly merges the
cluster pair whose combined *range* (the per-nybble set of observed values)
stays densest, where density = number of seeds / size of the range.  The
tightest ranges of the densest clusters are then enumerated to produce scan
targets.

A cluster is a :class:`SeedCluster`: a read-only row of 32 per-position
nybble-value bitmasks and the rows of its seeds in the generator's
sorted-unique seed batch.  Seeds are bucketed by their /64 (a run of equal
``hi`` in that batch), one merge loop grows each bucket's clusters under the
range-size cap, and the densest clusters are kept.  The two engines share
that loop and differ only in its pair search:

* the fast engine (default) sizes every candidate merge of a bucket with one
  broadcast OR + ``bitwise_count`` product (:func:`_best_pair`);
* the reference engine (``ExecutionPolicy(reference=True)``) scans the pairs
  in row-major order with :meth:`SeedCluster.merged_size`.

Both take the first pair of strictly smallest merged size, so they grow
identical clusters.  :meth:`SixGenGenerator.generate` enumerates the masks'
values with ``itertools.product`` and :meth:`~SixGenGenerator.generate_batch`
by mixed-radix decoding; both emit the same addresses in the same order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.addr.address import IPv6Address, LO_MASK, NYBBLES
from repro.addr.batch import AddressBatch, find128, readonly_view, union_sorted
from repro.exec import ExecutionPolicy

#: Largest range (addresses covered) a merge may produce.
MAX_CLUSTER_SIZE = 2**20

#: Clusters kept after growth, densest first.
MAX_CLUSTERS = 256

#: Above this many clusters, a bucket's round also pairs neighbours.
_PAIRWISE_LIMIT = 60

#: Bit shift of each nybble position (0 = most significant).
_SHIFTS = tuple(4 * (NYBBLES - 1 - position) for position in range(NYBBLES))


@lru_cache(maxsize=1 << 16)
def _mask_values(mask: int) -> tuple[int, ...]:
    """The ascending nybble values whose bits a bitmask sets (one cache entry
    per 16-bit mask)."""
    return tuple(value for value in range(16) if mask >> value & 1)


class SeedCluster:
    """A cluster of seed addresses and its covering nybble range.

    ``mask[p]`` has bit *v* set when a seed has value *v* at nybble position
    *p* (0-based, most significant first); ``rows`` are the seeds' rows in
    the generator's sorted-unique seed batch, in merge order.
    """

    __frozen_arrays__ = ("mask", "rows")
    __slots__ = __frozen_arrays__

    def __init__(self, mask: np.ndarray, rows: np.ndarray):
        self.mask = readonly_view(mask)
        self.rows = readonly_view(rows)

    @property
    def size(self) -> int:
        """Number of addresses covered by the cluster's range (exact)."""
        return math.prod(np.bitwise_count(self.mask).tolist())

    @property
    def density(self) -> float:
        """Seeds per covered address (1.0 for a singleton cluster)."""
        return len(self.rows) / self.size

    def values(self) -> list[tuple[int, ...]]:
        """Per position, the ascending nybble values of the range."""
        return [_mask_values(mask) for mask in self.mask.tolist()]

    def merged_with(self, other: "SeedCluster") -> "SeedCluster":
        """The cluster covering both clusters' seeds (this one's first)."""
        return SeedCluster(self.mask | other.mask, np.concatenate((self.rows, other.rows)))

    def merged_size(self, other: "SeedCluster") -> int:
        """Size of the merged range without materialising the merge."""
        return math.prod(np.bitwise_count(self.mask | other.mask).tolist())

    def enumerate_addresses(self, budget: int) -> list[IPv6Address]:
        """The first *budget* addresses of the range, in ``itertools.product``
        order (last position fastest): ascending."""
        positions = list(zip(self.values(), _SHIFTS))
        base = sum(values[0] << shift for values, shift in positions if len(values) == 1)
        terms = [[v << shift for v in values] for values, shift in positions if len(values) > 1]
        combos = itertools.islice(itertools.product(*terms), max(budget, 0))
        return [IPv6Address(base + sum(combo)) for combo in combos]

    def enumerate_batch(self, budget: int) -> AddressBatch:
        """Batch counterpart of :meth:`enumerate_addresses` (same order).

        Combination *k* of the product is the mixed-radix decomposition of *k*
        over the per-position value counts.  A position whose stride is at
        least the enumerated count never leaves its first value, so only the
        positions of the varying suffix cost a divide/modulo and a gather.
        """
        if budget <= 0:
            return AddressBatch.empty()
        count = min(budget, self.size)
        base = 0
        varying = []
        stride = 1
        for values, shift in zip(reversed(self.values()), reversed(_SHIFTS)):
            if stride >= count or len(values) == 1:
                base |= values[0] << shift
            else:
                varying.append((np.asarray(values, dtype=np.uint64), shift, stride))
            stride *= len(values)
        hi = np.full(count, base >> 64, dtype=np.uint64)
        lo = np.full(count, base & LO_MASK, dtype=np.uint64)
        indices = np.arange(count, dtype=np.int64)
        for values, shift, stride in varying:
            column = values[(indices // stride) % len(values)]
            if shift >= 64:
                hi |= column << np.uint64(shift - 64)
            else:
                lo |= column << np.uint64(shift)
        return AddressBatch(hi, lo)


PairSearch = Callable[[list[SeedCluster]], "tuple[int, int] | None"]


def _scan_pairs(clusters: list[SeedCluster]) -> tuple[int, int] | None:
    """First (row-major) pair of strictly smallest merged size within the
    cap, or None: the reference engine's pair search."""
    best, best_size = None, MAX_CLUSTER_SIZE + 1
    for i, first in enumerate(clusters):
        for j in range(i + 1, len(clusters)):
            size = first.merged_size(clusters[j])
            if size < best_size:
                best, best_size = (i, j), size
    return best


def _best_pair(clusters: list[SeedCluster]) -> tuple[int, int] | None:
    """:func:`_scan_pairs` as array math: the fast engine's pair search.

    All pairwise merged sizes come from one broadcast OR + ``bitwise_count``
    product per row block, multiplied in float64 inside the reduction's
    buffer.  Any size within the cap (the only ones that can win) is an
    exact integer there, so the winner is the scan's pair for pair.
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
        sizes = np.multiply.reduce(np.bitwise_count(ors), axis=2, dtype=np.float64)
        sizes[columns <= np.arange(start, end)[:, None]] = np.inf
        sizes[sizes > MAX_CLUSTER_SIZE] = np.inf
        flat = int(np.argmin(sizes))
        size = float(sizes.flat[flat])
        if size < best_size:
            best_size = size
            best_flat = (start + flat // m) * m + flat % m
    if best_flat < 0 or not np.isfinite(best_size):
        return None
    return divmod(best_flat, m)


def _merge_bucket(clusters: list[SeedCluster], best_pair: PairSearch) -> list[SeedCluster]:
    """Greedy agglomerative merging of one bucket under the range-size cap.

    Each round appends the merge of the best pair.  Above 60 clusters the
    quadratic pair search would dominate, so the round then also pairs
    neighbours in order of first seed, merging each pair within the cap.
    """
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        pair = best_pair(clusters)
        if pair is not None:
            i, j = pair
            combined = clusters[i].merged_with(clusters[j])
            clusters = [c for index, c in enumerate(clusters) if index not in pair]
            clusters.append(combined)
            merged = True
        if len(clusters) > _PAIRWISE_LIMIT:
            clusters.sort(key=lambda c: int(c.rows[0]))
            halved: list[SeedCluster] = []
            for a, b in zip(clusters[0::2], clusters[1::2]):
                if a.merged_size(b) <= MAX_CLUSTER_SIZE:
                    halved.append(a.merged_with(b))
                else:
                    halved.extend((a, b))
            if len(clusters) % 2:
                halved.append(clusters[-1])
            clusters = halved
    return clusters


class SixGenGenerator:
    """Generate scan targets by growing and enumerating dense seed clusters."""

    def __init__(
        self,
        seeds: "AddressBatch | Sequence[IPv6Address | int | str]",
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.policy = policy
        batch = (
            seeds if isinstance(seeds, AddressBatch) else AddressBatch.from_addresses(seeds)
        ).unique()
        if len(batch) == 0:
            raise ValueError("6Gen needs at least one seed address")
        #: Sorted-unique seed addresses: the rows a cluster's ``rows`` index.
        self.seed_batch = batch
        self.clusters = self._grow_clusters(_scan_pairs if policy.reference else _best_pair)

    def _grow_clusters(self, best_pair: PairSearch) -> list[SeedCluster]:
        """Merge each /64's seeds (6Gen merges within nearby space; merging
        across unrelated networks would make useless giant ranges) and keep
        the densest clusters, ties broken towards more seeds."""
        batch = self.seed_batch
        masks = np.uint16(1) << batch.nybbles_matrix().astype(np.uint16)
        rows = np.arange(len(batch), dtype=np.int64)
        boundary = np.ones(len(batch), dtype=bool)
        boundary[1:] = batch.hi[1:] != batch.hi[:-1]
        starts = np.flatnonzero(boundary).tolist() + [len(batch)]
        clusters: list[SeedCluster] = []
        for start, end in zip(starts, starts[1:]):
            bucket = [SeedCluster(masks[row], rows[row : row + 1]) for row in range(start, end)]
            clusters.extend(_merge_bucket(bucket, best_pair))
        clusters.sort(key=lambda c: (-c.density, -len(c.rows)))
        return clusters[:MAX_CLUSTERS]

    # -- generation -------------------------------------------------------------------

    def generate(self, budget: int, include_seeds: bool = False) -> list[IPv6Address]:
        """Generate up to *budget* target addresses from the densest clusters.

        Clusters are enumerated densest first, each up to four times an even
        share of the budget, so a single huge cluster does not consume
        everything.
        """
        if budget <= 0:
            return []
        results: list[IPv6Address] = []
        seen: set[int] = set()
        seeds = set(self.seed_batch.to_ints())
        per_round = max(1, budget // len(self.clusters))
        for cluster in self.clusters:
            if len(results) >= budget:
                break
            for address in cluster.enumerate_addresses(per_round * 4):
                if address.value in seen:
                    continue
                seen.add(address.value)
                if not include_seeds and address.value in seeds:
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
        per_round = max(1, budget // len(self.clusters))
        seeds = self.seed_batch
        for cluster in self.clusters:
            if total >= budget:
                break
            enumerated = cluster.enumerate_batch(per_round * 4)
            keep = find128(
                accepted_sorted.hi, accepted_sorted.lo, enumerated.hi, enumerated.lo
            ) < 0
            if not include_seeds:
                keep &= find128(seeds.hi, seeds.lo, enumerated.hi, enumerated.lo) < 0
            fresh = enumerated.take(keep)
            if len(fresh) > budget - total:
                fresh = fresh.take(np.arange(budget - total, dtype=np.int64))
            if len(fresh) == 0:
                continue
            accepted.append(fresh)
            total += len(fresh)
            accepted_sorted = union_sorted(accepted_sorted, fresh.sort())[0]
        return AddressBatch.concatenate(accepted)
