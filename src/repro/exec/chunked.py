"""Out-of-core streaming kernels for the hot paths.

Chunked twins of the three dominant computations -- APD fan-out probing,
k-means label assignment and the sliding-window sweep -- that never
materialise more than ``chunk_rows`` rows of working set at once, over
either RAM or memory-mapped (:func:`scratch_memmap`,
:meth:`~repro.addr.batch.AddressBatch.from_memmap`) columns.

Chunking never changes a result.  Every fan-out target and every probe
outcome is a keyed draw on its own coordinates (:mod:`repro.keyed`), so
:class:`FanoutPlan` builds any row span of the fan-out independently, and a
chunked probe pass equals the one-shot ``probe_batch`` call for every
``chunk_rows``.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.addr.address import BITS, LO_MASK
from repro.addr.batch import AddressBatch, fanout_rows
from repro.exec.shard import (
    map_shards,
    plan_chunk_spans,
    plan_chunk_spans_within,
    plan_worker_spans,
    snap_spans_to_boundaries,
)


def scratch_memmap(shape: "tuple[int, ...]", dtype: "np.dtype | type") -> np.ndarray:
    """An anonymous disk-backed scratch array (memmap over an unlinked file).

    The backing file is deleted immediately after mapping: the mapping stays
    valid for the array's lifetime, the kernel reclaims the blocks when the
    last reference drops, and nothing can leak a stray temp file.  Pages are
    written back under memory pressure instead of occupying RSS -- this is
    what bounds the streaming paths' resident set by ``chunk_rows``.
    """
    fd, path = tempfile.mkstemp(prefix="repro-exec-", suffix=".npy")
    os.close(fd)
    try:
        out = np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=shape)
    finally:
        os.unlink(path)
    return out


class FanoutPlan:
    """Row layout of an APD fan-out, materialisable one row span at a time.

    Precomputes the per-prefix geometry of
    :func:`repro.addr.batch.batch_fanout_targets` (network limbs, fan-out
    counts, first-row offsets) without generating any targets; :meth:`chunk`
    then builds exactly the target rows ``[start, end)`` of the one-shot
    batch for the plan's *seed* and *day*.
    """

    __slots__ = (
        "prefixes",
        "seed",
        "day",
        "net_hi",
        "net_lo",
        "lengths",
        "counts",
        "starts",
        "total",
    )

    def __init__(self, prefixes, seed: int = 0, day: int = 0):
        prefixes = list(prefixes)
        num = len(prefixes)
        self.prefixes = prefixes
        self.seed = seed
        self.day = day
        self.net_hi = np.fromiter((p.network >> 64 for p in prefixes), np.uint64, num)
        self.net_lo = np.fromiter(
            (p.network & LO_MASK for p in prefixes), np.uint64, num
        )
        self.lengths = np.fromiter((p.length for p in prefixes), np.int64, num)
        sub_lengths = np.minimum(self.lengths + 4, BITS)
        self.counts = (1 << (sub_lengths - self.lengths)).astype(np.int64)
        self.starts = np.cumsum(self.counts) - self.counts
        self.total = int(self.counts.sum())

    def chunk(self, start: int, end: int) -> tuple[AddressBatch, np.ndarray, np.ndarray]:
        """Target rows ``[start, end)``: ``(targets, prefix_index, branch)``."""
        rows = np.arange(start, end, dtype=np.int64)
        prefix_index = np.searchsorted(self.starts, rows, side="right") - 1
        branch = rows - self.starts[prefix_index]
        targets = fanout_rows(
            self.net_hi[prefix_index],
            self.net_lo[prefix_index],
            self.lengths[prefix_index],
            branch,
            self.seed,
            self.day,
        )
        return targets, prefix_index, branch

    def worker_spans(self, workers: int) -> list[tuple[int, int]]:
        """Per-worker row spans cut only on prefix fan-out boundaries.

        A prefix's targets never straddle two shards, so per-shard outcome
        assembly stays a plain slice.  This is the ``shard_by="prefix"``
        cutter; ``shard_by="rows"`` uses chunk-grid spans instead.
        """
        return snap_spans_to_boundaries(self.total, workers, self.starts.tolist())


def chunked_probe_batch(
    internet,
    targets: AddressBatch,
    protocols,
    day: int = 0,
    *,
    chunk_rows: int,
    workers: int = 1,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Streaming :meth:`SimulatedInternet.probe_batch` over an address batch.

    Probes ``chunk_rows`` targets at a time (sharded over *workers* forked
    processes when asked) and fills a ``(len(targets), len(protocols))``
    responsiveness matrix -- pass a memmap as *out* to keep the result
    off-heap too.  Probe outcomes are keyed draws, so the matrix equals the
    unchunked call for every ``chunk_rows`` and worker count.
    """
    n = len(targets)
    protocols = tuple(protocols)
    if out is None:
        out = np.zeros((n, len(protocols)), dtype=bool)

    def probe_span(s: int, e: int) -> np.ndarray:
        chunk = AddressBatch(targets.hi[s:e], targets.lo[s:e])
        return internet.probe_batch(chunk, protocols, day).responsive

    def run_span(span):
        spans = plan_chunk_spans_within(span[0], span[1], chunk_rows)
        return [(s, probe_span(s, e)) for s, e in spans]

    if workers > 1 and n:
        spans = plan_worker_spans(n, workers, chunk_rows)
        for partials in map_shards(run_span, spans, workers):
            for s, responsive in partials:
                out[s : s + responsive.shape[0]] = responsive
    else:
        for s, e in plan_chunk_spans(n, chunk_rows):
            out[s:e] = probe_span(s, e)
    return out


def kmeans_assign_block(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for a row block.

    The exact per-row expression of ``_lloyd_vectorized`` -- one broadcast
    ``(x - c)^2`` reduction and an argmin -- so labels computed block-wise
    are bit-identical to the whole-array assignment for any block split.
    """
    distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(distances, axis=1)


def kmeans_assign(
    data: np.ndarray,
    centroids: np.ndarray,
    *,
    chunk_rows: int,
    workers: int = 1,
) -> np.ndarray:
    """Chunked/sharded nearest-centroid assignment (row-exact, any split)."""
    n = data.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if workers > 1:
        spans = plan_worker_spans(n, workers, chunk_rows)
        parts = map_shards(
            lambda span: kmeans_assign_block(data[span[0] : span[1]], centroids),
            spans,
            workers,
        )
    else:
        parts = [
            kmeans_assign_block(data[s:e], centroids)
            for s, e in plan_chunk_spans(n, chunk_rows)
        ]
    return np.concatenate(parts)


def lloyd_chunked(
    data: np.ndarray,
    centroids: np.ndarray,
    k: int,
    max_iterations: int,
    *,
    chunk_rows: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lloyd's loop with chunked/sharded label assignment.

    Only the assignment step (the O(n * k * dims) term) is chunked and
    sharded; the centroid update stays one full ``np.add.at`` scatter in the
    parent, applied in global row order.  Both halves are therefore
    bit-identical to ``_lloyd_vectorized`` -- sharding never reassociates a
    floating-point reduction.
    """
    n, dims = data.shape
    labels = np.zeros(n, dtype=int)
    centroids = centroids.astype(np.float64, copy=True)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_labels = kmeans_assign(
            data, centroids, chunk_rows=chunk_rows, workers=workers
        )
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
