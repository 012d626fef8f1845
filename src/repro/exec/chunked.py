"""Out-of-core building blocks for the hot paths.

APD fan-out probing, k-means label assignment and the sliding-window sweep
each run as one loop over row spans of ``policy.effective_chunk_rows`` rows
(:func:`plan_chunk_spans`; one span over every row when that is ``None``),
over either RAM or memory-mapped (:func:`scratch_memmap`,
:meth:`~repro.addr.batch.AddressBatch.from_memmap`) columns, so no step
materialises more than one chunk of working set at once.

Chunking never changes a result.  Every fan-out target and every probe
outcome is a keyed draw on its own coordinates (:mod:`repro.keyed`), so
:class:`~repro.addr.batch.FanoutPlan` builds any row span of the fan-out
independently, and a chunked probe pass equals the one-shot ``probe_batch``
call for every ``chunk_rows``.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.addr.batch import AddressBatch

Span = tuple[int, int]


def plan_chunk_spans(total: int, chunk_rows: int | None) -> list[Span]:
    """Chunks of ``[0, total)`` on the ``chunk_rows`` grid.

    ``None`` makes one span over every row, so a kernel's chunked loop and
    its whole-batch run are the same code.
    """
    if chunk_rows is not None and chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    step = chunk_rows or max(total, 1)
    return [(s, min(s + step, total)) for s in range(0, total, step)]


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


def chunked_probe_batch(
    internet,
    targets: AddressBatch,
    protocols,
    day: int = 0,
    *,
    chunk_rows: int,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Streaming :meth:`SimulatedInternet.probe_batch` over an address batch.

    Probes ``chunk_rows`` targets at a time and fills a
    ``(len(targets), len(protocols))`` responsiveness matrix -- pass a memmap
    as *out* to keep the result off-heap too.  Probe outcomes are keyed
    draws, so the matrix equals the unchunked call for every ``chunk_rows``.
    """
    protocols = tuple(protocols)
    if out is None:
        out = np.zeros((len(targets), len(protocols)), dtype=bool)
    for s, e in plan_chunk_spans(len(targets), chunk_rows):
        chunk = AddressBatch(targets.hi[s:e], targets.lo[s:e])
        out[s:e] = internet.probe_batch(chunk, protocols, day).responsive
    return out


def kmeans_assign_block(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for a row block.

    One broadcast ``(x - c)^2`` reduction and an argmin per row, so labels
    computed block-wise are bit-identical to the whole-array assignment for
    any block split.
    """
    distances = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(distances, axis=1)
