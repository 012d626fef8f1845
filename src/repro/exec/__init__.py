"""Execution policy and out-of-core building blocks.

One frozen :class:`ExecutionPolicy` value -- the keyword-only ``policy=`` of
every engine-paired entry point -- selects the implementation (fast, or the
scalar reference twin) and how the fast one bounds its memory: the row
count per streaming step and RAM vs memmap column storage.  The helpers here
are what the three hottest paths loop with; every chunking is bit-identical
to the whole-batch run (see ``docs/SCALING.md`` for the determinism contract
and the measured curve).
"""

from repro.exec.chunked import (
    chunked_probe_batch,
    kmeans_assign_block,
    plan_chunk_spans,
    scratch_memmap,
)
from repro.exec.policy import (
    DEFAULT_CHUNK_ROWS,
    STORAGE_KINDS,
    ExecutionPolicy,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "STORAGE_KINDS",
    "ExecutionPolicy",
    "chunked_probe_batch",
    "kmeans_assign_block",
    "plan_chunk_spans",
    "scratch_memmap",
]
