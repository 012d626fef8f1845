"""Out-of-core + multi-core execution tier.

One frozen :class:`ExecutionPolicy` value -- the keyword-only ``policy=`` of
every engine-paired entry point -- selects the implementation (fast, or the
scalar reference twin) *and* how it runs: streaming chunk size, worker count,
RAM vs memmap column storage, and the shard key.  The kernels here are the
chunked and sharded twins of the three hottest paths, each bit-identical to
its single-core, in-RAM engine (see ``docs/SCALING.md`` for the determinism
contract and measured scaling curves).
"""

from repro.exec.chunked import (
    FanoutPlan,
    chunked_probe_batch,
    kmeans_assign,
    kmeans_assign_block,
    lloyd_chunked,
    scratch_memmap,
)
from repro.exec.policy import (
    DEFAULT_CHUNK_ROWS,
    SHARD_KEYS,
    STORAGE_KINDS,
    ExecutionPolicy,
)
from repro.exec.shard import (
    fork_available,
    map_shards,
    plan_chunk_spans,
    plan_chunk_spans_within,
    plan_worker_spans,
    snap_spans_to_boundaries,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "SHARD_KEYS",
    "STORAGE_KINDS",
    "ExecutionPolicy",
    "FanoutPlan",
    "chunked_probe_batch",
    "fork_available",
    "kmeans_assign",
    "kmeans_assign_block",
    "lloyd_chunked",
    "map_shards",
    "plan_chunk_spans",
    "plan_chunk_spans_within",
    "plan_worker_spans",
    "scratch_memmap",
    "snap_spans_to_boundaries",
]
