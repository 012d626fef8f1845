"""The execution policy: one frozen value selecting *how* an engine runs.

Every engine-paired entry point (APD, clustering and k-means, the sliding
window, the daily service, 6Gen, the generation pipeline and the experiment
context) takes a keyword-only ``policy=ExecutionPolicy()``.  Its one engine
switch is ``reference``: ``False`` (the default) runs the fast columnar
engine, ``True`` the scalar twin the differential oracle holds it to.  The
remaining knobs say how the fast engine scales: chunk sizes for out-of-core
streaming, worker counts for shard-parallel execution, and whether batch
columns live in RAM or behind a memory-mapped file.

Policies are frozen and hashable, so they can ride inside scenario caches and
hypothesis examples just like :class:`~repro.scenarios.Scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Accepted backing stores for streamed batch columns.
STORAGE_KINDS = ("ram", "memmap")

#: Accepted shard keys for multi-worker fan-out.
SHARD_KEYS = ("prefix", "rows")

#: Chunk size used when a policy requests sharding or memmap storage without
#: pinning ``chunk_rows`` explicitly.
DEFAULT_CHUNK_ROWS = 65_536


@dataclass(frozen=True, slots=True)
class ExecutionPolicy:
    """How an engine executes: implementation, chunking, workers, storage.

    ``reference`` selects the scalar reference engine instead of the fast
    columnar one; the remaining fields only apply to the fast engines:

    * ``chunk_rows`` -- rows materialised per streaming step (``None`` keeps
      the historical whole-batch-at-once behaviour),
    * ``workers`` -- processes to shard the work over (1 = in-process),
    * ``storage`` -- ``"ram"`` or ``"memmap"`` backing for streamed columns,
    * ``shard_by`` -- ``"prefix"`` cuts shards on FlatLPM disjoint-interval
      boundaries; ``"rows"`` cuts plain contiguous row ranges.
    """

    reference: bool = False
    chunk_rows: int | None = None
    workers: int = 1
    storage: str = "ram"
    shard_by: str = "prefix"

    def __post_init__(self) -> None:
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {self.chunk_rows}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.storage not in STORAGE_KINDS:
            raise ValueError(
                f"unknown storage: {self.storage!r} (expected one of {list(STORAGE_KINDS)})"
            )
        if self.shard_by not in SHARD_KEYS:
            raise ValueError(
                f"unknown shard_by: {self.shard_by!r} (expected one of {list(SHARD_KEYS)})"
            )

    @property
    def is_streaming(self) -> bool:
        """Does this policy engage the out-of-core / multi-core tier?

        True when any knob departs from the plain in-RAM single-pass default;
        the fast engines then route through the chunked/sharded kernels in
        :mod:`repro.exec` instead of the one-shot batch path.
        """
        return (
            self.chunk_rows is not None
            or self.workers > 1
            or self.storage == "memmap"
        )

    @property
    def effective_chunk_rows(self) -> int | None:
        """``chunk_rows``, defaulted when streaming is implied another way."""
        if self.chunk_rows is not None:
            return self.chunk_rows
        if self.is_streaming:
            return DEFAULT_CHUNK_ROWS
        return None

