"""The execution policy: one frozen value selecting *how* an engine runs.

Every engine-paired entry point (APD, clustering and k-means, the sliding
window, the daily service, 6Gen, the generation pipeline and the experiment
context) takes a keyword-only ``policy=ExecutionPolicy()``.  Its one engine
switch is ``reference``: ``False`` (the default) runs the fast columnar
engine, ``True`` the scalar twin the differential oracle holds it to.  The
other two knobs bound the fast engine's memory: the row count per streaming
step, and whether its per-row stores live in RAM or behind a memory-mapped
file.  Neither changes a result.

Policies are frozen and hashable, so they can ride inside scenario caches and
hypothesis examples just like :class:`~repro.scenarios.Scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Accepted backing stores for streamed batch columns.
STORAGE_KINDS = ("ram", "memmap")

#: Chunk size used when a policy requests memmap storage without pinning
#: ``chunk_rows`` explicitly: parking the stores off the heap only bounds
#: memory if the working set is bounded too.
DEFAULT_CHUNK_ROWS = 65_536


@dataclass(frozen=True, slots=True)
class ExecutionPolicy:
    """How an engine executes: implementation, chunking, storage.

    ``reference`` selects the scalar reference engine instead of the fast
    columnar one; the remaining fields only apply to the fast engines:

    * ``chunk_rows`` -- rows materialised per streaming step (``None``
      processes every row in one step),
    * ``storage`` -- ``"ram"`` or ``"memmap"`` backing for streamed columns.
    """

    reference: bool = False
    chunk_rows: int | None = None
    storage: str = "ram"

    def __post_init__(self) -> None:
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {self.chunk_rows}")
        if self.storage not in STORAGE_KINDS:
            raise ValueError(
                f"unknown storage: {self.storage!r} (expected one of {list(STORAGE_KINDS)})"
            )

    @property
    def effective_chunk_rows(self) -> int | None:
        """Rows per streaming step: ``chunk_rows``, defaulted under memmap storage.

        ``None`` means one step over every row.
        """
        if self.chunk_rows is None and self.storage == "memmap":
            return DEFAULT_CHUNK_ROWS
        return self.chunk_rows
