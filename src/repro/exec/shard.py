"""Shard planning and fork-based multi-core execution.

The multi-core tier keeps its determinism contract by construction:

* work is cut into **globally positioned spans** -- chunk boundaries are
  multiples of ``chunk_rows`` in corpus row coordinates (optionally snapped
  to prefix-interval starts), never "whatever this worker happened to get" --
  so the set of chunks does not depend on the worker count;
* shards are mapped with :func:`map_shards`, which preserves task order and
  merges results in that fixed order, so floating-point and concatenation
  order match the single-process run exactly.

Workers are ``fork`` processes: the parent's numpy arrays (including
memory-mapped ones) are inherited copy-on-write, so shards read the corpus
zero-copy.  Only the small per-task descriptors (row spans) are pickled in
and the computed partials pickled out.  Where ``fork`` is unavailable the
mapping silently degrades to an in-process loop with identical results.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Iterable, Sequence

Span = tuple[int, int]

#: Closure registry for fork workers.  ``Pool.map`` pickles its function by
#: qualified name, which rules out closures -- so the actual (closure) shard
#: function is parked here in the parent right before the pool forks, and the
#: picklable module-level :func:`_call_task` trampoline looks it up in the
#: child's inherited copy of this dict.
_WORKER_STATE: dict[str, Callable[[Any], Any]] = {}


def _call_task(task: Any) -> Any:
    return _WORKER_STATE["fn"](task)


def fork_available() -> bool:
    """Can this platform fan work out over forked processes?"""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def map_shards(
    fn: Callable[[Any], Any], tasks: Iterable[Any], workers: int
) -> list[Any]:
    """``[fn(t) for t in tasks]``, fanned over *workers* forked processes.

    Results come back in task order regardless of which worker finished
    first, which is what keeps sharded merges bit-identical to the inline
    loop.  ``fn`` may be a closure over parent arrays (fork inheritance);
    *tasks* and the return values must be picklable.  Falls back to the
    inline loop when one worker suffices or ``fork`` is unavailable.
    """
    task_list = list(tasks)
    processes = min(workers, len(task_list))
    if processes <= 1 or not fork_available():
        return [fn(task) for task in task_list]
    context = multiprocessing.get_context("fork")
    _WORKER_STATE["fn"] = fn
    try:
        with context.Pool(processes=processes) as pool:
            return pool.map(_call_task, task_list)
    finally:
        _WORKER_STATE.pop("fn", None)


def plan_chunk_spans_within(start: int, end: int, chunk_rows: int) -> list[Span]:
    """Chunks of ``[start, end)`` cut on the *global* ``chunk_rows`` grid.

    Boundaries are multiples of ``chunk_rows`` in absolute row coordinates
    (the first chunk is shortened to realign when *start* sits mid-grid), so
    a span's chunks are a contiguous subsequence of the whole corpus's chunk
    list, however the corpus is sharded.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    spans: list[Span] = []
    s = start
    while s < end:
        e = min((s // chunk_rows + 1) * chunk_rows, end)
        spans.append((s, e))
        s = e
    return spans


def plan_chunk_spans(total: int, chunk_rows: int) -> list[Span]:
    """Chunks of ``[0, total)`` on the ``chunk_rows`` grid."""
    return plan_chunk_spans_within(0, total, chunk_rows)


def plan_worker_spans(total: int, workers: int, chunk_rows: int) -> list[Span]:
    """Split ``[0, total)`` into contiguous per-worker spans on chunk edges.

    Every boundary is a multiple of ``chunk_rows``, so sharded execution
    processes exactly the same chunk set as a single worker -- only the
    assignment of chunks to processes changes.
    """
    if total <= 0:
        return []
    num_chunks = -(-total // chunk_rows)
    per_worker = -(-num_chunks // max(1, min(workers, num_chunks)))
    spans: list[Span] = []
    for first_chunk in range(0, num_chunks, per_worker):
        s = first_chunk * chunk_rows
        e = min((first_chunk + per_worker) * chunk_rows, total)
        spans.append((s, e))
    return spans


def snap_spans_to_boundaries(
    total: int, workers: int, boundaries: Sequence[int]
) -> list[Span]:
    """Split ``[0, total)`` into up to *workers* spans cut only at *boundaries*.

    *boundaries* is an ascending sequence of admissible cut rows (e.g. the
    row offsets where a new ``FlatLPM`` disjoint interval or fan-out prefix
    begins).  Each ideal uniform cut is snapped up to the next admissible
    boundary; degenerate (empty) spans are dropped.
    """
    if total <= 0:
        return []
    import bisect

    cuts = [0]
    for w in range(1, max(1, workers)):
        ideal = (total * w) // workers
        pos = bisect.bisect_left(boundaries, ideal)
        cut = boundaries[pos] if pos < len(boundaries) else total
        if cuts[-1] < cut < total:
            cuts.append(int(cut))
    cuts.append(total)
    return list(zip(cuts[:-1], cuts[1:]))
