"""Repo-specific registries consumed by the reprolint rules.

Everything here is *policy*, kept separate from the rule mechanics so a
reader can audit what is enforced (and extend it) without touching visitor
code.  Classes register themselves for R2/R3 in their own source via
``__frozen_arrays__`` / ``_GUARDED_BY`` class attributes (picked up by
:class:`repro.analysis_static.engine.LintContext`); the registries below
cover the names that predate those declarations and the path allowlists.
"""

from __future__ import annotations

# -- R1 determinism ---------------------------------------------------------

#: Path fragments where wall-clock reads are legitimate: CLI drivers and
#: benchmark harnesses time their own runs.  Seeded-RNG checks still apply.
R1_WALLCLOCK_ALLOWED_PATH_PARTS: tuple[str, ...] = (
    "scripts/",
    "benchmarks/",
)

#: ``time.<attr>`` reads that leak the wall clock into results.
R1_TIME_ATTRS: frozenset[str] = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)

#: ``datetime.<attr>`` / ``date.<attr>`` constructors that read the clock.
R1_DATETIME_ATTRS: frozenset[str] = frozenset({"now", "utcnow", "today"})

#: ``np.random.<attr>`` names that are *not* the legacy global-state API.
R1_NP_RANDOM_OK: frozenset[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

# -- R2 snapshot immutability ----------------------------------------------

#: Classes frozen by name (legacy registration; new classes should declare
#: ``__frozen_arrays__`` instead).  Every ``self.*`` store outside
#: ``__init__`` is flagged for these.
R2_FROZEN_CLASS_NAMES: frozenset[str] = frozenset({"HitlistSnapshot"})

#: ndarray methods that mutate in place.
R2_MUTATING_ARRAY_METHODS: frozenset[str] = frozenset(
    {"sort", "resize", "fill", "partition", "put", "itemset", "setflags", "byteswap"}
)

#: ``ClassName.method`` publish boundaries: methods whose return values are
#: shared with concurrent readers and must not leak a writable array view
#: (a bare slice/subscript or ``np.asarray``/``np.array`` result must be
#: wrapped in ``readonly_view(...)`` / ``.readonly()`` before returning).
R2_PUBLISH_BOUNDARY_METHODS: frozenset[str] = frozenset(
    {
        "Hitlist.snapshot_arrays",
        "Hitlist.address_batch",
        "Hitlist.source_masks",
        "Hitlist.first_seen_days",
        "HitlistSource.record_arrays",
        "HitlistSnapshot._subset_rows",
        "HitlistSnapshot.download",
        "BatchProbeResult.responsive_mask",
        "DailyHitlist.targets_batch",
    }
)

#: Call wrappers that produce frozen (or private-copy) results; the boundary
#: scan does not descend into them.
R2_APPROVED_WRAPPER_FUNCS: frozenset[str] = frozenset({"readonly_view"})
R2_APPROVED_WRAPPER_METHODS: frozenset[str] = frozenset(
    {"readonly", "copy", "tolist", "astype", "any", "all", "sum", "to_addresses", "to_ints"}
)
