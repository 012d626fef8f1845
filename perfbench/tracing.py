"""Outside-in span tracing for the benchmark's traced runs.

The program under test carries no instrumentation of its own, so the traced
run wraps the public callables behind each per-layer metric from the outside:
:meth:`Tracer.installed` swaps a timing wrapper onto every :data:`TARGETS`
entry and puts the original class or module attribute back afterwards, so
the untraced runs execute exactly the code a user runs.

A span records its name, start, end and parent span (the wrapped call that
was running when it started).  Spans stay in memory; the runner writes them
out when the run ends.  A span's *self time* is its duration minus the part
of it that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

#: One recorded span: (name, start, end, parent index or -1 at top level).
Span = tuple[str, float, float, int]


def _result_len(args, kwargs, result) -> dict[str, int]:
    return {"rows": len(result)}


def _result_rows(args, kwargs, result) -> dict[str, int]:
    return {"rows": int(result.responsive.shape[0])}


def _first_arg_len(args, kwargs, result) -> dict[str, int]:
    return {"rows": len(args[1])}


def _sweep_targets(args, kwargs, result) -> dict[str, int]:
    return {"rows": max((scan.targets for scan in result.values()), default=0)}


def _generation_counts(args, kwargs, result) -> dict[str, int]:
    tools = ("entropy_ip", "6gen")
    return {
        "candidates": sum(len(result.candidate_batch(tool)) for tool in tools),
        "responsive": sum(result.responsive_any_count(tool) for tool in tools),
    }


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module[.owner].attr`` recorded as *span*.

    ``counts`` maps ``(args, kwargs, result)`` to work counts, each added to
    the counter ``<span>.<key>``; ``count_only`` records a call count and no
    span (for callables too hot and too small to time one by one).
    """

    module: str
    owner: str | None
    attr: str
    span: str
    counts: Callable[..., dict[str, int]] | None = None
    count_only: bool = False

    def resolve(self) -> object:
        """The class (or module) whose attribute this target replaces."""
        holder = importlib.import_module(self.module)
        return holder if self.owner is None else getattr(holder, self.owner)


#: Experiment id -> module, one entry per module ``run_all`` executes.
EXPERIMENT_MODULES = (
    ("table1", "table1"),
    ("table2", "table2"),
    ("fig1", "fig1"),
    ("fig2", "fig2"),
    ("fig3", "fig3"),
    ("table3", "table3"),
    ("table4", "table4"),
    ("fig4", "fig4"),
    ("fig5", "fig5"),
    ("table5", "table5"),
    ("murdock", "murdock"),
    ("fig6", "fig6"),
    ("fig7", "fig7"),
    ("fig8", "fig8"),
    ("table7", "table7"),
    ("fig10", "fig10"),
    ("table9", "table9"),
    ("vantage_bias", "vantage"),
)

#: Every wrapped callable, grouped by the layer (module) it belongs to.
TARGETS: tuple[Target, ...] = (
    # repro.netmodel: world build, batch and scalar probes, host uptime.
    Target("repro.netmodel.internet", "SimulatedInternet", "__init__", "netmodel.build"),
    Target(
        "repro.netmodel.internet", "SimulatedInternet", "probe_batch", "netmodel.probe_batch",
        counts=_result_rows,
    ),
    Target("repro.netmodel.internet", "SimulatedInternet", "probe", "netmodel.probe"),
    Target("repro.netmodel.host", "StabilityModel", "is_online", "netmodel.host_online",
           count_only=True),
    # repro.sources: the assembly ExperimentContext (and so scenarios.build) uses.
    Target("repro.experiments.context", None, "assemble_all_sources", "sources.assemble"),
    # repro.addr: flattened longest-prefix matching.
    Target("repro.addr.batch", "FlatLPM", "__init__", "addr.lpm_build"),
    Target("repro.addr.batch", "FlatLPM", "lookup_indices", "addr.lpm_lookup",
           counts=_first_arg_len),
    # repro.core: hitlist service, APD, clustering, sliding window, Murdock.
    Target("repro.core.hitlist", "Hitlist", "merge_records", "core.hitlist.merge",
           counts=_result_len),
    Target("repro.core.hitlist", "HitlistService", "run_day", "core.hitlist.run_day"),
    Target("repro.core.apd", "AliasedPrefixDetector", "candidate_prefixes", "core.apd.candidates",
           counts=_result_len),
    Target("repro.core.apd", "AliasedPrefixDetector", "probe_prefixes", "core.apd.probe_prefixes",
           counts=_result_len),
    Target("repro.core.clustering", "EntropyClustering", "fingerprints_by_prefix",
           "core.clustering.fingerprint"),
    Target("repro.core.clustering", "EntropyClustering", "fingerprints_by_group",
           "core.clustering.fingerprint"),
    Target("repro.core.clustering", "EntropyClustering", "cluster", "core.clustering.cluster"),
    Target("repro.core.sliding_window", "SlidingWindowMerger", "sweep_windows",
           "core.sliding_window.sweep"),
    Target("repro.core.apd_murdock", "MurdockDetector", "run", "core.apd_murdock.run"),
    # repro.probing: scalar and batch ZMap sweeps, TCP fingerprinting.
    Target("repro.probing.zmap", "ZMapScanner", "sweep", "probing.sweep", counts=_sweep_targets),
    Target("repro.probing.zmap", "ZMapScanner", "sweep_batch", "probing.sweep_batch",
           counts=_result_rows),
    Target("repro.probing.fingerprint", "FingerprintProbe", "probe", "probing.fingerprint"),
    # repro.genaddr: the pipeline and its two generators.
    Target("repro.genaddr.pipeline", "GenerationPipeline", "run", "genaddr.pipeline",
           counts=_generation_counts),
    Target("repro.genaddr.entropy_ip", "EntropyIPModel", "__init__", "genaddr.entropy_ip"),
    Target("repro.genaddr.entropy_ip", "EntropyIPGenerator", "generate_batch",
           "genaddr.entropy_ip"),
    Target("repro.genaddr.sixgen", "SixGenGenerator", "__init__", "genaddr.sixgen"),
    Target("repro.genaddr.sixgen", "SixGenGenerator", "generate_batch", "genaddr.sixgen"),
    # repro.serving: the write side (publish, snapshot build) and the read side.
    Target("repro.serving.server", "HitlistServer", "publish_day", "serving.publish"),
    Target("repro.serving.snapshot", "HitlistSnapshot", "from_daily", "serving.snapshot_build"),
    Target("repro.serving.server", "HitlistServer", "point_query", "serving.query"),
    Target("repro.serving.server", "HitlistServer", "prefix_query", "serving.query"),
    Target("repro.serving.server", "HitlistServer", "as_query", "serving.query"),
    # repro.experiments: each module run_all executes.
    *(
        Target(f"repro.experiments.{module}", None, "run", f"experiments.{experiment_id}")
        for experiment_id, module in EXPERIMENT_MODULES
    ),
)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapper installation ------------------------------------------------

    def _wrap(self, func: Callable, target: Target) -> Callable:
        name = target.span
        counts = self.counts
        if target.count_only:

            @functools.wraps(func)
            def count(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return count

        spans = self.spans
        stack = self._stack
        work = target.counts
        clock = time.perf_counter

        @functools.wraps(func)
        def span(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return span

    def install(self) -> None:
        """Swap a wrapper onto every target (no-op if already installed)."""
        if self._saved:
            return
        for target in self.targets:
            holder = target.resolve()
            if target.attr not in vars(holder):
                raise AttributeError(
                    f"{target.module}.{target.owner or ''}.{target.attr} is not defined "
                    "on its owner; wrap the class that defines it"
                )
            original = vars(holder)[target.attr]
            if isinstance(original, classmethod):
                wrapped: object = classmethod(self._wrap(original.__func__, target))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, target))
            else:
                wrapped = self._wrap(original, target)
            self._saved.append((holder, target.attr, original))
            setattr(holder, target.attr, wrapped)

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse install order."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is running")
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        result.append(end - start - covered)
    return result


@dataclass
class LayerTotals:
    """Per-span-name aggregates of one traced phase."""

    self_s: Counter[str]
    total_s: Counter[str]
    calls: Counter[str]
    top_level_s: float

    @classmethod
    def of(cls, spans: Sequence[Span]) -> "LayerTotals":
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        top = 0.0
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
            if parent < 0:
                top += end - start
        return cls(self_s=self_s, total_s=total_s, calls=calls, top_level_s=top)
