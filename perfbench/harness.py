"""Run one workload and turn its timings into the benchmark's metrics.

An untraced run (``trace=False``) sets the workload up :data:`SETUPS` times,
keeps the last set-up and measures whole passes until ``seconds`` of pass
wall time are used up (at least one pass, and no pass that would overrun;
one pass for a workload whose pass uses up its set-up), then reports the
end-to-end metrics.

Every set-up and pass runs under a :class:`~perfbench.hostspeed.SpeedMeter`,
and every reported time is in reference-speed seconds: wall time divided by
the host's slowdown measured alongside it (see :mod:`perfbench.hostspeed`).
The raw wall time of a pass and the host's slowdown are per-layer metrics.

A traced run sets up with the span wrappers installed and follows each
untraced pass with a traced one (a workload whose pass uses up its set-up
gets a second, traced set-up for its one traced pass).  It reports the
per-layer metrics of the traced passes, divided by their count, and the
tracing overhead.  The spans are written to ``perfbench/traces/``.
"""

from __future__ import annotations

import gc
import gzip
import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.hostspeed import SpeedMeter
from perfbench.tracing import EXPERIMENT_MODULES, LayerTotals, Tracer
from perfbench.workloads import WORKLOADS, PassOutput, Workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer span metrics: metric -> (span name, statistic).  Self time
#: unless the statistic says otherwise; all per measured pass.
SPAN_METRICS = {
    "netmodel.build_s": ("netmodel.build", "self"),
    "netmodel.probe_batch_s": ("netmodel.probe_batch", "self"),
    "netmodel.probe_batch_rows": ("netmodel.probe_batch.rows", "count"),
    "netmodel.host_online_evals": ("netmodel.host_online", "count"),
    "netmodel.probe_s": ("netmodel.probe", "self"),
    "netmodel.probe_calls": ("netmodel.probe", "calls"),
    "addr.lpm_build_s": ("addr.lpm_build", "self"),
    "addr.lpm_builds": ("addr.lpm_build", "calls"),
    "addr.lpm_lookup_s": ("addr.lpm_lookup", "self"),
    "addr.lpm_lookup_rows": ("addr.lpm_lookup.rows", "count"),
    "core.hitlist.run_day_self_s": ("core.hitlist.run_day", "self"),
    "core.hitlist.merge_s": ("core.hitlist.merge", "self"),
    "core.hitlist.merged_rows": ("core.hitlist.merge.rows", "count"),
    "core.apd.candidates_s": ("core.apd.candidates", "self"),
    "core.apd.probe_prefixes_s": ("core.apd.probe_prefixes", "self"),
    "core.apd.prefixes_probed": ("core.apd.probe_prefixes.rows", "count"),
    "core.clustering.fingerprint_s": ("core.clustering.fingerprint", "self"),
    "core.clustering.cluster_s": ("core.clustering.cluster", "self"),
    "core.sliding_window.sweep_s": ("core.sliding_window.sweep", "self"),
    "core.apd_murdock.run_s": ("core.apd_murdock.run", "self"),
    "probing.sweep_s": ("probing.sweep", "self"),
    "probing.sweep_targets": ("probing.sweep.rows", "count"),
    "probing.sweep_batch_s": ("probing.sweep_batch", "self"),
    "probing.sweep_batch_targets": ("probing.sweep_batch.rows", "count"),
    "probing.fingerprint_s": ("probing.fingerprint", "self"),
    "genaddr.pipeline_self_s": ("genaddr.pipeline", "self"),
    "genaddr.entropy_ip_s": ("genaddr.entropy_ip", "self"),
    "genaddr.sixgen_s": ("genaddr.sixgen", "self"),
    "genaddr.candidates": ("genaddr.pipeline.candidates", "count"),
    "serving.publish_self_s": ("serving.publish", "self"),
    "serving.snapshot_build_s": ("serving.snapshot_build", "self"),
    "serving.query_self_s": ("serving.query", "self"),
    **{
        f"experiments.{experiment_id}_s": (f"experiments.{experiment_id}", "total")
        for experiment_id, _ in EXPERIMENT_MODULES
    },
}

#: Query kind -> per-layer latency metric stem (from the untraced passes).
QUERY_KINDS = {"hit": "point_hit", "miss": "point_miss", "prefix": "prefix", "as": "as"}

#: Every per-layer metric -> unit (``--trace 1``).
PER_LAYER = {
    "setup.netmodel.build_s": "s",
    "setup.sources.assemble_s": "s",
    **{name: ("s" if name.endswith("_s") else "count") for name in SPAN_METRICS},
    "core.apd.candidate_prefixes": "count",
    "core.apd.reprobe_share": "share",
    "genaddr.candidates_per_s": "1/s",
    "genaddr.responsive_share": "share",
    **{
        f"serving.{stem}_us_{q}": "us"
        for stem in QUERY_KINDS.values()
        for q in ("p50", "p99")
    },
    "wall.pass_s": "s",
    "host.slowdown": "x",
    "trace.spans": "count",
    "trace.unaccounted_share": "share",
    "trace.overhead": "share",
}


@dataclass
class Measurement:
    """The passes of one measured phase.

    Times are in reference-speed seconds, except ``wall_s``; ``slowdown``
    is the host's median slowdown during each pass.
    """

    pass_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    slowdown: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0

    def record(self, meter: SpeedMeter, start: float, end: float, output: PassOutput) -> None:
        """Convert one pass's wall intervals with the meter that timed it."""
        self.pass_s.append(float(meter.reference_s(start, end)))
        self.wall_s.append(end - start)
        self.slowdown.append(float(np.median(meter.slowdowns())))
        self.op_s.extend(reference_s(meter, output.ops))
        for kind, intervals in output.by_kind.items():
            self.by_kind.setdefault(kind, []).extend(reference_s(meter, intervals))
        self.counts.update(output.counts)


def reference_s(meter: SpeedMeter, intervals: list[tuple[float, float]]) -> list[float]:
    if not intervals:
        return []
    starts, ends = np.array(intervals).T
    return meter.reference_s(starts, ends).tolist()


def timed_setup(workload: Workload, seed: int, scale: str) -> tuple[object, float]:
    """Set the workload up once; returns the state and its reference seconds."""
    with SpeedMeter() as meter:
        start = time.perf_counter()
        state = workload.setup(seed, scale)
        end = time.perf_counter()
    return state, float(meter.reference_s(start, end))


def timed_pass(
    workload: Workload, state: object, into: Measurement, tracer: Tracer | None = None
) -> None:
    """Time one pass (traced if *tracer* is given), then check its outputs.

    The checks run outside the timed region with the wrappers removed; only
    the pass's times and counts are kept.
    """
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        with SpeedMeter() as meter:
            start = time.perf_counter()
            output = workload.run_pass(state)
            end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = workload.check(state, output)
    into.attempted += attempted
    into.failed += failed
    into.record(meter, start, end, output)


def measure(
    workload: Workload, state: object, seconds: float, tracer: Tracer | None = None
) -> tuple[Measurement, Measurement]:
    """Untraced passes until *seconds* are used up, each followed by a traced
    one when *tracer* is given (interleaving cancels slow drift).

    A workload that does not repeat measures exactly one pass.
    """
    untraced, traced = Measurement(), Measurement()
    while True:
        timed_pass(workload, state, untraced)
        if tracer is not None:
            timed_pass(workload, state, traced, tracer)
        if not workload.repeats or sum(untraced.wall_s) + untraced.wall_s[-1] > seconds:
            return untraced, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def query_latency_metrics(measurement: Measurement) -> dict[str, float]:
    """Per-kind read-side latency percentiles (µs) of untraced passes."""
    metrics = {}
    for kind, stem in QUERY_KINDS.items():
        samples = measurement.by_kind.get(kind, [])
        for q in (50, 99):
            value = float(np.percentile(samples, q)) * 1e6 if samples else 0.0
            metrics[f"serving.{stem}_us_p{q}"] = value
    return metrics


def layer_metrics(
    setup_totals: LayerTotals,
    totals: LayerTotals,
    counts,
    passes: int,
    traced_s: float,
    overhead: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced phase, per pass."""
    metrics = {
        "setup.netmodel.build_s": setup_totals.total_s["netmodel.build"],
        "setup.sources.assemble_s": setup_totals.total_s["sources.assemble"],
    }
    for metric, (name, statistic) in SPAN_METRICS.items():
        if statistic == "self":
            value = totals.self_s[name]
        elif statistic == "total":
            value = totals.total_s[name]
        elif statistic == "calls":
            value = totals.calls[name]
        else:
            value = counts[name]
        metrics[metric] = value / passes
    probed = counts["core.apd.probe_prefixes.rows"]
    candidates = counts["core.apd.candidates.rows"] + counts["core.apd.verdicts_served"]
    generated = counts["genaddr.pipeline.candidates"]
    pipeline_s = totals.total_s["genaddr.pipeline"]
    metrics.update(
        {
            "core.apd.candidate_prefixes": candidates / passes,
            "core.apd.reprobe_share": probed / candidates if candidates else 0.0,
            "genaddr.candidates_per_s": generated / pipeline_s if pipeline_s else 0.0,
            "genaddr.responsive_share": (
                counts["genaddr.pipeline.responsive"] / generated if generated else 0.0
            ),
            "trace.spans": sum(totals.calls.values()) / passes,
            "trace.unaccounted_share": 1.0 - totals.top_level_s / traced_s,
            "trace.overhead": overhead,
        }
    )
    return metrics


def _write_spans(path: Path, phases: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        json.dump(phases, out)


def _result(measurement: Measurement, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_untraced(
    workload: Workload, seed: int, seconds: float, scale: str, setups: int
) -> dict:
    setup_s = []
    state = None
    for _ in range(setups):
        state = None  # release the previous set-up before timing the next
        gc.collect()
        state, elapsed = timed_setup(workload, seed, scale)
        setup_s.append(elapsed)
    measurement, _ = measure(workload, state, seconds)
    metrics = {
        "setup_s": float(np.median(setup_s)),
        "pass_s": float(np.median(measurement.pass_s)),
        "op_ms_p50": percentile_ms(measurement.op_s, 50),
        "op_ms_p95": percentile_ms(measurement.op_s, 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    return _result(measurement, metrics, END_TO_END)


def run_traced(
    workload: Workload, seed: int, seconds: float, scale: str, trace_dir: Path | None
) -> dict:
    tracer = Tracer()
    if workload.repeats:
        with tracer.installed():
            state = workload.setup(seed, scale)
        setup_spans, _ = tracer.take()
        untraced, traced = measure(workload, state, seconds, tracer)
    else:
        # One cold world for the untraced pass, another for the traced one.
        untraced, _ = measure(workload, workload.setup(seed, scale), seconds)
        gc.collect()
        with tracer.installed():
            state = workload.setup(seed, scale)
        setup_spans, _ = tracer.take()
        traced = Measurement()
        timed_pass(workload, state, traced, tracer)
    spans, counts = tracer.take()
    counts.update(traced.counts)
    metrics = layer_metrics(
        LayerTotals.of(setup_spans),
        LayerTotals.of(spans),
        counts,
        passes=len(traced.pass_s),
        traced_s=sum(traced.wall_s),
        overhead=float(np.median(traced.pass_s) / np.median(untraced.pass_s)) - 1.0,
    )
    metrics.update(query_latency_metrics(untraced))
    metrics["wall.pass_s"] = float(np.median(untraced.wall_s))
    metrics["host.slowdown"] = float(np.median(untraced.slowdown))
    if trace_dir is not None:
        _write_spans(
            trace_dir / f"{workload.name}-seed{seed}.json.gz",
            {"setup": setup_spans, "measured": spans, "counts": dict(counts)},
        )
    combined = Measurement(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
    )
    return _result(combined, metrics, PER_LAYER)


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "default",
    setups: int = SETUPS,
    trace_dir: Path | None = TRACE_DIR,
) -> dict:
    """Run one workload and return the result object the runner prints."""
    workload = WORKLOADS[name]
    if trace:
        return run_traced(workload, seed, seconds, scale, trace_dir)
    return run_untraced(workload, seed, seconds, scale, setups)
