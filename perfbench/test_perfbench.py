"""Tests of the benchmark itself, at the ``tiny`` scale tier (seconds each)."""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.harness import END_TO_END, PER_LAYER, run_workload
from perfbench.hostspeed import KERNEL_REF_S, SpeedMeter
from perfbench.run import WORKLOAD_NAMES
from perfbench.tracing import EXPERIMENT_MODULES, TARGETS, LayerTotals, self_times
from perfbench.workloads import WORKLOADS, experiment_groups, load_oracle

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_passes(monkeypatch):
    """Shrink the passes: fewer days and queries, only experiments that run at tiny."""
    from repro.experiments.runner import run_all

    groups = [["table1"], ["table2"], ["table3"]]
    monkeypatch.setattr(workloads, "QUERIES_PER_PASS", 2_000)
    monkeypatch.setattr(workloads, "STEADY_DAYS", 10)
    monkeypatch.setattr(workloads, "experiment_groups", lambda: groups)
    monkeypatch.setattr(
        workloads, "run_all", lambda ctx: run_all(ctx, experiment_ids=sum(groups, []))
    )


def tiny(name: str, trace: bool, tmp_path: Path) -> dict:
    return run_workload(
        name, seed=7, seconds=0.01, trace=trace, scale="tiny", setups=1, trace_dir=tmp_path
    )


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert WORKLOAD_NAMES == tuple(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = tiny(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_restores_the_program(name, tmp_path):
    holders = [(target.resolve(), target.attr) for target in TARGETS]
    before = [vars(holder)[attr] for holder, attr in holders]
    result = tiny(name, True, tmp_path)
    assert [vars(holder)[attr] for holder, attr in holders] == before
    assert all(a is b for a, b in zip((vars(h)[a] for h, a in holders), before))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["trace.unaccounted_share"]["value"] < 0.05
    assert (tmp_path / f"{name}-seed7.json.gz").exists()


def test_planted_wrong_answer_counts_as_a_failed_operation(monkeypatch, tmp_path):
    from repro.serving.snapshot import HitlistSnapshot

    honest = HitlistSnapshot.point_query

    def lying(self, address):
        answer = honest(self, address)
        return type(answer)(**{**vars(answer), "in_hitlist": not answer.in_hitlist})

    monkeypatch.setattr(HitlistSnapshot, "point_query", lying)
    result = tiny("query-mix", False, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_oracle_mismatch_fails_every_experiment():
    from perfbench.workloads import PassOutput, ReproduceState, reproduce_check

    groups = workloads.experiment_groups()
    reports = {eid: "report" for group in groups for eid in group}
    state = ReproduceState(ctx=None, oracle={eid: "other" for eid in reports})
    assert reproduce_check(state, PassOutput([], reports)) == (len(groups), len(groups))
    state.oracle = dict(reports)
    assert reproduce_check(state, PassOutput([], reports)) == (len(groups), 0)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 6.0, 0),
        ("e", 5.5, 7.0, 0),  # overlaps its sibling d: covered once
        ("f", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5, 1.0])
    totals = LayerTotals.of(spans)
    assert totals.top_level_s == pytest.approx(11.0)
    assert totals.self_s["a"] == pytest.approx(5.0)
    assert totals.calls["a"] == 1


def test_reference_seconds_divide_work_by_the_slowdown_and_skip_the_kernel():
    meter = SpeedMeter()
    kernel_s = 2 * KERNEL_REF_S  # every sample reads a host twice as slow
    meter.samples = [(1.0, 1.0 + kernel_s), (2.0, 2.0 + kernel_s)]
    meter._started, meter._stopped = 0.5, 3.0
    assert meter.slowdowns() == pytest.approx([2.0, 2.0])
    assert meter.reference_s(0.5, 3.0) == pytest.approx((2.5 - 2 * kernel_s) / 2)
    assert meter.reference_s([0.5, 1.5], [1.0, 2.5]) == pytest.approx([0.25, (1 - kernel_s) / 2])


def test_speed_meter_samples_while_running_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() < start + 0.1:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 4
    assert meter.reference_s(start, end) > 0


def test_experiment_spans_cover_every_module_run_all_runs():
    assert [group[0] for group in experiment_groups()] == [eid for eid, _ in EXPERIMENT_MODULES]


def test_oracle_holds_every_committed_report():
    assert set(load_oracle()) == {eid for group in experiment_groups() for eid in group}
