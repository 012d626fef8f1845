"""Tests for scripts/check_bench_regression.py (the CI benchmark gate).

The gate compares the newest BENCH_*.json history record against the
trailing median of the prior records on every higher-is-better metric
(``speedup``, ``*_per_sec``); these tests pin the pass/fail boundary, the
minimum-history arming rule, and the exit-code contract on synthetic
histories so the checked-in benchmark files never influence the outcome.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", REPO_ROOT / "scripts" / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def write_history(tmp_path, name, records):
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps({"benchmark": name, "history": records}))
    return path


def record(**metrics):
    return {"timestamp": "2026-01-01T00:00:00", "git_sha": "abc1234", **metrics}


def test_steady_history_passes(tmp_path):
    path = write_history(
        tmp_path,
        "steady",
        [record(speedup=10.0), record(speedup=11.0), record(speedup=10.5)],
    )
    assert gate.main([str(path)]) == 0


def test_large_drop_fails(tmp_path):
    # Trailing median 10.0; the newest 6.0 is a 40% drop (> 30% threshold).
    path = write_history(
        tmp_path,
        "regressed",
        [record(speedup=10.0), record(speedup=10.0), record(speedup=6.0)],
    )
    assert gate.main([str(path)]) == 1


def test_drop_inside_threshold_passes(tmp_path):
    # 25% below the trailing median: inside the default 30% allowance.
    path = write_history(
        tmp_path,
        "noisy",
        [record(speedup=10.0), record(speedup=10.0), record(speedup=7.5)],
    )
    assert gate.main([str(path)]) == 0


def test_boundary_is_strict(tmp_path):
    # Exactly the floor (30% drop) still passes; the gate fires strictly below.
    path = write_history(
        tmp_path,
        "edge",
        [record(speedup=10.0), record(speedup=10.0), record(speedup=7.0)],
    )
    assert gate.main([str(path)]) == 0


def test_per_sec_metrics_are_gated(tmp_path):
    path = write_history(
        tmp_path,
        "throughput",
        [
            record(point_queries_per_sec=1000.0),
            record(point_queries_per_sec=1000.0),
            record(point_queries_per_sec=100.0),
        ],
    )
    assert gate.main([str(path)]) == 1


def test_lower_is_better_metrics_are_ignored(tmp_path):
    # Latency rising 10x must not trip a gate built for higher-is-better.
    path = write_history(
        tmp_path,
        "latency",
        [
            record(speedup=10.0, p99_latency_us=5.0),
            record(speedup=10.0, p99_latency_us=5.0),
            record(speedup=10.0, p99_latency_us=50.0),
        ],
    )
    assert gate.main([str(path)]) == 0


def test_short_history_is_skipped_not_failed(tmp_path):
    path = write_history(
        tmp_path, "young", [record(speedup=10.0), record(speedup=1.0)]
    )
    assert gate.main([str(path)]) == 0


def test_median_absorbs_one_outlier_baseline(tmp_path):
    # One absurd historic record must not raise the bar: the median of
    # (10, 10, 10, 100) is 10, so a new 9.0 passes.
    path = write_history(
        tmp_path,
        "outlier",
        [
            record(speedup=10.0),
            record(speedup=10.0),
            record(speedup=100.0),
            record(speedup=10.0),
            record(speedup=9.0),
        ],
    )
    assert gate.main([str(path)]) == 0


def test_custom_threshold(tmp_path):
    path = write_history(
        tmp_path,
        "strict",
        [record(speedup=10.0), record(speedup=10.0), record(speedup=8.0)],
    )
    assert gate.main([str(path)]) == 0
    assert gate.main(["--threshold", "0.1", str(path)]) == 1


def test_malformed_history_is_usage_error(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{not json")
    assert gate.main([str(path)]) == 2
    path.write_text(json.dumps({"benchmark": "x"}))  # no history list
    assert gate.main([str(path)]) == 2


def test_gated_metrics_selection():
    metrics = gate.gated_metrics(
        {
            "speedup": 3.5,
            "addresses_per_sec": 100.0,
            "p99_latency_us": 9.0,
            "batch_seconds": 1.2,
            "git_sha": "abc",
            "prefixes": 100,
            "ok": True,
        }
    )
    assert metrics == {"speedup": 3.5, "addresses_per_sec": 100.0}


def test_checked_in_histories_are_well_formed(tmp_path, monkeypatch):
    """A history the benchmark writer produces parses into the gated shape.

    ``.gitignore`` keeps ``BENCH_*.json`` out of the repository, so the test
    writes its own history with ``write_bench_json`` instead of reading
    whatever stray histories a working tree holds.
    """
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    spec = importlib.util.spec_from_file_location(
        "repro_bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.write_bench_json("demo", {"speedup": 5.0, "addresses_per_sec": 1000.0})
    paths = sorted(tmp_path.glob("BENCH_*.json"))
    assert paths, "expected the written benchmark history"
    for path in paths:
        name, history = gate.load_history(path)
        assert name and history
        assert gate.gated_metrics(history[-1]), f"{path} has no gated metrics"


def test_threshold_validation():
    with pytest.raises(SystemExit):
        gate.main(["--threshold", "1.5"])
    with pytest.raises(SystemExit):
        gate.main(["--min-history", "1"])
