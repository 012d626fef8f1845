"""Shared fixtures for the benchmark harness.

All per-table/figure benchmarks share one :class:`ExperimentContext` at the
default experiment scale, so the expensive pipeline steps (Internet build,
source assembly, APD, day-0 sweep) run once per session.  Each benchmark then
measures its experiment's analysis step with a single pedantic round -- the
point is regenerating the paper's numbers, not micro-timing.

``--repro-scenario NAME`` swaps the context's configuration for a scenario
preset from :mod:`repro.scenarios` (composed with the default scale tier), so
every ``ctx``-based benchmark can be re-run under e.g. ``cdn-heavy`` or
``high-churn`` without code changes.  (The engine-speedup benchmarks that
build their own module-level Internets are unaffected by the flag.)

Speedup benchmarks additionally publish machine-readable results: one
``BENCH_<name>.json`` per benchmark (via :func:`write_bench_json`), written
to ``$REPRO_BENCH_DIR`` (default: the working directory).  Each file carries
an append-only ``history`` list -- one record per run, stamped with commit
and timestamp -- so the performance trajectory accumulates run over run; CI
uploads the files as artifacts.
"""

import datetime
import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

from repro.experiments.context import DEFAULT_EXPERIMENT_CONFIG, ExperimentContext
from repro.scenarios import get_scenario, scenario_names


def pytest_addoption(parser):
    parser.addoption(
        "--repro-hitlist-target",
        action="store",
        default=None,
        type=int,
        help="Override the hitlist input size used by the benchmark context.",
    )
    parser.addoption(
        "--repro-scenario",
        action="store",
        default=None,
        help=(
            "Run the benchmark context inside a named scenario preset "
            f"(one of: {', '.join(scenario_names())})."
        ),
    )


@pytest.fixture(scope="session")
def ctx(request) -> ExperimentContext:
    """The shared experiment context (default scale or a scenario preset)."""
    scenario = request.config.getoption("--repro-scenario")
    if scenario:
        config = get_scenario(scenario).experiment_config()
    else:
        config = DEFAULT_EXPERIMENT_CONFIG
    override = request.config.getoption("--repro-hitlist-target")
    if override:
        from dataclasses import replace

        config = replace(config, hitlist_target=override)
    context = ExperimentContext(config)
    # Materialise the shared artefacts once, outside any benchmark timing.
    _ = context.hitlist
    _ = context.apd_result
    _ = context.day0_scan
    return context


def run_once(benchmark, func):
    """Run *func* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, iterations=1, rounds=1)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _load_history(path: Path, name: str) -> list:
    """Existing run records of one benchmark (tolerating the legacy format).

    Early versions wrote a single flat record per file and overwrote it on
    every run; such a record is migrated into the first history entry so the
    trajectory keeps whatever single point survived.
    """
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if isinstance(existing, dict):
        history = existing.get("history")
        if isinstance(history, list):
            return history
        if existing.get("benchmark") == name:  # legacy single-record file
            return [{k: v for k, v in existing.items() if k != "benchmark"}]
    return []


def write_bench_json(name: str, payload: dict) -> Path:
    """Append one benchmark run to ``BENCH_<name>.json``.

    ``payload`` should carry at least the measured throughput
    (``addresses_per_sec`` or similar) and ``speedup``.  The file holds an
    append-only ``history`` list of run records -- each stamped with git SHA,
    UTC timestamp and environment metadata -- so repeated runs accumulate a
    performance trajectory instead of clobbering the previous record.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **payload,
    }
    record = {"benchmark": name, "history": _load_history(path, name) + [entry]}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
