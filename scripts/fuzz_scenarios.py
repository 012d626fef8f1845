#!/usr/bin/env python3
"""Drive the cross-engine differential oracle over randomized scenarios.

Samples an anomaly mix and perturbations of the registered scenario presets
(the same shared knob bounds the hypothesis harness in
``tests/fuzz/test_differential.py`` explores -- see
``repro.scenarios.FUZZ_KNOB_RANGES``), builds an Internet per sample, and
checks exact batch-vs-reference parity for all four engine pairs.  Prints
one line per sample and a final summary; exits non-zero when any sample
fails, printing the failing configuration and a runnable reproduction
snippet.

Run with::

    PYTHONPATH=src python scripts/fuzz_scenarios.py --examples 3
    PYTHONPATH=src python scripts/fuzz_scenarios.py --presets cdn-heavy high-churn
    PYTHONPATH=src python scripts/fuzz_scenarios.py --pairs apd service --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.scenarios import (
    ANOMALY_MIXES,
    ENGINE_PAIRS,
    FUZZ_KNOB_RANGES,
    get_scenario,
    run_differential,
    scenario_names,
)


def sample_overrides(rng: random.Random) -> dict:
    """One random draw of every fuzzable knob (shared bounds; bools stay
    bools, ints stay ints)."""
    overrides = {}
    for name, (low, high) in FUZZ_KNOB_RANGES.items():
        if isinstance(low, bool):
            overrides[name] = rng.random() < 0.5
        elif isinstance(low, int) and isinstance(high, int):
            overrides[name] = rng.randint(low, high)
        else:
            overrides[name] = rng.uniform(low, high)
    return overrides


def reproduction_snippet(report, days: int) -> str:
    """A runnable snippet rebuilding exactly this failing configuration.

    The resolved knob map fully determines the derived configs, so replaying
    it as one ad-hoc layer reproduces the run without the original preset.
    """
    return (
        "reproduce with:  PYTHONPATH=src python -c \"from repro.scenarios import "
        "Scenario, run_differential; print(run_differential(Scenario('repro', '')"
        f".with_overrides('knobs', {report.knobs!r}), seed={report.seed}, "
        f"days={days}).summary())\""
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--presets",
        nargs="*",
        default=None,
        choices=scenario_names(),
        help="presets to fuzz (default: all registered)",
    )
    parser.add_argument(
        "--examples", type=int, default=2, help="random perturbations per preset"
    )
    parser.add_argument("--seed", type=int, default=2018, help="master sampling seed")
    parser.add_argument(
        "--days", type=int, default=2, help="service days per differential run"
    )
    parser.add_argument(
        "--scale", default="tiny", help="scale tier composed under each sample"
    )
    parser.add_argument(
        "--pairs",
        nargs="+",
        default=list(ENGINE_PAIRS),
        choices=ENGINE_PAIRS,
        help="engine pairs to check (default: all four)",
    )
    args = parser.parse_args(argv)
    if args.days < 1:
        parser.error("--days must be >= 1")
    if args.examples < 1:
        parser.error("--examples must be >= 1")

    rng = random.Random(args.seed)
    presets = args.presets or scenario_names()
    failures = []
    total = 0
    started = time.time()
    for preset in presets:
        for example in range(args.examples):
            mix = rng.choice(sorted(ANOMALY_MIXES))
            overrides = sample_overrides(rng)
            seed = rng.randrange(2**16)
            scenario = get_scenario(
                preset, scale=args.scale, anomalies=mix
            ).with_overrides("fuzz", overrides)
            t0 = time.time()
            report = run_differential(
                scenario, seed=seed, days=args.days, pairs=args.pairs
            )
            total += 1
            status = "ok  " if report.ok else "FAIL"
            print(
                f"[{status}] {preset} ({mix}) example {example} seed={seed} "
                f"({time.time() - t0:.1f}s)"
            )
            if not report.ok:
                failures.append(report)
                print(report.summary())
                print(reproduction_snippet(report, args.days))
    elapsed = time.time() - started
    print(
        f"\n{total - len(failures)}/{total} differential runs clean over "
        f"{len(presets)} presets in {elapsed:.1f}s "
        f"(pairs: {', '.join(args.pairs)})"
    )
    if failures:
        print("\nfailing configurations:")
        for report in failures:
            print(report.summary())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
