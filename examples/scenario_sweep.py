#!/usr/bin/env python3
"""Scenario sweep: Table 1 coverage and APD across three network environments.

Runs the hitlist pipeline (source assembly, Table 1 coverage stats, full
multi-level APD) inside three scenario presets -- the paper's baseline, a
CDN-dominated aliasing regime and a churn-heavy eyeball Internet -- and
prints the results side by side.  The point of the scenario layer in one
screen: the same pipeline, the same code paths, materially different
environments.

Run with:  PYTHONPATH=src python examples/scenario_sweep.py
"""

from repro.experiments import table1
from repro.scenarios import build, get_scenario

PRESETS = ("baseline", "cdn-heavy", "high-churn")

ROWS = (
    ("hitlist addresses", lambda m: f"{m['addresses']:,}"),
    ("covered BGP prefixes", lambda m: f"{m['prefixes']:,}"),
    ("covered ASes", lambda m: f"{m['ases']:,}"),
    ("APD probed prefixes", lambda m: f"{m['probed']:,}"),
    ("APD aliased prefixes", lambda m: f"{m['aliased']:,}"),
    ("aliased address share", lambda m: f"{m['aliased_share']:.1%}"),
    ("day-0 responsive", lambda m: f"{m['responsive']:,}"),
)


def measure(preset: str) -> dict:
    """Table 1 + APD numbers for one scenario preset at the test scale."""
    ctx = build("context", preset, scale="test")
    coverage = table1.run(ctx)
    aliased, clean = ctx.aliased_split
    total = len(ctx.hitlist.addresses)
    return {
        "addresses": coverage.this_work_addresses,
        "prefixes": coverage.this_work_prefixes,
        "ases": coverage.this_work_ases,
        "probed": len(ctx.apd_result.outcomes),
        "aliased": len(ctx.apd_result.aliased_prefixes),
        "aliased_share": len(aliased) / total if total else 0.0,
        "responsive": ctx.day0_scan.count_responsive(),
    }


def main() -> None:
    measured = {}
    for preset in PRESETS:
        scenario = get_scenario(preset)
        print(f"running {preset}: {scenario.description} ...")
        measured[preset] = measure(preset)

    width = max(len(label) for label, _ in ROWS)
    column = max(max(len(p) for p in PRESETS), 12)
    print(f"\n{'':<{width}}  " + "  ".join(f"{p:>{column}}" for p in PRESETS))
    for label, render in ROWS:
        cells = "  ".join(f"{render(measured[p]):>{column}}" for p in PRESETS)
        print(f"{label:<{width}}  {cells}")

    print(
        "\nReading: cdn-heavy concentrates far more addresses into aliased"
        "\nprefixes (APD removes more), while high-churn thins the responsive"
        "\nset without changing the aliasing structure."
    )


if __name__ == "__main__":
    main()
