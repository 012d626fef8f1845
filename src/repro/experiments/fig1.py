"""Figure 1: source run-up, per-source AS distribution, hitlist zesplot.

* Figure 1a -- cumulative number of addresses per source over the run-up
  period: every source grows strongly (factor 10-100), scamper the fastest.
* Figure 1b -- per-source "fraction of addresses in top X ASes" curves:
  domain lists and CT are extremely top-heavy, RIPE Atlas almost flat.
* Figure 1c -- zesplot of the hitlist mapped onto announced BGP prefixes:
  about half of all announced prefixes contain hitlist addresses and a few
  prefixes carry extremely large counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.bias import as_distribution, bgp_prefix_counts
from repro.experiments.context import ExperimentContext
from repro.plotting.zesplot import ZesplotLayout, zesplot_layout


@dataclass(slots=True)
class Fig1Result:
    """Run-up series, AS distribution curves and the zesplot layout."""

    runup_days: list[int]
    runup: Mapping[str, list[int]]
    as_curves: Mapping[str, list[float]]
    zesplot: ZesplotLayout
    announced_prefixes: int
    covered_prefixes: int

    @property
    def coverage_share(self) -> float:
        """Share of announced prefixes containing at least one hitlist address."""
        if not self.announced_prefixes:
            return 0.0
        return self.covered_prefixes / self.announced_prefixes

    def growth_factor(self, source: str) -> float:
        """End-of-runup count divided by the count at 20 % of the run-up."""
        series = self.runup[source]
        early = next((c for c in series if c > 0), 1)
        index_20 = max(1, len(series) // 5)
        early = max(1, series[index_20])
        return series[-1] / early


def run(ctx: ExperimentContext) -> Fig1Result:
    """Compute all three panels of Figure 1."""
    days = list(range(0, ctx.config.runup_days + 1, max(1, ctx.config.runup_days // 20)))
    runup = ctx.assembly.cumulative_runup(days)
    as_curves = {
        source.name: as_distribution(list(source.snapshot()), ctx.internet)
        for source in ctx.assembly.sources
    }
    counts = bgp_prefix_counts(ctx.hitlist.address_batch, ctx.internet)
    layout = zesplot_layout(
        ctx.internet.bgp.prefixes,
        values={p: float(c) for p, c in counts.items()},
        asn_of=ctx.bgp_origin_map(),
        sized=True,
    )
    return Fig1Result(
        runup_days=days,
        runup=runup,
        as_curves=as_curves,
        zesplot=layout,
        announced_prefixes=len(ctx.internet.bgp),
        covered_prefixes=len(counts),
    )


def format_table(result: Fig1Result) -> str:
    """Summarise the three panels textually."""
    lines = ["source        final count   growth(x)   top-1-AS share"]
    for name, series in result.runup.items():
        curve = result.as_curves.get(name, [])
        top1 = curve[0] if curve else 0.0
        lines.append(
            f"{name:<12} {series[-1]:>12,} {result.growth_factor(name):>10.1f} {top1:>15.1%}"
        )
    lines.append(
        f"zesplot: {result.covered_prefixes:,} of {result.announced_prefixes:,} announced "
        f"prefixes covered ({result.coverage_share:.1%})"
    )
    return "\n".join(lines)
