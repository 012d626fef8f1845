"""Figure 5: zesplots of ICMP responses with and without APD filtering.

Without aliased prefix detection, a zesplot of ICMP echo responses per prefix
is dominated by the brightly coloured aliased /48s of the large cloud
provider ("the hook"); the second panel shows that the detected aliased
prefixes are exactly those bright boxes, i.e. filtering them removes a large
share of the raw response volume while leaving the rest of the plot intact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addr.batch import AddressBatch
from repro.core.bias import bgp_prefix_counts
from repro.experiments.context import ExperimentContext
from repro.netmodel.services import Protocol
from repro.plotting.zesplot import ZesplotLayout, zesplot_layout


@dataclass(slots=True)
class Fig5Result:
    """Response-per-prefix layouts before filtering and for aliased prefixes."""

    unfiltered: ZesplotLayout
    aliased_only: ZesplotLayout
    total_prefixes: int
    aliased_prefix_count: int
    responses_unfiltered: int
    responses_in_aliased: int

    @property
    def aliased_prefix_share(self) -> float:
        """Share of plotted prefixes detected as aliased (paper: ~3 %)."""
        if not self.total_prefixes:
            return 0.0
        return self.aliased_prefix_count / self.total_prefixes

    @property
    def aliased_response_share(self) -> float:
        """Share of raw ICMP responses inside aliased prefixes (large)."""
        if not self.responses_unfiltered:
            return 0.0
        return self.responses_in_aliased / self.responses_unfiltered


def run(ctx: ExperimentContext) -> Fig5Result:
    """Scan the unfiltered hitlist on ICMP and lay out both panels."""
    # Probe the raw hitlist (no APD filtering) on ICMP only; the hitlist of a
    # paper-scale run would be too large, which is exactly the point of APD.
    scan = ctx.scan(
        ctx.hitlist.address_batch, 0, seed=ctx.config.seed ^ 0xF15, protocols=(Protocol.ICMP,)
    )
    responses = AddressBatch.from_addresses(scan.responsive_on(Protocol.ICMP))
    counts = bgp_prefix_counts(responses, ctx.internet)
    aliased = responses.take(ctx.apd_result.is_aliased_batch(responses))
    aliased_counts = bgp_prefix_counts(aliased, ctx.internet)
    aliased_total = sum(aliased_counts.values())

    origin = ctx.bgp_origin_map()
    prefixes = list(counts)
    unfiltered = zesplot_layout(prefixes, values={p: float(c) for p, c in counts.items()}, asn_of=origin, sized=False)
    aliased_only = zesplot_layout(
        list(aliased_counts),
        values={p: float(c) for p, c in aliased_counts.items()},
        asn_of=origin,
        sized=False,
    )
    return Fig5Result(
        unfiltered=unfiltered,
        aliased_only=aliased_only,
        total_prefixes=len(prefixes),
        aliased_prefix_count=len(aliased_counts),
        responses_unfiltered=len(responses),
        responses_in_aliased=aliased_total,
    )


def format_table(result: Fig5Result) -> str:
    """Summarise the two panels."""
    return "\n".join(
        [
            f"prefixes with ICMP responses:        {result.total_prefixes:,}",
            f"prefixes detected aliased:           {result.aliased_prefix_count:,} "
            f"({result.aliased_prefix_share:.1%})",
            f"ICMP responses (unfiltered):         {result.responses_unfiltered:,}",
            f"responses inside aliased prefixes:   {result.responses_in_aliased:,} "
            f"({result.aliased_response_share:.1%})",
        ]
    )
