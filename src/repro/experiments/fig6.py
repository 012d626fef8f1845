"""Figure 6: ICMP responses per BGP prefix after de-aliasing.

A zesplot of all announced prefixes coloured by the number of (non-aliased)
ICMP echo responses.  The paper's observations: most prefixes that contained
hitlist input also yield responses (the response plot looks like the input
plot of Figure 1c with a smaller colour range), responses spread over
thousands of prefixes and ASes, and a few prefixes contribute very large
response counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.addr.batch import AddressBatch
from repro.core.bias import bgp_prefix_counts, coverage_stats
from repro.experiments.context import ExperimentContext
from repro.netmodel.services import Protocol
from repro.plotting.zesplot import ZesplotLayout, zesplot_layout


@dataclass(slots=True)
class Fig6Result:
    """Response-per-prefix zesplot plus coverage statistics."""

    zesplot: ZesplotLayout
    responsive_addresses: int
    covered_prefixes: int
    covered_ases: int
    announced_prefixes: int
    input_covered_prefixes: int

    @property
    def response_prefix_share(self) -> float:
        """Share of announced prefixes with at least one responsive address."""
        if not self.announced_prefixes:
            return 0.0
        return self.covered_prefixes / self.announced_prefixes

    @property
    def responses_track_input(self) -> float:
        """Share of input-covered prefixes that also yield responses."""
        if not self.input_covered_prefixes:
            return 0.0
        return self.covered_prefixes / self.input_covered_prefixes


def run(ctx: ExperimentContext) -> Fig6Result:
    """Lay out ICMP responders (non-aliased targets) over BGP prefixes."""
    responders = AddressBatch.from_addresses(ctx.responsive_on(Protocol.ICMP))
    counts = bgp_prefix_counts(responders, ctx.internet)
    input_counts = bgp_prefix_counts(ctx.hitlist.address_batch, ctx.internet)
    stats = coverage_stats(responders, ctx.internet)
    layout = zesplot_layout(
        ctx.internet.bgp.prefixes,
        values={p: float(c) for p, c in counts.items()},
        asn_of=ctx.bgp_origin_map(),
        sized=False,
    )
    return Fig6Result(
        zesplot=layout,
        responsive_addresses=len(responders),
        covered_prefixes=stats.num_prefixes,
        covered_ases=stats.num_ases,
        announced_prefixes=len(ctx.internet.bgp),
        input_covered_prefixes=len(input_counts),
    )


def format_table(result: Fig6Result) -> str:
    """Summarise the response coverage."""
    return "\n".join(
        [
            f"ICMP-responsive (non-aliased) addresses: {result.responsive_addresses:,}",
            f"prefixes with responses:                 {result.covered_prefixes:,} of "
            f"{result.announced_prefixes:,} announced ({result.response_prefix_share:.1%})",
            f"ASes with responses:                     {result.covered_ases:,}",
            f"input prefixes also seen responding:     {result.responses_track_input:.1%}",
        ]
    )
