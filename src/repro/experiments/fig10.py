"""Figure 10 and Table 8: rDNS as a data source.

Section 8 evaluates addresses obtained by walking the ip6.arpa tree:

* almost all rDNS addresses are new relative to the hitlist (11.1 M of 11.7 M);
* the AS/prefix distribution of rDNS addresses is at least as balanced as the
  hitlist's (Figure 10), so adding them does not bias the hitlist;
* rDNS addresses respond slightly better to ICMP and slightly worse to
  HTTP(S) than the hitlist (the population is server/infrastructure heavy);
* Table 8 -- the top responding ASes are hosting/service providers, and the
  responding population shows few SLAAC addresses and low IID hamming weights
  (i.e. not clients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.addr.batch import AddressBatch
from repro.analysis.comparison import OverlapStats, overlap_stats
from repro.core.bias import as_distribution, group_counts, prefix_distribution
from repro.experiments.context import ExperimentContext
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.sources.rdns import RDNSSource


@dataclass(slots=True)
class Fig10Result:
    """rDNS input/response characteristics vs the hitlist."""

    overlap: OverlapStats
    hitlist_as_curve: list[float]
    hitlist_prefix_curve: list[float]
    rdns_as_curve: list[float]
    rdns_prefix_curve: list[float]
    rdns_response_rates: Mapping[Protocol, float]
    hitlist_response_rates: Mapping[Protocol, float]
    top_input_ases: list[tuple[str, float]]
    top_icmp_ases: list[tuple[str, float]]
    top_tcp80_ases: list[tuple[str, float]]
    rdns_slaac_share: float
    rdns_low_hamming_share: float
    unrouted_filtered: int

    @property
    def mostly_new(self) -> bool:
        return self.overlap.share_new_in_b > 0.7

    @property
    def rdns_no_more_concentrated(self) -> bool:
        """Adding rDNS would not worsen AS-level bias."""
        if not self.rdns_as_curve or not self.hitlist_as_curve:
            return False
        return self.rdns_as_curve[0] <= self.hitlist_as_curve[0] + 0.05

    @property
    def rdns_is_server_population(self) -> bool:
        return self.rdns_slaac_share < 0.25 and self.rdns_low_hamming_share > 0.4


def run(ctx: ExperimentContext, rdns_scale: float = 0.4) -> Fig10Result:
    """Build the rDNS source, probe it, and compare against the hitlist."""
    target_size = max(200, int(ctx.config.hitlist_target * rdns_scale))
    rdns = RDNSSource(ctx.internet, target_size=target_size, seed=ctx.config.seed ^ 0xD45, runup_days=ctx.config.runup_days)
    rdns_all = list(rdns.snapshot())
    rdns_routed = rdns.routed_snapshot()
    routed_batch = AddressBatch.from_addresses(rdns_routed)
    # Filter addresses in aliased prefixes, as the paper does before probing.
    targets = routed_batch.take(~ctx.apd_result.is_aliased_batch(routed_batch))

    scan = ctx.scan(targets, 0, seed=ctx.config.seed ^ 0xD46)

    def response_rates(day_scan):
        n = len(day_scan.targets)
        return {p: (day_scan.count_responsive(p) / n if n else 0.0) for p in ALL_PROTOCOLS}

    def top_ases(addresses, limit=5):
        counts = group_counts(addresses, ctx.internet.asn_of)
        total = sum(counts.values()) or 1
        return [
            (ctx.internet.registry.name_of(asn), count / total)
            for asn, count in counts.most_common(limit)
        ]

    icmp_responders = sorted(scan.responsive_on(Protocol.ICMP), key=lambda a: a.value)
    tcp80_responders = sorted(scan.responsive_on(Protocol.TCP80), key=lambda a: a.value)
    responders_any = scan.responsive_on()
    slaac_share = (
        sum(1 for a in responders_any if a.is_slaac_eui64) / len(responders_any)
        if responders_any
        else 0.0
    )
    low_hamming = (
        sum(1 for a in responders_any if a.iid_hamming_weight <= 6) / len(responders_any)
        if responders_any
        else 0.0
    )

    return Fig10Result(
        overlap=overlap_stats(ctx.hitlist.addresses, rdns_all),
        hitlist_as_curve=as_distribution(ctx.hitlist.address_batch, ctx.internet),
        hitlist_prefix_curve=prefix_distribution(ctx.hitlist.address_batch, ctx.internet),
        rdns_as_curve=as_distribution(routed_batch, ctx.internet),
        rdns_prefix_curve=prefix_distribution(routed_batch, ctx.internet),
        rdns_response_rates=response_rates(scan),
        hitlist_response_rates=response_rates(ctx.day0_scan),
        top_input_ases=top_ases(rdns_routed),
        top_icmp_ases=top_ases(icmp_responders),
        top_tcp80_ases=top_ases(tcp80_responders),
        rdns_slaac_share=slaac_share,
        rdns_low_hamming_share=low_hamming,
        unrouted_filtered=len(rdns_all) - len(rdns_routed),
    )


def format_table(result: Fig10Result) -> str:
    """Summarise Figure 10 and Table 8."""
    lines = [
        f"rDNS addresses: {result.overlap.size_b:,} "
        f"({result.overlap.share_new_in_b:.1%} new vs hitlist, "
        f"{result.unrouted_filtered:,} unrouted filtered)",
        f"top-AS share: hitlist {result.hitlist_as_curve[0]:.1%} vs rDNS {result.rdns_as_curve[0]:.1%}",
        "response rates (rDNS vs hitlist):",
    ]
    for protocol in ALL_PROTOCOLS:
        lines.append(
            f"  {protocol.value:<7} {result.rdns_response_rates.get(protocol, 0):6.1%} vs "
            f"{result.hitlist_response_rates.get(protocol, 0):6.1%}"
        )
    lines.append("Table 8 -- top rDNS ASes (input | ICMP | TCP/80):")
    for i in range(5):
        def cell(rows, idx):
            return f"{rows[idx][0]} {rows[idx][1]:.1%}" if idx < len(rows) else "-"

        lines.append(
            f"  {i + 1}: {cell(result.top_input_ases, i):<28} | "
            f"{cell(result.top_icmp_ases, i):<28} | {cell(result.top_tcp80_ases, i)}"
        )
    lines.append(
        f"responding rDNS population: SLAAC {result.rdns_slaac_share:.1%}, "
        f"IID hamming weight <= 6: {result.rdns_low_hamming_share:.1%}"
    )
    return "\n".join(lines)
