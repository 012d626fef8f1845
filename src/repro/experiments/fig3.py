"""Figure 3: entropy clustering of DNS responders and cluster map over BGP.

* Figure 3a -- /32 prefixes restricted to addresses that answer UDP/53
  cluster into few, mostly low-entropy schemes: DNS server farms use counters,
  which is what makes probabilistic scanning for DNS servers easy.
* Figure 3b -- an unsized zesplot of BGP prefixes coloured by the entropy
  cluster of their addresses; neighbouring prefixes of the same AS tend to
  share a cluster (operators reuse addressing schemes across allocations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clustering import ClusteringResult, EntropyClustering
from repro.core.entropy import FULL_SPAN
from repro.experiments.context import ExperimentContext
from repro.netmodel.services import Protocol
from repro.plotting.zesplot import ZesplotLayout, zesplot_layout


@dataclass(slots=True)
class Fig3Result:
    """DNS-responder clustering plus the per-BGP-prefix cluster zesplot."""

    dns_clustering: ClusteringResult
    bgp_clustering: ClusteringResult
    zesplot: ZesplotLayout

    @property
    def dns_k(self) -> int:
        return self.dns_clustering.k

    @property
    def dns_clusters_are_low_entropy(self) -> bool:
        """Most DNS-responder clusters show low entropy on most nybbles."""
        low = 0
        for cluster in self.dns_clustering.clusters:
            profile = cluster.median_entropies
            if profile and sum(profile) / len(profile) < 0.4:
                low += 1
        return low >= max(1, len(self.dns_clustering.clusters) // 2)


def run(
    ctx: ExperimentContext,
    min_addresses_dns: int = 30,
    min_addresses_bgp: int = 100,
) -> Fig3Result:
    """Cluster DNS responders per /32 and all hitlist addresses per BGP prefix.

    The DNS-responder population is much smaller than the full hitlist, so
    the per-/32 minimum is lowered (the paper's 100-address minimum applies
    to its 50 M-address hitlist).
    """

    def clustering(min_addresses: int) -> EntropyClustering:
        return EntropyClustering(
            span=FULL_SPAN, min_addresses=min_addresses, seed=ctx.config.seed, policy=ctx.policy
        )

    dns_responders = sorted(ctx.responsive_on(Protocol.UDP53), key=lambda a: a.value)
    # At small simulation scale few /32s may reach the requested minimum;
    # relax it progressively (down to 5 addresses) until clustering has input.
    minimum = min_addresses_dns
    clusterer = clustering(minimum)
    fingerprints_dns = clusterer.fingerprints_by_prefix(dns_responders, 32)
    while len(fingerprints_dns) < 2 and minimum > 5:
        minimum = max(5, minimum // 2)
        clusterer = clustering(minimum)
        fingerprints_dns = clusterer.fingerprints_by_prefix(dns_responders, 32)
    dns_clustering = clusterer.cluster(fingerprints_dns)

    # Group all hitlist addresses by covering BGP prefix and cluster those
    # groups.  The prefix mapping is one flattened-LPM batch lookup instead of
    # a trie walk per address.
    groups: dict[str, list] = {}
    prefix_by_name: dict[str, object] = {}
    flat = ctx.internet.bgp_lpm()
    indices = flat.lookup_indices(ctx.hitlist.address_batch)
    for address, index in zip(ctx.hitlist.addresses, indices.tolist()):
        if index < 0:
            continue
        prefix = flat.objects[index].prefix
        name = str(prefix)
        groups.setdefault(name, []).append(address)
        prefix_by_name[name] = prefix
    bgp_clusterer = clustering(min_addresses_bgp)
    fingerprints = bgp_clusterer.fingerprints_by_group(groups)
    bgp_clustering = bgp_clusterer.cluster(fingerprints)

    labelled_prefixes = []
    values = {}
    for fingerprint, label in zip(bgp_clustering.fingerprints, bgp_clustering.labels):
        prefix = prefix_by_name[fingerprint.network]
        labelled_prefixes.append(prefix)
        values[prefix] = float(label)
    layout = zesplot_layout(
        labelled_prefixes,
        values=values,
        asn_of=ctx.bgp_origin_map(),
        sized=False,
        num_color_bins=max(2, bgp_clustering.k),
    )
    return Fig3Result(dns_clustering=dns_clustering, bgp_clustering=bgp_clustering, zesplot=layout)


def format_table(result: Fig3Result) -> str:
    """Summarise both panels."""
    lines = [f"UDP/53 responders: k={result.dns_k}"]
    for cluster in result.dns_clustering.clusters:
        profile = cluster.median_entropies
        mean_entropy = sum(profile) / len(profile) if profile else 0.0
        lines.append(
            f"  cluster {cluster.cluster_id}: {cluster.popularity:6.1%}, mean entropy {mean_entropy:.2f}"
        )
    lines.append(
        f"BGP prefixes clustered: {result.bgp_clustering.num_networks} (k={result.bgp_clustering.k}), "
        f"zesplot boxes: {len(result.zesplot.items)}"
    )
    return "\n".join(lines)
