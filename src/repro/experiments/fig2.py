"""Figure 2: entropy clustering of /32 prefixes.

* Figure 2a -- fingerprints of full addresses (nybbles 9..32) cluster into
  about 6 addressing schemes; the most popular clusters have near-zero entropy
  everywhere except the last few nybbles (counters), high-entropy IID clusters
  and EUI-64 clusters follow.
* Figure 2b -- fingerprints restricted to the IID (nybbles 17..32) collapse
  into about 4 clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clustering import ClusteringResult, EntropyClustering
from repro.core.entropy import FULL_SPAN, IID_SPAN
from repro.experiments.context import ExperimentContext


@dataclass(slots=True)
class Fig2Result:
    """Clustering results for the two fingerprint spans."""

    full_span: ClusteringResult
    iid_span: ClusteringResult

    @property
    def full_k(self) -> int:
        return self.full_span.k

    @property
    def iid_k(self) -> int:
        return self.iid_span.k

    @property
    def most_popular_is_low_entropy(self) -> bool:
        """The most popular full-span cluster should be a counter-style scheme."""
        return self._is_low_entropy(self.full_span.clusters[0].median_entropies)

    @property
    def has_popular_low_entropy_cluster(self) -> bool:
        """A counter-style (low-entropy) cluster exists among the popular ones.

        At paper scale the counter cluster is the single most popular one; at
        simulation scale the handful of huge CDN allocations (whose aliased
        regions contribute pseudo-random addresses) can outweigh it, so the
        robust claim is that a popular low-entropy cluster exists at all.
        """
        return any(
            cluster.popularity >= 0.1 and self._is_low_entropy(cluster.median_entropies)
            for cluster in self.full_span.clusters
        )

    @staticmethod
    def _is_low_entropy(profile: list[float]) -> bool:
        if not profile:
            return False
        # Low entropy on all but the trailing nybbles.
        head = profile[: max(1, len(profile) - 6)]
        return sum(head) / len(head) < 0.3

    def cluster_of_prefix(self, prefix: str) -> int | None:
        return self.full_span.label_of(prefix)


def run(
    ctx: ExperimentContext,
    min_addresses: int = 100,
    prefix_length: int = 32,
) -> Fig2Result:
    """Cluster the hitlist's /32 prefixes with both fingerprint spans.

    Runs on the hitlist's cached columnar :class:`~repro.addr.batch.AddressBatch`:
    grouping + fingerprinting is one sorted ``bincount`` pass per span.
    """
    batch = ctx.hitlist.address_batch
    full = EntropyClustering(
        span=FULL_SPAN, min_addresses=min_addresses, seed=ctx.config.seed, policy=ctx.policy
    ).cluster_prefixes(batch, prefix_length)
    iid = EntropyClustering(
        span=IID_SPAN, min_addresses=min_addresses, seed=ctx.config.seed, policy=ctx.policy
    ).cluster_prefixes(batch, prefix_length)
    return Fig2Result(full_span=full, iid_span=iid)


def format_table(result: Fig2Result) -> str:
    """Cluster popularity and median entropy summary (both panels)."""
    lines = []
    for label, clustering in (("full address (F9..32)", result.full_span), ("IID only (F17..32)", result.iid_span)):
        lines.append(f"{label}: k={clustering.k}, {clustering.num_networks} /32 prefixes")
        for cluster in clustering.clusters:
            profile = cluster.median_entropies
            mean_entropy = sum(profile) / len(profile) if profile else 0.0
            lines.append(
                f"  cluster {cluster.cluster_id}: {cluster.popularity:6.1%} of prefixes, "
                f"mean median-entropy {mean_entropy:.2f}"
            )
    return "\n".join(lines)
