"""Section 5 vantage-point dependence, reproduced on the routed AS graph.

The paper probes the hitlist from a single vantage point and warns that
responsiveness is a property of the *path*, not only the destination:
congested transit links, upstream ICMP rate limiting and regional inbound
filtering all depend on where the probes enter the graph.  This experiment
probes the context's hitlist from every vantage AS of a routed view of the
context's own world (:meth:`SimulatedInternet.routed`), and quantifies the
bias:

* responsive sets differ between vantages (pairwise Jaccard < 1);
* the filtered region is visible almost exclusively to the vantage homed
  inside it -- an outside hitlist systematically under-covers that region.

The view shares every host, address, announcement, aliased region and
rate limit of the world every other report sees, so the experiment keeps
that world's substrate: packet loss is a keyed draw per probe (the same
for every vantage), and the rate-limited allocations and the seven
Section 5.1 anomaly regions answer as they do for the other reports.  The
routed knobs add only the path effects, keyed on the vantage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import ExperimentContext
from repro.netmodel.asgraph import REGIONS

#: Routed-topology knobs of the experiment (a routed view of the context's
#: Internet; the filtered region is REGIONS[2] = "apnic").
ROUTED_KNOBS: dict[str, object] = {
    "num_transit_ases": 5,
    "num_ixps": 2,
    "num_vantages": 3,
    "vantage_index": 0,
    "transit_congestion": 0.25,
    "upstream_rate_limit": 0.3,
    "filtered_region": 2,
}


@dataclass(slots=True)
class VantageBiasResult:
    """Per-vantage responsiveness of one hitlist over the routed graph."""

    vantage_asns: list[int]
    vantage_regions: list[int]
    filtered_region: int
    num_targets: int
    responsive_counts: list[int]
    #: Pairwise Jaccard similarity of the per-vantage responsive sets.
    jaccard: list[list[float]]
    #: ``region_responsive[v][r]`` = responsive targets of region *r* seen
    #: from vantage *v*; ``region_targets[r]`` = targets in region *r*.
    region_responsive: list[list[int]]
    region_targets: list[int]

    @property
    def min_jaccard(self) -> float:
        pairs = [
            self.jaccard[i][j]
            for i in range(len(self.jaccard))
            for j in range(i + 1, len(self.jaccard))
        ]
        return min(pairs) if pairs else 1.0

    @property
    def inside_vantage(self) -> int:
        """Index of the vantage homed inside the filtered region (-1: none)."""
        for v, region in enumerate(self.vantage_regions):
            if region == self.filtered_region:
                return v
        return -1

    @property
    def responsiveness_is_vantage_dependent(self) -> bool:
        """Do different vantages see different responsive sets?"""
        return self.min_jaccard < 1.0

    @property
    def filtered_region_needs_inside_vantage(self) -> bool:
        """Does the inside vantage out-cover every outside vantage there?"""
        inside = self.inside_vantage
        if inside < 0:
            return False
        region = self.filtered_region
        return all(
            self.region_responsive[inside][region] > self.region_responsive[v][region]
            for v in range(len(self.vantage_asns))
            if v != inside
        )


def run(ctx: ExperimentContext) -> VantageBiasResult:
    """Probe the context's hitlist from every vantage of the routed graph."""
    internet = ctx.internet.routed(**ROUTED_KNOBS)
    routing = internet.routing
    graph = internet.asgraph
    # Resolved once: every vantage probes the same targets.
    targets = internet.resolve_targets(ctx.hitlist.address_batch)

    # Destination region per target, via the covering announcement's
    # origin: its routing row, -1 where no announcement covers the target.
    rows = targets.dest_rows
    row_region = np.fromiter(
        (graph.region_of(asn) for asn in routing.dest_asns),
        dtype=np.int64,
        count=len(routing.dest_asns),
    )
    target_region = np.where(rows >= 0, row_region[np.maximum(rows, 0)], np.int64(-1))
    region_targets = [int((target_region == r).sum()) for r in range(len(REGIONS))]

    num_vantages = len(routing.vantage_asns)
    responsive: list[np.ndarray] = []
    for vantage in range(num_vantages):
        result = internet.probe_batch(targets, day=0, vantage=vantage)
        responsive.append(result.responsive_mask())
    jaccard = [
        [
            float((a & b).sum()) / max(1, int((a | b).sum()))
            for b in responsive
        ]
        for a in responsive
    ]
    region_responsive = [
        [int((mask & (target_region == r)).sum()) for r in range(len(REGIONS))]
        for mask in responsive
    ]
    return VantageBiasResult(
        vantage_asns=list(routing.vantage_asns),
        vantage_regions=[graph.region_of(asn) for asn in routing.vantage_asns],
        filtered_region=internet.config.filtered_region,
        num_targets=len(targets),
        responsive_counts=[int(mask.sum()) for mask in responsive],
        jaccard=jaccard,
        region_responsive=region_responsive,
        region_targets=region_targets,
    )


def format_table(result: VantageBiasResult) -> str:
    """Render the per-vantage coverage table and bias statistics."""
    filtered = REGIONS[result.filtered_region]
    lines = [
        f"{result.num_targets} hitlist targets; filtered region: {filtered}",
        "vantage      region   responsive   " + "  ".join(f"{r:>7}" for r in REGIONS),
    ]
    for v, asn in enumerate(result.vantage_asns):
        counts = "  ".join(
            f"{result.region_responsive[v][r]:>7}" for r in range(len(REGIONS))
        )
        marker = " (inside)" if v == result.inside_vantage else ""
        lines.append(
            f"AS{asn:<10} {REGIONS[result.vantage_regions[v]]:<8} "
            f"{result.responsive_counts[v]:>10}   {counts}{marker}"
        )
    lines.append(
        "region targets:                   "
        + "  ".join(f"{count:>7}" for count in result.region_targets)
    )
    pairs = ", ".join(
        f"v{i}/v{j}={result.jaccard[i][j]:.3f}"
        for i in range(len(result.vantage_asns))
        for j in range(i + 1, len(result.vantage_asns))
    )
    lines.append(f"pairwise Jaccard of responsive sets: {pairs}")
    lines.append(
        f"vantage-dependent: {result.responsiveness_is_vantage_dependent}; "
        f"filtered region requires inside vantage: "
        f"{result.filtered_region_needs_inside_vantage}"
    )
    return "\n".join(lines)
