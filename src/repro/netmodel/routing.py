"""Valley-free routing over the AS graph, flattened for vectorized probing.

:class:`RoutingModel` computes, once at build time, the routes every vantage
AS uses towards every destination AS of the
:class:`~repro.netmodel.asgraph.ASGraph`, then flattens them into dense
per-vantage path matrices -- delivery probability, ICMP allowance, filtered
flag and hop count, one column per destination AS, one plane for the primary
and one for the alternate path.  ``probe_batch`` resolution is then a single
gather per target batch; no Python graph walk sits on the hot path.

Path selection
--------------

Paths follow the Gao-Rexford valley-free shape ``up* peer? down*``: a route
climbs customer-to-provider edges, crosses at most one peering edge, then
descends provider-to-customer edges.  Selection is deterministic: among all
valley-free candidates the model prefers fewer AS hops, then the earlier
export phase at arrival (down-only beats peered beats climbing), then the
lexicographically smallest ASN sequence.  For each destination a primary and
an alternate path are kept (the best routes through two different vantage
providers); ``bgp_churn_rate`` flips destinations between them day by day
via a keyed (seed, day, destination) draw, so churn is deterministic per day.

Churn never flips a destination's *filtered* status: when the alternate path
differs from the primary in filtering, the alternate is discarded (an AS
does not switch onto a blackholed route), so reachability stays day-stable.

Path effects
------------

* **Congestion** -- delivery probability = product of
  ``1 - edge.congestion * transit_congestion`` over the route's edges.
* **Upstream rate limiting** -- each transit AS holds an ICMP token pool
  sized against the share of destinations it serves from the vantage
  (``allowance = 1 - upstream_rate_limit * load``); a route's allowance is
  the product over the transit ASes it traverses.  Heavily loaded upstreams
  shed more ICMP: the bias is emergent, not hand-set.
* **Regional filtering** -- with ``filtered_region >= 0``, any route edge
  crossing from outside into that region drops the probe (deterministically,
  every protocol).  Routes that start inside the region never cross in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro import keyed
from repro.addr.batch import readonly_view
from repro.netmodel.asgraph import ASGraph
from repro.netmodel.config import InternetConfig

#: Phases of the valley-free state machine.
_UP, _PEERED, _DOWN = 0, 1, 2


def is_valley_free(graph: ASGraph, path: tuple[int, ...]) -> bool:
    """Does *path* follow the ``up* peer? down*`` shape over *graph*?"""
    phase = _UP
    for a, b in zip(path, path[1:]):
        step = graph.relationship(a, b)
        if step is None:
            return False
        if step == "up":
            if phase != _UP:
                return False
        elif step == "peer":
            if phase != _UP:
                return False
            phase = _PEERED
        else:  # down
            phase = _DOWN
    return True


@dataclass(frozen=True, slots=True)
class RouteDayView:
    """The active per-destination route effects of one (vantage, day).

    Arrays are indexed by destination row (see
    :meth:`RoutingModel.row_of_asn`) and already reflect that day's churn
    selection between primary and alternate paths.
    """

    day: int
    vantage: int
    filtered: np.ndarray
    delivery: np.ndarray
    icmp_allowance: np.ndarray
    hops: np.ndarray

    #: Shared with every probe_batch call of the day; never written after
    #: construction (reprolint R2).
    __frozen_arrays__ = ("filtered", "delivery", "icmp_allowance", "hops")


class RoutingModel:
    """Precomputed valley-free routes and dense path matrices per vantage."""

    #: Built once in ``__init__`` and then only gathered from (reprolint R2).
    __frozen_arrays__ = ("_filtered", "_delivery", "_allowance", "_hops")

    def __init__(self, graph: ASGraph, config: InternetConfig):
        self.graph = graph
        self.config = config
        self.dest_asns: list[int] = sorted(graph.stub_asns)
        self._row_of = {asn: row for row, asn in enumerate(self.dest_asns)}
        self.vantage_asns: list[int] = list(graph.vantage_asns)
        #: False for the degenerate single-homed star: probe resolution must
        #: skip the routed layer entirely (bit-identical flat behaviour).
        self.active = not graph.degenerate
        n = len(self.dest_asns)
        # plane 0 = primary path, plane 1 = alternate path.
        self._paths: list[list[list[tuple[int, ...]]]] = []
        self._filtered: list[np.ndarray] = []
        self._delivery: list[np.ndarray] = []
        self._allowance: list[np.ndarray] = []
        self._hops: list[np.ndarray] = []
        self._transit_allowance: list[dict[int, float]] = []
        self._day_views: dict[tuple[int, int], RouteDayView] = {}
        self._upstreams: dict[int, np.ndarray] = {}
        for vantage in range(len(self.vantage_asns)):
            self._build_vantage(vantage, n)

    # -- construction --------------------------------------------------------------

    def _search_via(self, vantage_asn: int, first_hop: int) -> dict[int, tuple[int, ...]]:
        """Best valley-free path to every AS, forced through *first_hop*.

        Dijkstra over (asn, phase) states with lexicographic cost
        ``(hops, phase, asn-sequence)`` -- fully deterministic.
        """
        graph = self.graph
        start = (1, _UP, (vantage_asn, first_hop))
        best: dict[tuple[int, int], tuple[int, ...]] = {}
        heap: list[tuple[int, int, tuple[int, ...]]] = [start]
        while heap:
            hops, phase, path = heapq.heappop(heap)
            node = path[-1]
            state = (node, phase)
            if state in best:
                continue
            best[state] = path
            if phase == _UP:
                for provider in sorted(graph.providers_of(node)):
                    if provider not in path:
                        heapq.heappush(heap, (hops + 1, _UP, path + (provider,)))
                for peer in sorted(graph.peers_of(node)):
                    if peer not in path:
                        heapq.heappush(heap, (hops + 1, _PEERED, path + (peer,)))
            for customer in sorted(graph.customers_of(node)):
                if customer not in path:
                    heapq.heappush(heap, (hops + 1, _DOWN, path + (customer,)))
        routes: dict[int, tuple[int, ...]] = {}
        for (node, phase), path in sorted(
            best.items(), key=lambda item: (len(item[1]), item[0][1], item[1])
        ):
            routes.setdefault(node, path)
        return routes

    def _path_filtered(self, path: tuple[int, ...]) -> bool:
        """Does *path* cross from outside into the filtered region?"""
        region = self.config.filtered_region
        if region < 0 or len(path) < 2:
            return not path
        regions = [self.graph.region_of(asn) for asn in path]
        return any(
            b == region and a != region for a, b in zip(regions, regions[1:])
        )

    def _path_delivery(self, path: tuple[int, ...]) -> float:
        scale = self.config.transit_congestion
        if scale <= 0.0 or len(path) < 2:
            return 1.0 if path else 0.0
        delivery = 1.0
        for a, b in zip(path, path[1:]):
            edge = self.graph.edge_between(a, b)
            delivery *= max(0.0, 1.0 - edge.congestion * scale)
        return delivery

    def _build_vantage(self, vantage: int, n: int) -> None:
        vantage_asn = self.vantage_asns[vantage]
        providers = sorted(self.graph.providers_of(vantage_asn))
        per_provider = [self._search_via(vantage_asn, p) for p in providers]
        paths: list[list[tuple[int, ...]]] = [[()] * n, [()] * n]
        for row, dest in enumerate(self.dest_asns):
            candidates = sorted(
                {routes[dest] for routes in per_provider if dest in routes},
                key=lambda p: (len(p), p),
            )
            if not candidates:
                continue
            primary = candidates[0]
            alternates = [p for p in candidates[1:] if p != primary]
            alt = alternates[0] if alternates else primary
            # Churn must never flip the filtered status (see module docstring).
            if self._path_filtered(alt) != self._path_filtered(primary):
                alt = primary
            paths[0][row] = primary
            paths[1][row] = alt
        # Token pools: a transit's ICMP allowance shrinks with the share of
        # destinations it serves on this vantage's primary paths.
        served: dict[int, int] = {}
        for path in paths[0]:
            for asn in path[1:-1]:
                if self.graph.nodes[asn].kind == "transit":
                    served[asn] = served.get(asn, 0) + 1
        scale = self.config.upstream_rate_limit
        allowance_of = {
            asn: max(0.0, 1.0 - scale * (count / max(1, n)))
            for asn, count in served.items()
        }
        filtered = np.ones((2, n), dtype=bool)
        delivery = np.zeros((2, n), dtype=float)
        allowance = np.ones((2, n), dtype=float)
        hops = np.zeros((2, n), dtype=np.int64)
        for plane in (0, 1):
            for row, path in enumerate(paths[plane]):
                if not path:
                    continue
                filtered[plane, row] = self._path_filtered(path)
                delivery[plane, row] = self._path_delivery(path)
                hops[plane, row] = len(path) - 1
                if scale > 0.0:
                    a = 1.0
                    for asn in path[1:-1]:
                        a *= allowance_of.get(asn, 1.0)
                    allowance[plane, row] = a
        self._paths.append(paths)
        self._filtered.append(filtered)
        self._delivery.append(delivery)
        self._allowance.append(allowance)
        self._hops.append(hops)
        self._transit_allowance.append(allowance_of)

    # -- effect flags --------------------------------------------------------------

    @property
    def has_congestion(self) -> bool:
        return self.active and self.config.transit_congestion > 0.0

    @property
    def has_rate_limit(self) -> bool:
        return self.active and self.config.upstream_rate_limit > 0.0

    @property
    def has_filtering(self) -> bool:
        return self.active and self.config.filtered_region >= 0

    @property
    def has_churn(self) -> bool:
        return self.active and self.config.bgp_churn_rate > 0.0

    # -- lookup --------------------------------------------------------------------

    def resolve_vantage(self, vantage: "int | None" = None) -> int:
        """Normalize a vantage index (None = the configured default)."""
        index = self.config.vantage_index if vantage is None else vantage
        return int(index) % len(self.vantage_asns)

    def row_of_asn(self, asn: int) -> int:
        """Destination row of an AS number, -1 when unknown."""
        return self._row_of.get(int(asn), -1)

    def uses_alternate(self, row: int, day: int) -> bool:
        """Does destination *row* ride its alternate path on *day*?"""
        rate = self.config.bgp_churn_rate
        if rate <= 0.0:
            return False
        return keyed.hash01(keyed.CHURN, self.config.seed, day, row) < rate

    def _day_planes(self, day: int) -> np.ndarray:
        """Path plane per destination row on *day* (1 = alternate)."""
        n = len(self.dest_asns)
        rate = self.config.bgp_churn_rate
        if rate <= 0.0:
            return np.zeros(n, dtype=np.intp)
        rows = np.arange(n, dtype=np.uint64)
        draws = keyed.hash01_array(keyed.CHURN, self.config.seed, day, rows)
        return (draws < rate).astype(np.intp)

    def day_view(self, day: int, vantage: "int | None" = None) -> RouteDayView:
        """The flattened route effects of one (vantage, day), memoised."""
        vantage = self.resolve_vantage(vantage)
        key = (vantage, day)
        cached = self._day_views.get(key)
        if cached is not None:
            return cached
        n = len(self.dest_asns)
        plane = self._day_planes(day)
        columns = np.arange(n)
        view = RouteDayView(
            day=day,
            vantage=vantage,
            filtered=readonly_view(self._filtered[vantage][plane, columns]),
            delivery=readonly_view(self._delivery[vantage][plane, columns]),
            icmp_allowance=readonly_view(self._allowance[vantage][plane, columns]),
            hops=readonly_view(self._hops[vantage][plane, columns]),
        )
        self._day_views[key] = view
        return view

    def as_path(self, row: int, day: int = 0, vantage: "int | None" = None) -> tuple[int, ...]:
        """The AS-level route towards destination *row* on *day*."""
        vantage = self.resolve_vantage(vantage)
        if row < 0:
            return ()
        plane = 1 if self.uses_alternate(row, day) else 0
        return self._paths[vantage][plane][row]

    def path_of_asn(
        self, asn: int, day: int = 0, vantage: "int | None" = None
    ) -> tuple[int, ...]:
        """The AS-level route towards an AS number (empty when unknown)."""
        return self.as_path(self.row_of_asn(asn), day, vantage)

    def transit_allowances(self, vantage: "int | None" = None) -> dict[int, float]:
        """Per-transit ICMP allowance (token-pool survival probability)."""
        return dict(self._transit_allowance[self.resolve_vantage(vantage)])

    def upstream_matrix(self, vantage: "int | None" = None) -> np.ndarray:
        """First transit AS on each path, shape ``(2, n)`` (-1 = none).

        Plane 0/1 mirror the primary/alternate path planes.  This is the
        token-pool key the sub-day dynamics layer charges per ICMP arrival:
        the first transit an inbound reply must cross on its way back.
        """
        vantage = self.resolve_vantage(vantage)
        cached = self._upstreams.get(vantage)
        if cached is not None:
            return cached
        n = len(self.dest_asns)
        matrix = np.full((2, n), -1, dtype=np.int64)
        for plane in (0, 1):
            for row, path in enumerate(self._paths[vantage][plane]):
                for asn in path[1:-1]:
                    if self.graph.nodes[asn].kind == "transit":
                        matrix[plane, row] = asn
                        break
        self._upstreams[vantage] = matrix
        return matrix

    def day_upstreams(self, day: int, vantage: "int | None" = None) -> np.ndarray:
        """Per-destination-row transit pool key on *day* (churn-aware)."""
        matrix = self.upstream_matrix(vantage)
        return matrix[self._day_planes(day), np.arange(matrix.shape[1])]

    def filter_cut(self, path: tuple[int, ...]) -> "int | None":
        """Index of the first AS inside the filtered region entered from
        outside, or None when the path is not filtered."""
        region = self.config.filtered_region
        if region < 0:
            return None
        regions = [self.graph.region_of(asn) for asn in path]
        for i in range(1, len(regions)):
            if regions[i] == region and regions[i - 1] != region:
                return i
        return None
