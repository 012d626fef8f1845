"""The simulated IPv6 Internet.

:class:`SimulatedInternet` builds -- deterministically from a seed -- an
Internet with the structural properties the paper relies on:

* a heavy-tailed AS population with a few huge cloud/CDN players and a long
  tail of hosters, eyeball ISPs, enterprises and academic networks;
* per-network addressing schemes drawn from a small set (counters, structured
  plans, random IIDs, EUI-64), so entropy clustering finds few clusters;
* aliased regions (whole /48s or /64s bound to a single machine), centred on
  the cloud/CDN ASes, covering roughly half of the address mass the sources
  will observe;
* per-host service deployment with strong cross-protocol correlations;
* TCP/IP stack personalities for fingerprinting;
* packet loss, ICMP rate limiting and SYN-proxy anomalies;
* day-granular churn so longitudinal scans observe source-dependent decay.

The measurement code in :mod:`repro.core` interacts with this class only
through :meth:`SimulatedInternet.probe` (one address, one protocol),
:meth:`SimulatedInternet.probe_batch` (whole target arrays at once, or a
:meth:`SimulatedInternet.resolve_targets` resolution of one) and
:meth:`SimulatedInternet.traceroute`; everything else is ground truth reserved
for validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro import keyed
from repro.addr.address import LO_MASK, IPv6Address, parse_address
from repro.addr.batch import AddressBatch, FlatLPM, PackedKeys, find128, readonly_view
from repro.addr.generate import random_address_in_prefix
from repro.addr.prefix import IPv6Prefix
from repro.addr.trie import PrefixTrie
from repro.netmodel.aliased import SYN_PROXY_ANSWER_PROBABILITY, AliasedRegion
from repro.netmodel.asgraph import build_asgraph
from repro.netmodel.asregistry import ASCategory, ASDescriptor, ASRegistry
from repro.netmodel.bgp import BGPAnnouncement, BGPTable
from repro.netmodel.config import DEFAULT_CONFIG, InternetConfig
from repro.netmodel.fingerprints import StackPersonality
from repro.netmodel.host import Host, StabilityModel
from repro.netmodel.packets import ProbeReply
from repro.netmodel.routing import RoutingModel
from repro.netmodel.schemes import (
    AddressingScheme,
    EYEBALL_SCHEME_WEIGHTS,
    SERVER_SCHEME_WEIGHTS,
    generate_address,
    pick_scheme,
)
from repro.netmodel.services import ALL_PROTOCOLS, HostRole, Protocol, profile_for
from repro.netmodel.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.dynamics import NetworkDynamics, WaveAdmission

#: Base of the synthetic allocation space: allocation *i* is ``2001:i::/32``-like.
_ALLOCATION_BASE = 0x2001 << 112

#: Role mix per AS category: (role, share) pairs.
_ROLE_MIX: dict[ASCategory, tuple[tuple[HostRole, float], ...]] = {
    ASCategory.CLOUD_CDN: (
        (HostRole.CDN_EDGE, 0.45),
        (HostRole.WEB_SERVER, 0.40),
        (HostRole.DNS_SERVER, 0.10),
        (HostRole.MAIL_SERVER, 0.05),
    ),
    ASCategory.HOSTER: (
        (HostRole.WEB_SERVER, 0.58),
        (HostRole.DNS_SERVER, 0.15),
        (HostRole.MAIL_SERVER, 0.15),
        (HostRole.ROUTER, 0.08),
        (HostRole.CLIENT, 0.04),
    ),
    ASCategory.EYEBALL_ISP: (
        (HostRole.CPE, 0.48),
        (HostRole.CLIENT, 0.32),
        (HostRole.ROUTER, 0.10),
        (HostRole.WEB_SERVER, 0.05),
        (HostRole.DNS_SERVER, 0.03),
        (HostRole.ATLAS_PROBE, 0.02),
    ),
    ASCategory.ENTERPRISE: (
        (HostRole.WEB_SERVER, 0.40),
        (HostRole.MAIL_SERVER, 0.20),
        (HostRole.DNS_SERVER, 0.10),
        (HostRole.ROUTER, 0.10),
        (HostRole.CLIENT, 0.20),
    ),
    ASCategory.ACADEMIC: (
        (HostRole.WEB_SERVER, 0.30),
        (HostRole.DNS_SERVER, 0.20),
        (HostRole.ROUTER, 0.20),
        (HostRole.CLIENT, 0.25),
        (HostRole.ATLAS_PROBE, 0.05),
    ),
}


#: Bit assigned to each protocol in vectorised service masks.
_PROTOCOL_BIT: dict[Protocol, int] = {p: 1 << i for i, p in enumerate(ALL_PROTOCOLS)}


def _service_mask(services: Iterable[Protocol]) -> int:
    mask = 0
    for protocol in services:
        mask |= _PROTOCOL_BIT[protocol]
    return mask


#: Probe decisions whose keys also carry the vantage (path effects).
_PATH_SALTS = frozenset((keyed.CONGESTION, keyed.ROUTE_ICMP))

#: Death day of a machine that never dies (vectorised uptime).
_NEVER = np.iinfo(np.int64).max


class _Streams(dict):
    """Stream key of each probe decision in one context, by salt.

    A decision's draw for a target is ``keyed.draw(address key, stream)``,
    the same in :meth:`SimulatedInternet.probe` and
    :meth:`SimulatedInternet.probe_batch`.  Each key is derived on first
    use: a scan draws with only a few of the decisions.
    """

    __slots__ = ("_coords", "_vantage")

    def __init__(self, coords: tuple[int, ...], vantage: int):
        super().__init__()
        self._coords = coords
        self._vantage = vantage

    def __missing__(self, salt: int) -> int:
        if salt in _PATH_SALTS:
            stream = keyed.key(salt, *self._coords, self._vantage)
        else:
            stream = keyed.key(salt, *self._coords)
        self[salt] = stream
        return stream


@lru_cache(maxsize=4096)
def _probe_streams(
    protocol: Protocol, day: int, wave: int, attempt: int, vantage: int
) -> _Streams:
    """The stream keys of one (protocol, day, wave, attempt, vantage) context."""
    return _Streams((ALL_PROTOCOLS.index(protocol), day, wave, attempt), vantage)


class BatchProbeResult:
    """One scan: the responsiveness of a target batch on several protocols.

    ``responsive[i, j]`` is True when row *i* of ``targets`` answered on
    ``protocols[j]``.  Every scan publishes this container: ``probe_batch``,
    ``sweep_batch`` and both engines of a scan day (the scalar
    :meth:`~repro.probing.scheduler.ScanScheduler.run_day` records each
    reply into the same matrix), so every consumer has one code path.  Rows
    follow the caller's target order: a target listed twice is two rows.
    Unlike the scalar :meth:`SimulatedInternet.probe` this carries no
    per-packet :class:`ProbeReply` objects.

    The matrix is read-only from construction: one scan is shared by every
    consumer (APD, the daily service, snapshots, experiments).  Each view
    reads ``protocol=None`` as "on any protocol": :meth:`responsive_mask`
    per row, :meth:`count_responsive` over rows and :meth:`responsive_on`
    as an address set, built on first use and cached.  A waved scan day
    hands the container out before its waves fire and they fill in its
    rows, so read the views once the day has run.
    """

    #: Immutability contract, enforced statically by reprolint rule R2: the
    #: responsiveness matrix is shared with every downstream consumer (APD,
    #: scans, snapshots) and must never be written through the container.
    __frozen_arrays__ = ("responsive",)
    __slots__ = ("day", "protocols", "targets", "responsive", "_sets")

    def __init__(
        self,
        day: int,
        protocols: Sequence[Protocol],
        targets: AddressBatch,
        responsive: np.ndarray,
    ):
        self.day = day
        self.protocols = tuple(protocols)
        self.targets = targets
        self.responsive = readonly_view(responsive)
        self._sets: dict[Optional[Protocol], set[IPv6Address]] = {}

    def responsive_mask(self, protocol: Optional[Protocol] = None) -> np.ndarray:
        """Boolean responsiveness per row, on *protocol* or on any (read-only)."""
        if protocol is None:
            return readonly_view(self.responsive.any(axis=1))
        return readonly_view(self.responsive[:, self.protocols.index(protocol)])

    def count_responsive(self, protocol: Optional[Protocol] = None) -> int:
        """Number of responsive rows, on *protocol* or on any.

        A target listed twice counts twice, while :meth:`responsive_on` is a
        set; the daily service's targets are unique hitlist rows, so there
        the two agree.
        """
        return int(self.responsive_mask(protocol).sum())

    def responsive_on(self, protocol: Optional[Protocol] = None) -> set[IPv6Address]:
        """The responsive targets as an address set (built once, then cached)."""
        cached = self._sets.get(protocol)
        if cached is None:
            rows = np.flatnonzero(self.responsive_mask(protocol))
            cached = self._sets[protocol] = set(self.targets.take(rows).to_addresses())
        return cached

    def take(self, rows: np.ndarray) -> "BatchProbeResult":
        """This scan restricted to the targets at *rows* (no re-probing).

        Lets one sweep serve several target groups: the generation pipeline
        probes the union of both tools' candidates once and splits it back
        per tool.
        """
        return BatchProbeResult(
            self.day, self.protocols, self.targets.take(rows), self.responsive[rows]
        )


class _BatchIndex:
    """Vectorised lookup structures derived once from the built Internet.

    Holds flattened LPM tables for routing, ICMP rate limiting and aliased
    regions, one interval table that refines all three and isolates every
    bound host address, the host id behind each region and a service mask
    per host id -- everything :meth:`probe_batch` needs to classify a target
    array without touching Python tries.
    """

    __slots__ = (
        "bgp",
        "ann_dest_row",
        "limits",
        "limit_values",
        "regions",
        "cells",
        "cell_ann",
        "cell_limit",
        "cell_region",
        "cell_host",
        "services",
        "birth",
        "death",
        "uptime",
        "coin_keys",
        "region_ids",
        "region_answer_p",
        "region_syn_proxy",
        "region_icmp_limit",
    )

    def __init__(self, internet: "SimulatedInternet"):
        self.bgp = FlatLPM((ann.prefix, ann) for ann in internet.bgp)
        # Announcement index -> destination row of the routing model (-1 for
        # origin ASes outside the AS graph), so probe_batch can gather route
        # effects straight from the LPM result.
        self.ann_dest_row = np.fromiter(
            (internet.routing.row_of_asn(ann.origin_asn) for ann in self.bgp.objects),
            dtype=np.int64,
            count=len(self.bgp.objects),
        )
        limit_items = list(internet._icmp_rate_limited.items())
        self.limits = FlatLPM(limit_items)
        self.limit_values = np.array([v for _, v in limit_items], dtype=float)
        self.regions = FlatLPM(
            (region.prefix, region) for region in internet.aliased_regions
        )
        bound = AddressBatch.from_ints(list(internet._host_by_address))
        order = bound.argsort()
        bound = bound.take(order)
        owners = np.fromiter(
            (host.host_id for host in internet._host_by_address.values()),
            dtype=np.int64,
            count=len(internet._host_by_address),
        )[order]
        # The intervals on which the BGP, rate-limit and region answers are
        # all constant, cut so that each bound address is one interval: a
        # single search then resolves all four lookups for a target.  The
        # address after the last one wraps to ::, which starts every table.
        after_lo = bound.lo + np.uint64(1)
        after = AddressBatch(bound.hi + (after_lo == 0), after_lo)
        cells = AddressBatch.concatenate(
            [self.bgp.starts(), self.limits.starts(), self.regions.starts(), bound, after]
        ).unique()
        # Packed once: every probe_batch resolution searches these starts.
        self.cells = PackedKeys(cells)
        self.cell_ann = self.bgp.lookup_indices(cells)
        self.cell_limit = self.limits.lookup_indices(cells)
        self.cell_region = self.regions.lookup_indices(cells)
        pos = find128(bound.hi, bound.lo, cells.hi, cells.lo)
        self.cell_host = np.where(pos >= 0, owners[np.maximum(pos, 0)], np.int64(-1))
        machines = internet._machines
        self.services = np.fromiter(
            (_service_mask(m.services) for m in machines), dtype=np.int64, count=len(machines)
        )
        # Each machine's uptime model as arrays, for the vectorised coin.
        stabilities = [m.stability for m in machines]
        self.birth = np.fromiter(
            (s.birth_day for s in stabilities), dtype=np.int64, count=len(machines)
        )
        self.death = np.fromiter(
            (_NEVER if s.death_day is None else s.death_day for s in stabilities),
            dtype=np.int64,
            count=len(machines),
        )
        self.uptime = np.fromiter(
            (s.daily_uptime for s in stabilities), dtype=float, count=len(machines)
        )
        self.coin_keys = keyed.key_array(
            np.fromiter((s.flap_seed for s in stabilities), np.uint64, len(machines)),
            np.fromiter((s.host_id for s in stabilities), np.uint64, len(machines)),
        )
        region_list = internet.aliased_regions
        self.region_ids = np.fromiter(
            (r.host.host_id for r in region_list), dtype=np.int64, count=len(region_list)
        )
        # Non-stochastic regions (deterministic-anomaly gate) encode as
        # "always answers, no proxy, no limit", mirroring the scalar admits.
        self.region_answer_p = np.array(
            [r.answer_probability if r.stochastic else 1.0 for r in region_list],
            dtype=float,
        )
        self.region_syn_proxy = np.array(
            [r.syn_proxy and r.stochastic for r in region_list], dtype=bool
        )
        self.region_icmp_limit = np.array(
            [
                np.nan
                if (r.icmp_rate_limit is None or not r.stochastic)
                else r.icmp_rate_limit
                for r in region_list
            ],
            dtype=float,
        )

    def cells_of(self, batch: AddressBatch) -> np.ndarray:
        """Index of each address's interval in :attr:`cells`."""
        return self.cells.searchsorted(batch) - 1


class ResolvedTargets:
    """Everything :meth:`SimulatedInternet.probe_batch` derives from the
    target addresses alone, for one target batch.

    One search of the batch index's cells gives each target's announcement,
    rate-limit, aliased-region and bound-host answers, and the target's base
    key for keyed draws comes with them.  None of it depends on the day,
    wave, attempt, vantage or protocol, so a batch scanned more than once --
    the daily service's standing targets, a campaign's days, a day's waves --
    is resolved once (:meth:`SimulatedInternet.resolve_targets`) and probed
    many times, and a growing batch inserts the resolution of its new
    targets (:meth:`insert`) instead of resolving every target again.
    Read-only, and valid only for the Internet that made it.
    """

    #: Immutability contract, enforced statically by reprolint rule R2: one
    #: resolution serves every scan of its batch, so no probe may write it.
    __frozen_arrays__ = (
        "cell",
        "base",
        "routed",
        "dest_rows",
        "limited_rows",
        "limited_allowance",
        "limited_base",
        "in_region",
        "region_rows",
        "region_ids",
        "region_base",
        "host_id",
    )
    __slots__ = ("_index", "targets", *__frozen_arrays__)

    def __init__(
        self, index: _BatchIndex, targets: AddressBatch, cell: np.ndarray, base: np.ndarray
    ):
        self._index = index
        self.targets = targets.readonly()
        #: Each target's interval in the index's cells, and its base key.
        self.cell = readonly_view(cell)
        self.base = readonly_view(base)
        ann = index.cell_ann[cell]
        self.routed = readonly_view(ann >= 0)
        #: Row of the announcement's origin in the routing model (-1: none).
        self.dest_rows = readonly_view(
            np.where(self.routed, index.ann_dest_row[np.maximum(ann, 0)], np.int64(-1))
        )
        # Targets inside an ICMP rate-limited prefix, with its allowance.
        limit = index.cell_limit[cell]
        limited = np.flatnonzero(limit >= 0)
        self.limited_rows = readonly_view(limited)
        self.limited_allowance = readonly_view(index.limit_values[limit[limited]])
        self.limited_base = readonly_view(base[limited])
        # Targets inside an aliased region (regions answer first, as in the
        # scalar path): the region and the machine behind it.
        region = index.cell_region[cell]
        self.in_region = readonly_view(region >= 0)
        self.region_rows = readonly_view(region[self.in_region])
        self.region_ids = readonly_view(index.region_ids[self.region_rows])
        self.region_base = readonly_view(base[self.in_region])
        #: The bound host behind each target outside a region (-1: none).
        self.host_id = readonly_view(
            np.where(self.in_region, np.int64(-1), index.cell_host[cell])
        )

    def __len__(self) -> int:
        return len(self.targets)

    def take(self, rows: np.ndarray) -> "ResolvedTargets":
        """The resolution of the targets at *rows* (no second search)."""
        return ResolvedTargets(
            self._index, self.targets.take(rows), self.cell[rows], self.base[rows]
        )

    def insert(self, rows: np.ndarray, other: "ResolvedTargets") -> "ResolvedTargets":
        """This resolution with *other*'s targets inserted (no second search).

        As in ``np.insert``, target *j* of *other* lands before row
        ``rows[j]`` of this resolution, so inserting a sorted batch at its
        insertion points into a sorted one keeps the result sorted.  Both
        must be resolutions by the same Internet.
        """
        if other._index is not self._index:
            raise ValueError("the targets were resolved by another SimulatedInternet")
        targets = AddressBatch(
            np.insert(self.targets.hi, rows, other.targets.hi),
            np.insert(self.targets.lo, rows, other.targets.lo),
        )
        return ResolvedTargets(
            self._index,
            targets,
            np.insert(self.cell, rows, other.cell),
            np.insert(self.base, rows, other.base),
        )


@dataclass(slots=True)
class NetworkPlan:
    """Ground truth for one allocation block of one AS."""

    allocation: IPv6Prefix
    asn: int
    category: ASCategory
    scheme: AddressingScheme
    announced: list[IPv6Prefix] = field(default_factory=list)
    hosts: list[Host] = field(default_factory=list)
    aliased: list[AliasedRegion] = field(default_factory=list)


class SimulatedInternet:
    """A deterministic, probe-able model of the IPv6 Internet."""

    def __init__(self, config: InternetConfig = DEFAULT_CONFIG):
        self.config = config
        self._rng = random.Random(config.seed)
        self.registry = ASRegistry.build(
            config.num_ases, self._rng, eyeball_boost=config.eyeball_tail_boost
        )
        self.bgp = BGPTable()
        self.topology = Topology(random.Random(config.seed ^ 0x70B0))
        # The AS graph draws from a dedicated stream: enabling the routed
        # topology must not perturb hosts, addressing or announcements.
        self.asgraph = build_asgraph(
            self.registry, config, random.Random(config.seed ^ 0xA5C4)
        )
        self.routing = RoutingModel(self.asgraph, config)
        self.plans: list[NetworkPlan] = []
        self.hosts: list[Host] = []
        self.aliased_regions: list[AliasedRegion] = []
        self._host_by_address: dict[int, Host] = {}
        self._aliased_trie: PrefixTrie[AliasedRegion] = PrefixTrie()
        self._icmp_rate_limited: PrefixTrie[float] = PrefixTrie()
        self._plan_by_announcement: dict[IPv6Prefix, NetworkPlan] = {}
        # Every machine (bound hosts and aliased-region hosts), by host id.
        self._machines: list[Host] = []
        # Per-address lookup cache: repeated scans hit the same addresses on
        # several protocols and days, so trie lookups -- and the address's
        # base key for keyed draws -- are memoised.
        self._probe_cache: dict[
            int,
            tuple[bool, Optional[float], Optional[AliasedRegion], Optional[Host], int, int],
        ] = {}
        # Popular /64 pods per aliased region, grown lazily by
        # sample_aliased_addresses (keyed by region identity).
        self._aliased_pods: dict[int, list[IPv6Prefix]] = {}
        # Vectorised lookup structures for probe_batch, built on first use
        # (the Internet is immutable once _build returns).
        self._batch_index: Optional[_BatchIndex] = None
        self._build()

    # ------------------------------------------------------------------ build

    def _build(self) -> None:
        allocation_index = 0
        for descriptor in self.registry:
            for _ in range(descriptor.num_allocations):
                plan = self._build_allocation(descriptor, allocation_index)
                allocation_index += 1
                self.plans.append(plan)
        self._register_anomalies()

    def _build_allocation(self, descriptor: ASDescriptor, index: int) -> NetworkPlan:
        rng = self._rng
        cfg = self.config
        allocation = IPv6Prefix(_ALLOCATION_BASE | (index << 96), 32)
        weights = (
            EYEBALL_SCHEME_WEIGHTS
            if descriptor.category is ASCategory.EYEBALL_ISP
            else SERVER_SCHEME_WEIGHTS
        )
        plan = NetworkPlan(
            allocation=allocation,
            asn=descriptor.asn.number,
            category=descriptor.category,
            scheme=pick_scheme(weights, rng),
        )

        # --- announcements -------------------------------------------------
        if rng.random() < cfg.deaggregation_rate:
            # Deaggregate into a handful of /40s or /48s.
            new_len = rng.choice((40, 48))
            count = rng.randint(2, 6)
            num_subnets = 1 << (new_len - allocation.length)
            announced = sorted(rng.sample(range(num_subnets), min(count, num_subnets)))
            plan.announced = [allocation.nth_subnet(new_len, i) for i in announced]
        else:
            plan.announced = [allocation]
        # A small share of very specific announcements for realism (zesplot
        # shows /56.. /127 rectangles in the bottom-right corner).
        if rng.random() < 0.06:
            tiny_len = rng.choice((56, 64, 112, 127))
            plan.announced.append(allocation.nth_subnet(tiny_len, 1))
        for prefix in plan.announced:
            self.bgp.add(BGPAnnouncement(prefix=prefix, origin_asn=plan.asn))
            self._plan_by_announcement[prefix] = plan

        # --- hosts ----------------------------------------------------------
        host_count = int(cfg.base_hosts_per_allocation * descriptor.weight * rng.uniform(0.6, 1.4))
        host_count = max(1, min(cfg.max_hosts_per_allocation, host_count))
        roles = _ROLE_MIX[descriptor.category]
        role_names = [r for r, _ in roles]
        role_weights = [w for _, w in roles]
        address_index = 0
        for _ in range(host_count):
            role = rng.choices(role_names, role_weights)[0]
            host = self._make_host(plan, role, address_index, rng)
            address_index += len(host.addresses)
            plan.hosts.append(host)
            self.hosts.append(host)
            for addr in host.addresses:
                self._host_by_address[addr.value] = host

        # --- aliased regions -------------------------------------------------
        self._add_aliased_regions(plan, descriptor, rng)

        # --- ICMP rate limiting ----------------------------------------------
        if rng.random() < cfg.icmp_rate_limited_share:
            self._icmp_rate_limited.insert(allocation, rng.uniform(0.4, 0.8))
        return plan

    def _host_scheme(self, plan: NetworkPlan, role: HostRole) -> AddressingScheme:
        """Per-host addressing scheme: clients/CPE override the network plan."""
        if role is HostRole.CLIENT:
            return AddressingScheme.RANDOM_IID
        if role is HostRole.CPE:
            return AddressingScheme.EUI64_CPE
        if role is HostRole.ROUTER and plan.category is ASCategory.EYEBALL_ISP:
            return AddressingScheme.LOW_COUNTER
        return plan.scheme

    def _make_host(
        self, plan: NetworkPlan, role: HostRole, address_index: int, rng: random.Random
    ) -> Host:
        cfg = self.config
        scheme = self._host_scheme(plan, role)
        # Hosts live inside one of the announced prefixes of the allocation.
        prefix = rng.choice(plan.announced)
        num_addresses = 1
        if role in (HostRole.WEB_SERVER, HostRole.CDN_EDGE) and rng.random() < 0.2:
            num_addresses = rng.randint(2, 4)
        addresses = []
        for i in range(num_addresses):
            addresses.append(generate_address(scheme, prefix, address_index + i, rng))
        addresses = list(dict.fromkeys(addresses))
        services = profile_for(role).sample_services(rng)
        personality = StackPersonality.sample(rng, cfg.modern_linux_share)
        host_id = len(self._machines)
        stability = self._stability_for(role, rng, host_id)
        host = Host(
            host_id=host_id,
            role=role,
            asn=plan.asn,
            addresses=tuple(addresses),
            services=services,
            personality=personality,
            stability=stability,
            hops=rng.randint(5, 14),
        )
        self._machines.append(host)
        return host

    def _stability_for(
        self, role: HostRole, rng: random.Random, host_id: int
    ) -> StabilityModel:
        cfg = self.config
        seed = rng.getrandbits(32)
        if role in (HostRole.CLIENT,):
            birth = rng.randint(0, max(0, cfg.study_days - 2))
            lifetime = max(1, int(rng.expovariate(1 / 4.0)))
            return StabilityModel(
                birth_day=birth,
                death_day=birth + lifetime,
                daily_uptime=cfg.client_daily_uptime,
                flap_seed=seed,
                host_id=host_id,
            )
        if role is HostRole.CPE:
            death = None if rng.random() < 0.75 else rng.randint(5, cfg.study_days + 20)
            uptime = cfg.cpe_daily_uptime
        elif role is HostRole.ROUTER:
            death, uptime = None, 0.97
        else:
            death = None if rng.random() < 0.97 else rng.randint(10, cfg.study_days + 40)
            uptime = cfg.server_daily_uptime
        return StabilityModel(
            death_day=death, daily_uptime=uptime, flap_seed=seed, host_id=host_id
        )

    def _add_aliased_regions(
        self, plan: NetworkPlan, descriptor: ASDescriptor, rng: random.Random
    ) -> None:
        cfg = self.config
        if descriptor.category is ASCategory.CLOUD_CDN:
            if rng.random() > cfg.aliased_region_rate:
                return
            count = cfg.aliased_regions_per_cdn_allocation
            # The single largest operator (Amazon analogue) aliases far more /48s.
            if descriptor.name == "Amazon":
                count *= 5
            subnet_indices = rng.sample(range(2, 2 + 4 * count), count)
            for subnet_index in subnet_indices:
                region_prefix = plan.allocation.nth_subnet(48, subnet_index)
                self._register_aliased_region(plan, region_prefix, rng)
        elif descriptor.category is ASCategory.HOSTER:
            if rng.random() > cfg.aliased_region_rate * 0.25:
                return
            length = rng.choice((64, 96))
            region_prefix = plan.allocation.nth_subnet(length, rng.randrange(1, 200))
            self._register_aliased_region(plan, region_prefix, rng)

    def _register_aliased_region(
        self,
        plan: NetworkPlan,
        prefix: IPv6Prefix,
        rng: random.Random,
        *,
        syn_proxy: bool = False,
        icmp_rate_limit: float | None = None,
        answer_probability: float = 1.0,
    ) -> AliasedRegion:
        # Most aliased regions are CDN front-ends answering ICMP and TCP; a
        # quarter answer ICMP only (ping-responsive prefixes without TCP
        # services), which is what single-protocol /96 detection misses and
        # cross-protocol multi-level APD still catches (Section 5.5).
        if rng.random() < 0.25:
            services = {Protocol.ICMP}
        else:
            services = {Protocol.ICMP, Protocol.TCP80, Protocol.TCP443}
            if rng.random() < 0.3:
                services.add(Protocol.UDP443)
        host_id = len(self._machines)
        host = Host(
            host_id=host_id,
            role=HostRole.CDN_EDGE,
            asn=plan.asn,
            addresses=(prefix.first + 1,),
            services=frozenset(services),
            personality=StackPersonality.sample(rng, self.config.modern_linux_share),
            # Keyed on the host id: every region machine flips its own coin.
            stability=StabilityModel(daily_uptime=0.999, host_id=host_id),
            hops=rng.randint(4, 10),
        )
        self._machines.append(host)
        region = AliasedRegion(
            prefix=prefix,
            host=host,
            syn_proxy=syn_proxy,
            icmp_rate_limit=icmp_rate_limit,
            answer_probability=answer_probability,
            stochastic=self.config.stochastic_anomalies,
        )
        plan.aliased.append(region)
        self.aliased_regions.append(region)
        self._aliased_trie.insert(prefix, region)
        # Aliased regions must be reachable: if the plan's announcements do not
        # cover the region (deaggregated allocation), announce the region
        # prefix itself -- CDNs do announce such /48s directly.
        if not self.bgp.is_routed(prefix.first):
            self.bgp.add(BGPAnnouncement(prefix=prefix, origin_asn=plan.asn))
            self._plan_by_announcement[prefix] = plan
            plan.announced.append(prefix)
        return region

    def _register_anomalies(self) -> None:
        """Add the Section 5.1 anomaly cases: SYN proxy, rate-limited /120s."""
        if not self.config.stochastic_anomalies:
            return
        rng = self._rng
        cdn_plans = [p for p in self.plans if p.category is ASCategory.CLOUD_CDN]
        if not cdn_plans:
            return
        plan = cdn_plans[0]
        # A /80 behind a SYN proxy: answers a varying subset of TCP probes.
        syn_prefix = plan.allocation.nth_subnet(80, 3)
        self._register_aliased_region(plan, syn_prefix, rng, syn_proxy=True)
        # Six neighbouring /120s with ICMP rate limiting.
        base = plan.allocation.nth_subnet(120, 4096)
        for i in range(6):
            prefix = IPv6Prefix(base.network + i * base.num_addresses, 120)
            self._register_aliased_region(plan, prefix, rng, icmp_rate_limit=0.7)

    # ------------------------------------------------------------------ probing

    def probe(
        self,
        address: "IPv6Address | int | str",
        protocol: Protocol,
        day: int = 0,
        time_of_day: float = 43200.0,
        *,
        vantage: Optional[int] = None,
        wave: "Optional[WaveAdmission]" = None,
        attempt: int = 0,
    ) -> Optional[ProbeReply]:
        """Send one probe; return the reply or ``None`` for silence.

        This is the only interface the measurement pipeline uses.  Loss, ICMP
        rate limiting, aliased behaviour and -- with a routed AS graph -- the
        path effects of the day's route from *vantage* are applied here.
        Every stochastic decision is a keyed draw on (target, protocol, day,
        wave, *attempt*), path effects also on the vantage, so a probe's
        outcome is a pure function of its coordinates: a second probe of the
        same target (a fingerprint pair, a Murdock triple) passes the next
        *attempt*.

        With a *wave* (sub-day dynamics on, :mod:`repro.events`) three things
        change: token-bucket admission replaces every stochastic ICMP
        rate-limit draw, hosts that rotated their prefix earlier in the day
        are dark on their old addresses, and their fresh addresses answer.
        """
        addr = address if isinstance(address, IPv6Address) else parse_address(address)
        cached = self._probe_cache.get(addr.value)
        if cached is None:
            announcement = self.bgp.lookup(addr)
            dest_row = (
                self.routing.row_of_asn(announcement.origin_asn)
                if announcement is not None and self.routing.active
                else -1
            )
            cached = (
                announcement is not None,
                self._icmp_rate_limited.lookup(addr),
                self._aliased_trie.lookup(addr),
                self._host_by_address.get(addr.value),
                dest_row,
                keyed.key(addr.value >> 64, addr.value & LO_MASK),
            )
            self._probe_cache[addr.value] = cached
        routed, icmp_limit, region, host, dest_row, base = cached
        routing = self.routing
        streams = _probe_streams(
            protocol,
            day,
            0 if wave is None else wave.key,
            attempt,
            routing.resolve_vantage(vantage) if routing.active else 0,
        )
        loss = self.config.packet_loss
        if loss > 0.0 and keyed.draw(base, streams[keyed.LOSS]) < loss:
            return None
        if not routed:
            return None
        bucketed = wave is not None and wave.buckets_active
        if bucketed and protocol is Protocol.ICMP and not wave.admitted_value(addr.value):
            return None
        if routing.active:
            # Walk the day's route: deterministic effects first (filtering,
            # reachability), then the keyed path effects.
            view = routing.day_view(day, vantage)
            if dest_row < 0 or view.hops[dest_row] == 0:
                return None
            if routing.has_filtering and view.filtered[dest_row]:
                return None
            if (
                routing.has_congestion
                and keyed.draw(base, streams[keyed.CONGESTION]) >= view.delivery[dest_row]
            ):
                return None
            if (
                protocol is Protocol.ICMP
                and routing.has_rate_limit
                and not bucketed
                and keyed.draw(base, streams[keyed.ROUTE_ICMP]) >= view.icmp_allowance[dest_row]
            ):
                return None
        if protocol is Protocol.ICMP and icmp_limit is not None and not bucketed:
            if keyed.draw(base, streams[keyed.PREFIX_ICMP]) > icmp_limit:
                return None
        if region is not None:
            if not region.host.is_responsive(protocol, day) or not region.admits(
                protocol,
                lambda salt: keyed.draw(base, streams[salt]),
                bucketed_icmp=bucketed,
            ):
                return None
            return region.host.packet(addr, protocol, day, time_of_day)
        if host is None:
            host = wave.rehomed_host(addr.value) if wave is not None else None
        elif wave is not None and wave.has_dark and wave.is_dark(host.host_id):
            return None
        if host is None or not host.is_responsive(protocol, day):
            return None
        return host.packet(addr, protocol, day, time_of_day)

    def hosts_online(self, host_ids: np.ndarray, day: int) -> np.ndarray:
        """Whether each machine in *host_ids* is up on *day*.

        The vectorised :meth:`StabilityModel.is_online`: one keyed coin per
        machine over arrays built once with the batch index.
        """
        index = self._ensure_batch_index()
        uptime = index.uptime[host_ids]
        coin = keyed.draw_array(index.coin_keys[host_ids], keyed.stream(keyed.UPTIME, day))
        alive = (index.birth[host_ids] <= day) & (day < index.death[host_ids])
        return alive & ((uptime >= 1.0) | (coin < uptime))

    def _ensure_batch_index(self) -> _BatchIndex:
        if self._batch_index is None:
            self._batch_index = _BatchIndex(self)
        return self._batch_index

    def bgp_lpm(self) -> FlatLPM:
        """Flattened LPM over the BGP table, shared with :meth:`probe_batch`.

        Values are :class:`BGPAnnouncement` objects; use it to map whole
        address batches to covering announcements without per-address trie
        walks.
        """
        return self._ensure_batch_index().bgp

    def resolve_targets(
        self, targets: "AddressBatch | Iterable[IPv6Address | int | str]"
    ) -> ResolvedTargets:
        """Resolve what :meth:`probe_batch` needs of each target address.

        One search of the batch index's cells per batch: routing, ICMP rate
        limiting, aliased-region membership and the bound host, plus each
        target's base key for keyed draws.  Pass the result to
        :meth:`probe_batch` in place of the batch to probe it on any day,
        wave, attempt or vantage without resolving it again.
        """
        if not isinstance(targets, AddressBatch):
            targets = AddressBatch.from_addresses(targets)
        index = self._ensure_batch_index()
        return ResolvedTargets(
            index, targets, index.cells_of(targets), keyed.key_array(targets.hi, targets.lo)
        )

    def probe_batch(
        self,
        targets: "ResolvedTargets | AddressBatch | Iterable[IPv6Address | int | str]",
        protocols: Optional[Sequence[Protocol]] = None,
        day: int = 0,
        *,
        vantage: Optional[int] = None,
        wave: "Optional[WaveAdmission]" = None,
        attempt: int = 0,
    ) -> BatchProbeResult:
        """Resolve responsiveness for a whole target array in one pass.

        The vectorised counterpart of :meth:`probe`, in two steps.  First
        the targets are resolved (:meth:`resolve_targets`: routing, ICMP
        rate limiting, aliased-region membership and bound-host lookup in
        one interval search), unless *targets* already is a resolution
        made by this Internet.  Then the (protocol, day, wave, attempt,
        vantage) part is applied as array operations: the day's routes,
        host uptime, rotation, services and the stochastic effects (loss,
        rate limits, SYN proxies).  A resolution is never written, so one
        can serve every scan of its batch.

        Every stochastic effect is the same keyed draw :meth:`probe` makes
        for the same (target, protocol, day, wave, attempt, vantage), so the
        matrix equals a loop of scalar probes row for row -- whatever the
        batch's order, size or chunking.
        """
        protocols = ALL_PROTOCOLS if protocols is None else tuple(protocols)
        resolved = (
            targets if isinstance(targets, ResolvedTargets) else self.resolve_targets(targets)
        )
        index = self._batch_index
        if resolved._index is not index:
            raise ValueError("the targets were resolved by another SimulatedInternet")
        targets = resolved.targets
        n = len(targets)
        responsive = np.zeros((n, len(protocols)), dtype=bool)
        if n == 0:
            return BatchProbeResult(day, protocols, targets, responsive)
        routed = resolved.routed
        route_delivery: Optional[np.ndarray] = None
        route_allowance: Optional[np.ndarray] = None
        # With active token buckets the wave's admission mask *is* the ICMP
        # rate-limit model: the stochastic allowance and trie/region limit
        # draws below are all superseded by it.
        bucketed = wave is not None and wave.buckets_active
        admitted = wave.admitted_for(targets) if bucketed else None
        routing = self.routing
        if routing.active:
            # Gather the day's route effects per target; deterministic parts
            # (filtering, reachability) fold into `routed` before any draw.
            view = routing.day_view(day, vantage)
            dest_rows = resolved.dest_rows
            rows = np.maximum(dest_rows, 0)
            routed = routed & (dest_rows >= 0) & (view.hops[rows] > 0)
            if routing.has_filtering:
                routed &= ~view.filtered[rows]
            if routing.has_congestion:
                route_delivery = np.where(routed, view.delivery[rows], 0.0)
            if routing.has_rate_limit and not bucketed:
                route_allowance = np.where(routed, view.icmp_allowance[rows], 0.0)
        in_region = resolved.in_region
        region_rows = resolved.region_rows
        region_ids = resolved.region_ids
        region_online = self.hosts_online(region_ids, day)
        # The machine behind each target outside a region: its bound host
        # unless that host has rotated away by wave time; on an unbound
        # address, the host re-homed onto it this wave.
        host_id = resolved.host_id
        if wave is not None and (wave.has_dark or wave.has_rehomed):
            host_id = host_id.copy()  # the resolution is shared: never write it
            bound = host_id >= 0
            if wave.has_dark:
                host_id[bound] = np.where(
                    wave.dark_of(host_id[bound]), np.int64(-1), host_id[bound]
                )
            if wave.has_rehomed:
                rehomed = wave.rehome_ids(targets)
                taken = (rehomed >= 0) & ~in_region & ~bound & routed
                host_id[taken] = rehomed[taken]
        answering = host_id >= 0
        host_ids = host_id[answering]
        host_online = self.hosts_online(host_ids, day)
        # Keyed draws: one mixer round of each target's base key against
        # the decision's stream key.
        base = resolved.base
        region_base = resolved.region_base
        limited_rows = resolved.limited_rows
        wave_key = 0 if wave is None else wave.key
        path_vantage = routing.resolve_vantage(vantage) if routing.active else 0
        loss = self.config.packet_loss
        for j, protocol in enumerate(protocols):
            bit = _PROTOCOL_BIT[protocol]
            streams = _probe_streams(protocol, day, wave_key, attempt, path_vantage)

            def draws(salt: int, keys: np.ndarray = base) -> np.ndarray:
                return keyed.draw_array(keys, streams[salt])

            # Fresh array per protocol: the rate-limit branch below mutates
            # `delivered` in place and must never alias the shared `routed`.
            delivered = routed.copy() if loss <= 0.0 else routed & (draws(keyed.LOSS) >= loss)
            if route_delivery is not None:
                delivered &= draws(keyed.CONGESTION) < route_delivery
            if protocol is Protocol.ICMP and admitted is not None:
                delivered &= admitted
            if protocol is Protocol.ICMP and route_allowance is not None:
                delivered &= draws(keyed.ROUTE_ICMP) < route_allowance
            if protocol is Protocol.ICMP and limited_rows.size and not bucketed:
                delivered[limited_rows] &= (
                    draws(keyed.PREFIX_ICMP, resolved.limited_base) <= resolved.limited_allowance
                )
            answered = np.zeros(n, dtype=bool)
            if region_rows.size:
                ok = (index.services[region_ids] & bit) != 0
                ok &= region_online
                if protocol.is_tcp and index.region_syn_proxy.any():
                    syn = index.region_syn_proxy[region_rows]
                    ok &= ~syn | (
                        draws(keyed.SYN_PROXY, region_base) <= SYN_PROXY_ANSWER_PROBABILITY
                    )
                if protocol is Protocol.ICMP and not bucketed:
                    limit = index.region_icmp_limit[region_rows]
                    has_limit = ~np.isnan(limit)
                    if has_limit.any():
                        ok &= ~has_limit | (
                            draws(keyed.REGION_ICMP, region_base)
                            <= np.nan_to_num(limit, nan=1.0)
                        )
                answer_p = index.region_answer_p[region_rows]
                if (answer_p < 1.0).any():
                    ok &= draws(keyed.REGION_ANSWER, region_base) <= answer_p
                answered[in_region] = ok
            if host_ids.size:
                ok = (index.services[host_ids] & bit) != 0
                ok &= host_online
                answered[answering] = ok
            responsive[:, j] = delivered & answered
        return BatchProbeResult(day, protocols, targets, responsive)

    def traceroute(
        self,
        address: "IPv6Address | int | str",
        day: int = 0,
        rng: Optional[random.Random] = None,
        *,
        vantage: Optional[int] = None,
        dynamics: "Optional[NetworkDynamics]" = None,
        time: Optional[float] = None,
    ) -> list[IPv6Address]:
        """Router hops observed on the path towards *address*.

        Per-hop loss is applied, mirroring real traceroutes with missing
        hops, drawn in hop order from *rng* (by default a fresh stream seeded
        by the world seed).  With a routed AS graph the hop sequence follows the day's
        valley-free route from *vantage*: transit routers appear per AS hop,
        regional filtering truncates the path at the region border, and
        rate-limited upstreams shed their TTL-exceeded replies.

        With sub-day *dynamics* carrying active token buckets, upstream
        shedding is deterministic: each TTL-exceeded reply claims one token
        from its transit pool at simulated *time* (default noon of *day*)
        instead of drawing against the static allowance.
        """
        rng = rng or random.Random(self.config.seed)
        addr = address if isinstance(address, IPv6Address) else parse_address(address)
        announcement = self.bgp.lookup(addr)
        if announcement is None:
            return []
        plan = self._plan_by_announcement.get(announcement.prefix)
        if plan is None:
            return []
        loss = self.config.packet_loss * 2
        routing = self.routing
        if not routing.active:
            path = self.topology.build_path(
                announcement.prefix, plan.category, plan.allocation
            )
            return [h for h in path.hops if rng.random() > loss]
        as_path = routing.path_of_asn(plan.asn, day, vantage)
        if not as_path:
            return []
        cut = routing.filter_cut(as_path) if routing.has_filtering else None
        routed_path = self.topology.build_routed_path(
            announcement.prefix,
            plan.category,
            plan.allocation,
            as_path,
            seed=self.config.seed,
        )
        allowances = (
            routing.transit_allowances(vantage) if routing.has_rate_limit else {}
        )
        bucketed = dynamics is not None and dynamics.buckets_active
        if bucketed:
            resolved_vantage = routing.resolve_vantage(vantage)
            when = float(day) + 0.5 if time is None else float(time)
        hops: list[IPv6Address] = []
        for position, (asn, segment) in enumerate(
            zip(as_path[1:], routed_path.segments), start=1
        ):
            if cut is not None and position >= cut:
                break  # the filter border blackholes everything past it
            allowance = allowances.get(asn, 1.0)
            for hop in segment:
                if rng.random() <= loss:
                    continue
                if allowance < 1.0:
                    if bucketed:
                        if not dynamics.transit_try_consume(resolved_vantage, asn, when):
                            continue  # the pool is drained until it refills
                    elif rng.random() >= allowance:
                        continue  # the upstream pool shed the TTL-exceeded reply
                hops.append(hop)
        return hops

    # ------------------------------------------------------------------ ground truth

    def aliased_prefixes(self) -> list[IPv6Prefix]:
        """Ground-truth aliased prefixes (for validation only)."""
        return [region.prefix for region in self.aliased_regions]

    def is_aliased_truth(self, address: "IPv6Address | int | str") -> bool:
        """Ground truth: does *address* fall inside an aliased region?"""
        return self._aliased_trie.lookup(address) is not None

    def asn_of(self, address: "IPv6Address | int | str") -> Optional[int]:
        """Origin AS of the announcement covering *address*."""
        return self.bgp.origin_asn(address)

    def hosts_by_role(self, *roles: HostRole) -> list[Host]:
        """All hosts having one of the given roles."""
        wanted = set(roles)
        return [h for h in self.hosts if h.role in wanted]

    def addresses_by_role(self, *roles: HostRole) -> list[IPv6Address]:
        """All bound addresses of hosts having one of the given roles."""
        return [a for h in self.hosts_by_role(*roles) for a in h.addresses]

    def all_bound_addresses(self) -> list[IPv6Address]:
        """Every individually bound address in the simulation."""
        return [IPv6Address(v) for v in self._host_by_address]

    def host_of(self, address: "IPv6Address | int | str") -> Optional[Host]:
        """The host owning *address*: bound host or covering aliased machine."""
        addr = address if isinstance(address, IPv6Address) else parse_address(address)
        host = self._host_by_address.get(addr.value)
        if host is not None:
            return host
        region = self._aliased_trie.lookup(addr)
        return region.host if region is not None else None

    def sample_aliased_addresses(self, count: int, rng: random.Random) -> list[IPv6Address]:
        """Sample addresses inside aliased regions.

        This models what DNS-derived sources observe for CDNs: enormous
        numbers of names resolving to distinct addresses of aliased prefixes.
        As in the real hitlist, those addresses are *clustered*: a region has
        a limited set of popular /64 pods (load-balancer blocks) and names map
        to pseudo-random addresses inside them, so the hitlist ends up with
        many addresses per /64 but mostly distinct /96s -- the density regime
        that makes multi-level /64 APD much cheaper than per-/96 probing.
        """
        if not self.aliased_regions or count <= 0:
            return []
        # Larger aliased regions (CDN /48s) host far more names than tiny /96s
        # or /120s, so sampling weights regions by their prefix size.
        weights = [float(129 - region.prefix.length) for region in self.aliased_regions]
        result = []
        for _ in range(count):
            region = rng.choices(self.aliased_regions, weights)[0]
            pods = self._aliased_pods.get(id(region))
            if pods is None:
                pods = []
                self._aliased_pods[id(region)] = pods
            # Keep roughly 15 addresses per pod by opening a new /64 pod with
            # probability 1/15 (always for the first draw of a region).
            if not pods or (region.prefix.length <= 60 and rng.random() < 1 / 15):
                pod_length = max(64, region.prefix.length)
                pods.append(
                    IPv6Prefix.of(random_address_in_prefix(region.prefix, rng), pod_length)
                )
            pod = rng.choice(pods)
            result.append(random_address_in_prefix(pod, rng))
        return result

    def plan_of_asn(self, asn: int) -> list[NetworkPlan]:
        """All allocation plans of one AS."""
        return [p for p in self.plans if p.asn == asn]

    @property
    def num_announced_prefixes(self) -> int:
        """Number of BGP announcements."""
        return len(self.bgp)

    @property
    def host_id_count(self) -> int:
        """Size of the host-id space (ids are dense, ``0 .. count-1``)."""
        return len(self._machines)
