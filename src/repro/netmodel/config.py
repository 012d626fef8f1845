"""Configuration of the simulated Internet.

The paper measures 55.1 M addresses over 25.5 k BGP prefixes and 10.9 k ASes.
Reproducing the pipeline does not require that absolute scale -- every result
we reproduce is about *relative* structure (cluster mix, share of aliased
addresses, heavy-tailed AS distributions, per-source stability).  The
configuration therefore defaults to a laptop-scale Internet a few orders of
magnitude smaller, with knobs to scale it up.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class InternetConfig:
    """Parameters of :class:`repro.netmodel.internet.SimulatedInternet`.

    Parameters
    ----------
    seed:
        Master seed; every derived random stream is seeded from it.
    num_ases:
        Number of autonomous systems (notable operators + Zipf tail).
    base_hosts_per_allocation:
        Host count scale: an AS of weight 1 gets roughly this many hosts per
        allocation; heavier ASes proportionally more.
    max_hosts_per_allocation:
        Hard cap per allocation so single CDNs stay tractable.
    aliased_region_rate:
        Probability that a cloud/CDN allocation contains aliased /48 regions,
        and (scaled down) that a hoster contains an aliased /64.
    aliased_regions_per_cdn_allocation:
        How many aliased /48s a cloud allocation announces (the paper sees
        189 aliased /48s from Amazon alone).
    packet_loss:
        Per-probe loss probability applied on top of host behaviour.
    icmp_rate_limited_share:
        Fraction of prefixes whose ICMP responses are rate limited.
    modern_linux_share:
        Fraction of hosts with per-destination randomised TCP timestamps.
    study_days:
        Length of the simulated measurement campaign in days.
    client_daily_uptime / cpe_daily_uptime / server_daily_uptime:
        Baseline probability of being online on a given day per role family.
    deaggregation_rate:
        Probability that an allocation is announced as several more-specific
        /48s instead of one aggregate.
    eyeball_tail_boost:
        Multiplier on the eyeball-ISP share of the anonymous long-tail AS
        population.  1.0 keeps the default category mix; larger values tilt
        the tail towards client/CPE networks (the EUI-64 CPE-flood regime of
        Rye & Levin), smaller values towards server networks.
    stochastic_anomalies:
        Whether to register the Section 5.1 anomaly regions (SYN proxy /80,
        ICMP rate-limited /120s) whose replies are random per probe.  Turn
        off -- together with ``packet_loss`` and ``icmp_rate_limited_share``
        -- to build an Internet without per-probe randomness.
    num_transit_ases:
        Number of tier-1 transit ASes in the routed AS-level topology
        (:mod:`repro.netmodel.asgraph`).  0 -- the default -- builds the
        degenerate single-homed graph: every AS hangs directly off the
        vantage point and probe resolution is bit-identical to the historical
        flat model (no path effects, no extra random draws).
    num_ixps:
        Number of IXP fabrics (peering cliques among transits, clouds and
        hosters).  Only meaningful with ``num_transit_ases > 0``.
    num_vantages:
        Number of measurement vantage ASes attached to the routed graph.
        Per-vantage dense path matrices are precomputed, so switching
        vantage costs nothing at probe time.
    vantage_index:
        Which vantage :meth:`~repro.netmodel.internet.SimulatedInternet.probe`
        and ``probe_batch`` use by default (taken modulo ``num_vantages``,
        so fuzzers can sample it independently).
    transit_congestion:
        Scale of per-edge congestion loss on inter-AS links.  A probe's
        delivery probability is the product of ``1 - congestion * weight``
        over the edges of its route; 0 disables congestion entirely (no
        draws).  Stochastic: zeroed by the deterministic anomaly mix.
    upstream_rate_limit:
        Scale of per-AS upstream ICMP rate limiting.  Each transit AS holds
        a token pool sized against the share of destinations it serves from
        the active vantage, so heavily loaded upstreams shed more ICMP --
        emergent, not hand-set.  Stochastic: zeroed by the deterministic mix.
    filtered_region:
        Index into :data:`repro.netmodel.asgraph.REGIONS` of a region whose
        border filters inbound probes (deterministic drop on every protocol),
        or -1 for no filtering.  Probes from a vantage inside the region are
        not filtered -- the Section 5 vantage-point dependence.
    bgp_churn_rate:
        Per-day probability that a destination's route flips to its
        alternate path (a keyed draw on seed, day and destination, so churn
        is deterministic per day).  Churn never flips a destination's
        filtered status -- an AS does not switch onto a blackholed route --
        so reachability stays day-stable.
    waves_per_day:
        Number of timestamped probe waves a daily scan is split into by the
        discrete-event layer (:mod:`repro.events`).  1 -- the default --
        keeps the historical whole-day tick: unless another sub-day knob is
        set, no event scheduler is built and every code path is
        bit-identical to the day-granular behaviour.
    icmp_bucket_capacity:
        Token-bucket capacity (in probes) of the deterministic ICMP rate
        limiters that replace the stateless Bernoulli draws when sub-day
        dynamics are on.  Each rate-limited prefix, anomaly region and
        transit pool gets a bucket scaled by its limit/allowance value; 0
        disables the buckets entirely (the degenerate case).
    icmp_bucket_refill_per_day:
        Token refill rate of those buckets, in probes per simulated day;
        limiters recover between probe waves at this rate (and fully
        overnight when it exceeds the daily drain).
    prefix_rotation_rate:
        Per-day probability that an eyeball CPE/client host rotates its
        delegated prefix (DHCPv6 churn).  A rotating host goes dark on its
        old addresses at a deterministic time within the day and answers on
        a fresh address in the same announced prefix -- mid-scan churn.
        Pure per-(host, day) hash, so both engines agree exactly; 0
        disables rotation.
    competing_scanners:
        Number of synthetic concurrent scanners charging the same ICMP
        token budgets ahead of each of our probe waves (the two-scanner
        interference regime).  0 -- the default -- models an uncontended
        measurement.
    """

    seed: int = 2018
    num_ases: int = 220
    base_hosts_per_allocation: int = 30
    max_hosts_per_allocation: int = 1200
    aliased_region_rate: float = 0.5
    aliased_regions_per_cdn_allocation: int = 6
    packet_loss: float = 0.015
    icmp_rate_limited_share: float = 0.02
    modern_linux_share: float = 0.45
    study_days: int = 30
    client_daily_uptime: float = 0.35
    cpe_daily_uptime: float = 0.80
    server_daily_uptime: float = 0.995
    deaggregation_rate: float = 0.25
    eyeball_tail_boost: float = 1.0
    stochastic_anomalies: bool = True
    num_transit_ases: int = 0
    num_ixps: int = 0
    num_vantages: int = 1
    vantage_index: int = 0
    transit_congestion: float = 0.0
    upstream_rate_limit: float = 0.0
    filtered_region: int = -1
    bgp_churn_rate: float = 0.0
    waves_per_day: int = 1
    icmp_bucket_capacity: float = 0.0
    icmp_bucket_refill_per_day: float = 0.0
    prefix_rotation_rate: float = 0.0
    competing_scanners: int = 0


#: Tiny Internet for unit tests: builds in well under a second.
SMALL_CONFIG = InternetConfig(num_ases=60, base_hosts_per_allocation=10, max_hosts_per_allocation=200)

#: Default experiment scale: thousands of prefixes, tens of thousands of hosts.
DEFAULT_CONFIG = InternetConfig()

#: Larger Internet for stress runs and scaling studies.
LARGE_CONFIG = InternetConfig(num_ases=600, base_hosts_per_allocation=60, max_hosts_per_allocation=4000)
