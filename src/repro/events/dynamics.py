"""Sub-day network dynamics: token buckets, prefix rotation, probe waves.

:class:`NetworkDynamics` owns the mutable between-and-within-day state that
the immutable :class:`~repro.netmodel.internet.SimulatedInternet` cannot
carry: deterministic token-bucket ICMP rate limiters (per rate-limited
prefix, per anomaly region, per transit pool), DHCPv6/prefix-rotation churn
events that re-home eyeball hosts mid-scan, and the
:class:`~repro.events.scheduler.EventScheduler` that drives both.  One
instance belongs to one scanning service -- the reference and batch engines
each build their own, identically seeded, so exact cross-engine parity
holds by construction.

Wave admission
--------------

Scan days split into timestamped probe waves.  At each wave start,
:meth:`NetworkDynamics.begin_wave` runs the scheduler up to the wave's
timestamp (firing any pending rotation events) and charges the wave's ICMP
arrivals against the token buckets *once*, in sorted address order
("lowest addresses win" -- an order-independent rule, which is what lets
the scalar engine's shuffled probe loop and the batch engine's array pass
agree exactly).  Limiters compose serially -- transit pool, then
rate-limited prefix, then anomaly region -- and a probe dropped upstream
never charges a downstream bucket.  With ``competing_scanners > 0`` each
bucket is pre-charged with the synthetic rivals' arrivals ahead of ours.

Prefix rotation
---------------

Rotation is a pure per-(host, day) hash: an eligible eyeball CPE/client
host rotates on a given day with probability ``prefix_rotation_rate``, at a
deterministic fractional time.  From that moment its old bound addresses go
dark for the rest of the day (sources are assumed to re-learn current
addresses overnight, so darkness resets at the next ``begin_day``) and a
fresh address inside the same announced prefix answers instead -- the
mid-scan churn the residential-broadband literature documents.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.addr.batch import AddressBatch, find128
from repro.addr.generate import random_address_in_prefix
from repro.events.scheduler import EventScheduler
from repro.events.tokenbucket import TokenBucket
from repro.netmodel.asregistry import ASCategory
from repro.netmodel.services import HostRole

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.addr.address import IPv6Address
    from repro.netmodel.host import Host
    from repro.netmodel.internet import SimulatedInternet

_LO_MASK = (1 << 64) - 1
_MASK64 = (1 << 64) - 1
_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MIX3 = 0x94D049BB133111EB

#: Salts separating the independent per-(host, day) hash streams.
_SALT_ROTATES = 0x0A
_SALT_WHEN = 0x0B

_EMPTY_U64 = np.zeros(0, dtype=np.uint64)


def _hash01(ids: np.ndarray, day: int, seed: int, salt: int) -> np.ndarray:
    """Uniform [0, 1) draws, a pure function of (id, day, seed, salt).

    Same splitmix-style mixer as the routing layer's churn hash, so both
    engines -- and any chunked re-evaluation -- agree bit for bit.
    """
    mix = ((day + 1) * _MIX2 + (seed & 0xFFFFFFFF) + salt * _MIX3) & _MASK64
    h = ids.astype(np.uint64) * np.uint64(_MIX1)
    h += np.uint64(mix)
    h ^= h >> np.uint64(31)
    h *= np.uint64(_MIX3)
    return (h >> np.uint64(40)).astype(np.float64) / float(1 << 24)


class WaveAdmission:
    """One probe wave's view of the dynamics state.

    Carries the wave timestamp, the precomputed ICMP token-bucket admission
    over the wave's targets (sorted address order), and lookups into the
    day's rotation state (dark hosts, re-homed addresses).  Both probe
    engines consult the same instance, so their outcomes cannot drift.
    """

    __slots__ = (
        "day",
        "time",
        "buckets_active",
        "has_dark",
        "has_rehomed",
        "_hi",
        "_lo",
        "_admitted",
        "_re_active",
        "_dyn",
    )

    def __init__(self, dynamics: "NetworkDynamics", day: int, time: float):
        self.day = day
        self.time = float(time)
        self._dyn = dynamics
        self.buckets_active = False
        self._hi = _EMPTY_U64
        self._lo = _EMPTY_U64
        self._admitted = np.zeros(0, dtype=bool)
        dark = dynamics._dark
        self.has_dark = dark is not None and bool(dark.any())
        if dynamics._re_time.size:
            self._re_active = dynamics._re_time <= self.time
            self.has_rehomed = bool(self._re_active.any())
        else:
            self._re_active = np.zeros(0, dtype=bool)
            self.has_rehomed = False

    # -- token-bucket admission -------------------------------------------------

    def admitted_for(self, targets: AddressBatch) -> np.ndarray:
        """Per-target ICMP admission (True where the buckets let it through).

        Targets outside the wave default to admitted: admission is only
        defined over the wave the buckets were charged for.
        """
        pos = find128(self._hi, self._lo, targets.hi, targets.lo)
        return np.where(pos >= 0, self._admitted[np.maximum(pos, 0)], True)

    def admitted_value(self, value: int) -> bool:
        """Scalar counterpart of :meth:`admitted_for` (one address value)."""
        pos = find128(
            self._hi,
            self._lo,
            np.asarray([value >> 64], dtype=np.uint64),
            np.asarray([value & _LO_MASK], dtype=np.uint64),
        )
        p = int(pos[0])
        return True if p < 0 else bool(self._admitted[p])

    # -- rotation darkness ------------------------------------------------------

    def is_dark(self, host_id: int) -> bool:
        """Has this host rotated away from its bound addresses by now?"""
        return self.has_dark and bool(self._dyn._dark[host_id])

    def dark_of(self, host_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_dark` over an array of host ids."""
        return self._dyn._dark[host_ids]

    # -- re-homed addresses -----------------------------------------------------

    def rehome_ids(self, targets: AddressBatch) -> np.ndarray:
        """Id of the host re-homed onto each target by now, -1 where none is
        (defined while :attr:`has_rehomed` holds)."""
        dyn = self._dyn
        pos = find128(dyn._re_hi, dyn._re_lo, targets.hi, targets.lo)
        row = np.maximum(pos, 0)
        return np.where((pos >= 0) & self._re_active[row], dyn._re_ids[row], np.int64(-1))

    def rehomed_host(self, value: int) -> "Optional[Host]":
        """The host answering on a re-homed address value, if one is active."""
        if not self.has_rehomed:
            return None
        dyn = self._dyn
        pos = find128(
            dyn._re_hi,
            dyn._re_lo,
            np.asarray([value >> 64], dtype=np.uint64),
            np.asarray([value & _LO_MASK], dtype=np.uint64),
        )
        p = int(pos[0])
        if p < 0 or not self._re_active[p]:
            return None
        return dyn._re_hosts[p]


class NetworkDynamics:
    """Per-service sub-day dynamics over one simulated Internet."""

    def __init__(
        self,
        internet: "SimulatedInternet",
        *,
        waves_per_day: int = 1,
        bucket_capacity: float = 0.0,
        bucket_refill_per_day: float = 0.0,
        rotation_rate: float = 0.0,
        competing_scanners: int = 0,
        seed: int = 0,
    ):
        self.internet = internet
        self.waves_per_day = max(1, int(waves_per_day))
        self.bucket_capacity = max(0.0, float(bucket_capacity))
        self.bucket_refill_per_day = max(0.0, float(bucket_refill_per_day))
        self.rotation_rate = max(0.0, float(rotation_rate))
        self.competing_scanners = max(0, int(competing_scanners))
        self.seed = int(seed)
        self.scheduler = EventScheduler()
        self._index = internet._ensure_batch_index()
        # --- token buckets: one per rate-limited domain, scaled by its limit.
        cap, refill = self.bucket_capacity, self.bucket_refill_per_day
        self._trie_buckets: list[TokenBucket] = []
        self._region_buckets: dict[int, TokenBucket] = {}
        self._transit_buckets: dict[tuple[int, int], TokenBucket] = {}
        if cap > 0.0:
            self._trie_buckets = [
                TokenBucket(cap * value, refill * value)
                for value in self._index.limit_values.tolist()
            ]
            for row, region in enumerate(internet.aliased_regions):
                if region.icmp_rate_limit is not None:
                    limit = region.icmp_rate_limit
                    self._region_buckets[row] = TokenBucket(cap * limit, refill * limit)
            routing = internet.routing
            if routing.has_rate_limit:
                for vantage in range(len(routing.vantage_asns)):
                    for asn, allowance in routing.transit_allowances(vantage).items():
                        self._transit_buckets[(vantage, asn)] = TokenBucket(
                            cap * allowance, refill * allowance
                        )
        self.buckets_active = bool(
            self._trie_buckets or self._region_buckets or self._transit_buckets
        )
        # --- rotation churn: eligible eyeball CPE/client hosts.
        self._eligible_hosts: list = []
        self._dark: Optional[np.ndarray] = None
        if self.rotation_rate > 0.0:
            eyeball = {
                d.asn.number
                for d in internet.registry
                if d.category is ASCategory.EYEBALL_ISP
            }
            self._eligible_hosts = [
                h
                for h in internet.hosts
                if h.role in (HostRole.CPE, HostRole.CLIENT) and h.asn in eyeball
            ]
            self._dark = np.zeros(internet.host_id_count, dtype=bool)
        self._eligible_ids = np.fromiter(
            (h.host_id for h in self._eligible_hosts),
            dtype=np.uint64,
            count=len(self._eligible_hosts),
        )
        # --- per-day re-home table (rebuilt by begin_day).
        self._current_day: Optional[int] = None
        self._re_hi = _EMPTY_U64
        self._re_lo = _EMPTY_U64
        self._re_time = np.zeros(0, dtype=float)
        self._re_ids = np.zeros(0, dtype=np.int64)
        self._re_hosts: list = []

    @classmethod
    def from_config(
        cls, internet: "SimulatedInternet", seed: int = 0
    ) -> "Optional[NetworkDynamics]":
        """Dynamics for a service, or None when every sub-day knob is default.

        Returning None for the whole-day, zero-event configuration is the
        degenerate-case guarantee: no scheduler is built, no code path
        changes, behaviour stays bit-identical to the day-granular model.
        """
        cfg = internet.config
        if (
            cfg.waves_per_day <= 1
            and cfg.prefix_rotation_rate <= 0.0
            and cfg.icmp_bucket_capacity <= 0.0
        ):
            return None
        return cls(
            internet,
            waves_per_day=cfg.waves_per_day,
            bucket_capacity=cfg.icmp_bucket_capacity,
            bucket_refill_per_day=cfg.icmp_bucket_refill_per_day,
            rotation_rate=cfg.prefix_rotation_rate,
            competing_scanners=cfg.competing_scanners,
            seed=seed,
        )

    @property
    def active(self) -> bool:
        """Does this instance change anything over the day-granular model?"""
        return (
            self.waves_per_day > 1 or self.buckets_active or self.rotation_rate > 0.0
        )

    def wave_time(self, day: int, wave: int, phase: float = 0.5) -> float:
        """Timestamp of wave *wave* of *day* (phase 0.5 = mid-slot).

        With one wave per day and the default phase this lands on noon --
        the historical scalar probe's default time of day.
        """
        return float(day) + (wave + phase) / self.waves_per_day

    # -- day lifecycle ----------------------------------------------------------

    def begin_day(self, day: int) -> None:
        """Enter *day*: reset rotation darkness and schedule the day's churn.

        Idempotent per day.  Rotation is a pure per-(host, day) hash, so the
        reference and batch engines -- each owning their own instance --
        schedule identical event streams.
        """
        day = int(day)
        if self._current_day == day:
            return
        self._current_day = day
        if self._dark is not None:
            self._dark[:] = False
        self._re_hi = _EMPTY_U64
        self._re_lo = _EMPTY_U64
        self._re_time = np.zeros(0, dtype=float)
        self._re_ids = np.zeros(0, dtype=np.int64)
        self._re_hosts = []
        if self.rotation_rate <= 0.0 or self._eligible_ids.size == 0:
            return
        draws = _hash01(self._eligible_ids, day, self.seed, _SALT_ROTATES)
        rotating = np.nonzero(draws < self.rotation_rate)[0]
        if rotating.size == 0:
            return
        fracs = _hash01(self._eligible_ids[rotating], day, self.seed, _SALT_WHEN)
        entries: list[tuple[int, float, object]] = []
        for i, frac in zip(rotating.tolist(), fracs.tolist()):
            host = self._eligible_hosts[i]
            when = day + frac
            self.scheduler.schedule(when, self._make_rotation(host.host_id))
            announcement = self.internet.bgp.lookup(host.primary_address)
            if announcement is None:
                continue  # unrouted host: it goes dark but nothing re-homes
            rng = random.Random(
                (self.seed & _MASK64) ^ (host.host_id * _MIX1) ^ ((day + 1) * _MIX2)
            )
            new_address = random_address_in_prefix(announcement.prefix, rng)
            entries.append((new_address.value, when, host))
        if not entries:
            return
        entries.sort(key=lambda e: e[0])
        n = len(entries)
        self._re_hi = np.fromiter((v >> 64 for v, _, _ in entries), np.uint64, n)
        self._re_lo = np.fromiter((v & _LO_MASK for v, _, _ in entries), np.uint64, n)
        self._re_time = np.fromiter((t for _, t, _ in entries), float, n)
        self._re_ids = np.fromiter((h.host_id for _, _, h in entries), np.int64, n)
        self._re_hosts = [h for _, _, h in entries]

    def _make_rotation(self, host_id: int):
        def fire() -> None:
            self._dark[host_id] = True

        return fire

    def rehomed(self) -> "list[tuple[Host, IPv6Address, float]]":
        """Ground truth: the current day's (host, new address, time) rotations."""
        from repro.addr.address import IPv6Address

        values = (self._re_hi.astype(object) << 64) | self._re_lo.astype(object)
        return [
            (host, IPv6Address(int(value)), float(when))
            for host, value, when in zip(
                self._re_hosts, values, self._re_time.tolist()
            )
        ]

    # -- wave admission ---------------------------------------------------------

    def begin_wave(
        self,
        day: int,
        time: float,
        targets: "AddressBatch | Iterable",
        vantage: Optional[int] = None,
    ) -> WaveAdmission:
        """Advance the clock to *time* and admit the wave's ICMP arrivals."""
        if not isinstance(targets, AddressBatch):
            targets = AddressBatch.from_addresses(targets)
        self.begin_day(day)
        self.scheduler.run_until(time)
        wave = WaveAdmission(self, int(day), time)
        if self.buckets_active and len(targets):
            self._admit(wave, int(day), float(time), targets, vantage)
        return wave

    def _admit(
        self,
        wave: WaveAdmission,
        day: int,
        time: float,
        targets: AddressBatch,
        vantage: Optional[int],
    ) -> None:
        """Charge the buckets for this wave, lowest addresses first."""
        index = self._index
        order = targets.argsort()
        srt = targets.take(order)
        n = len(srt)
        admitted = np.ones(n, dtype=bool)
        ann = index.bgp.lookup_indices(srt)
        arrives = ann >= 0  # unrouted probes never reach any limiter
        routing = self.internet.routing
        if self._transit_buckets and routing.active:
            dest = np.where(arrives, index.ann_dest_row[np.maximum(ann, 0)], np.int64(-1))
            upstreams = routing.day_upstreams(day, vantage)
            pools = np.where(dest >= 0, upstreams[np.maximum(dest, 0)], np.int64(-1))
            v = routing.resolve_vantage(vantage)
            self._charge(
                admitted, arrives, pools, lambda asn: self._transit_buckets.get((v, asn)), time
            )
        if self._trie_buckets:
            keys = index.limits.lookup_indices(srt)
            self._charge(
                admitted,
                arrives,
                keys,
                lambda k: self._trie_buckets[k],
                time,
            )
        if self._region_buckets:
            keys = index.regions.lookup_indices(srt)
            self._charge(admitted, arrives, keys, self._region_buckets.get, time)
        wave.buckets_active = True
        wave._hi = srt.hi
        wave._lo = srt.lo
        wave._admitted = admitted

    def _charge(self, admitted, arrives, keys, bucket_of, time: float) -> None:
        """Charge one limiter family: per bucket, grant lowest addresses first.

        ``keys`` maps each sorted target to a bucket id (-1 = outside the
        family); only still-admitted arrivals charge a bucket, so serially
        composed limiters never bill a probe an upstream one already shed.
        """
        live = arrives & admitted & (keys >= 0)
        if not live.any():
            return
        for key in np.unique(keys[live]).tolist():
            bucket = bucket_of(key)
            if bucket is None:
                continue
            idx = np.nonzero(live & (keys == key))[0]
            if self.competing_scanners:
                bucket.grant(time, self.competing_scanners * int(idx.size))
            granted = bucket.grant(time, int(idx.size))
            if granted < idx.size:
                admitted[idx[granted:]] = False

    # -- traceroute support -----------------------------------------------------

    def transit_try_consume(self, vantage: int, asn: int, time: float) -> bool:
        """One TTL-exceeded reply's claim on a transit pool (True = granted)."""
        bucket = self._transit_buckets.get((vantage, asn))
        if bucket is None:
            return True
        if self.competing_scanners:
            bucket.grant(time, self.competing_scanners)
        return bucket.try_consume(time)
