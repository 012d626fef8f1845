"""Tests for the sub-day discrete-event dynamics layer (repro.events).

Covers the scheduler's determinism contract, the token-bucket edge cases
(zero capacity, exact wave-boundary refills, oversized bursts, recovery
across a published service snapshot), reference-vs-batch wave parity with
rotation churn, a competing scanner's cost, and the degenerate whole-day
guarantee.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.addr.batch import AddressBatch
from repro.core.hitlist import HitlistService
from repro.events import EventScheduler, NetworkDynamics, TokenBucket
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import ScanScheduler, wave_spans
from repro.sources.registry import assemble_all_sources

# -- event scheduler ----------------------------------------------------------


class TestEventScheduler:
    def test_fires_in_time_order(self):
        fired = []
        scheduler = EventScheduler()
        scheduler.schedule(2.5, lambda: fired.append("late"))
        scheduler.schedule(0.25, lambda: fired.append("early"))
        scheduler.schedule(1.0, lambda: fired.append("mid"))
        assert scheduler.run_until(3.0) == 3
        assert fired == ["early", "mid", "late"]

    def test_equal_timestamps_fire_in_schedule_order(self):
        fired = []
        scheduler = EventScheduler()
        for tag in ("a", "b", "c", "d"):
            scheduler.schedule(1.0, lambda tag=tag: fired.append(tag))
        scheduler.run_until(1.0)
        assert fired == ["a", "b", "c", "d"]

    def test_run_until_is_inclusive_and_advances_clock(self):
        fired = []
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: fired.append(1.0))
        scheduler.schedule(1.5, lambda: fired.append(1.5))
        assert scheduler.run_until(1.0) == 1
        assert scheduler.now == 1.0
        assert len(scheduler) == 1  # the 1.5 event is still pending
        assert scheduler.run_until(2.0) == 1
        assert scheduler.now == 2.0  # horizon, not the last event's time

    def test_reentrant_scheduling_drains_within_horizon(self):
        fired = []
        scheduler = EventScheduler()

        def chain():
            fired.append("first")
            scheduler.schedule(0.5, lambda: fired.append("same-time"))
            scheduler.schedule(2.0, lambda: fired.append("beyond"))

        scheduler.schedule(0.5, chain)
        assert scheduler.run_until(1.0) == 2  # the 2.0 event stays queued
        assert fired == ["first", "same-time"]
        assert len(scheduler) == 1

    def test_backdated_events_fire_on_next_run(self):
        fired = []
        scheduler = EventScheduler()
        scheduler.run_until(5.0)
        scheduler.schedule(1.0, lambda: fired.append("past"))
        scheduler.run_until(5.0)
        assert fired == ["past"]
        assert scheduler.now == 5.0  # the clock never moves backwards


# -- token buckets (satellite: edge cases) ------------------------------------


class TestTokenBucket:
    def test_zero_capacity_denies_everything(self):
        bucket = TokenBucket(0.0, 100.0)
        assert bucket.grant(0.5, 10) == 0
        assert not bucket.try_consume(1.0)
        assert bucket.available(10.0) == 0  # refill caps at capacity 0

    def test_refill_exactly_on_wave_boundary(self):
        # capacity 5, 4 tokens/day, waves every 0.25 days: each boundary's
        # refill is exactly 1.0 token in real arithmetic and must not round
        # down to 0 under float accumulation.
        bucket = TokenBucket(5.0, 4.0)
        assert bucket.grant(0.0, 5) == 5  # drain the initial burst
        for wave in range(1, 9):
            now = wave * 0.25
            assert bucket.grant(now, 5) == 1, f"wave boundary {now}"

    def test_burst_larger_than_capacity_truncates(self):
        bucket = TokenBucket(8.0, 0.0)
        assert bucket.grant(0.1, 1000) == 8
        assert bucket.grant(0.2, 1) == 0  # nothing queued, nothing owed

    def test_clock_is_monotone(self):
        bucket = TokenBucket(4.0, 16.0)
        assert bucket.grant(0.5, 4) == 4
        # An earlier timestamp credits no refill (negative elapsed clamps).
        assert bucket.grant(0.25, 1) == 0
        assert bucket.grant(0.75, 4) == 4  # 0.25 days at 16/day

    def test_fractional_balance_floors(self):
        bucket = TokenBucket(10.0, 1.0)
        bucket.grant(0.0, 10)
        assert bucket.available(0.5) == 0  # 0.5 tokens is not a token
        assert bucket.available(1.0) == 1


# -- wave parity: reference vs batch engine -----------------------------------

DYNAMIC_CONFIG = InternetConfig(
    seed=7,
    num_ases=50,
    base_hosts_per_allocation=8,
    max_hosts_per_allocation=120,
    study_days=10,
    packet_loss=0.0,
    icmp_rate_limited_share=0.3,
    stochastic_anomalies=False,
    waves_per_day=4,
    icmp_bucket_capacity=16.0,
    icmp_bucket_refill_per_day=64.0,
    prefix_rotation_rate=0.3,
)


@pytest.fixture(scope="module")
def dynamic_internet() -> SimulatedInternet:
    return SimulatedInternet(DYNAMIC_CONFIG)


@pytest.fixture(scope="module")
def dynamic_targets(dynamic_internet) -> list:
    return sorted(dynamic_internet.all_bound_addresses())


class TestWaveParity:
    def test_reference_and_batch_engines_agree_exactly(
        self, dynamic_internet, dynamic_targets
    ):
        """Token buckets, rotation darkness and re-homed addresses all hit
        both engines identically: per-protocol responsive sets match, also
        when the batch engine's waves slice a resolution made beforehand."""
        net = dynamic_internet
        scheduler = ScanScheduler(net, ALL_PROTOCOLS, seed=11)
        ref = scheduler.run_day(
            dynamic_targets, 2, dynamics=NetworkDynamics.from_config(net, seed=3)
        )
        targets = AddressBatch.from_addresses(dynamic_targets)
        for given in (targets, net.resolve_targets(targets)):
            bat = scheduler.run_day_batch(
                given, 2, dynamics=NetworkDynamics.from_config(net, seed=3)
            )
            for protocol in ALL_PROTOCOLS:
                assert ref.responsive_on(protocol) == bat.responsive_on(protocol), protocol

    def test_wave_run_is_deterministic(self, dynamic_internet, dynamic_targets):
        net = dynamic_internet
        runs = [
            ScanScheduler(net, ALL_PROTOCOLS, seed=11).run_day_batch(
                AddressBatch.from_addresses(dynamic_targets),
                2,
                dynamics=NetworkDynamics.from_config(net, seed=3),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].responsive, runs[1].responsive)

    def test_buckets_shed_ICMP_but_not_tcp(self, dynamic_internet, dynamic_targets):
        """Draining buckets must lower ICMP responsiveness only: the other
        protocols never pass through the limiters."""
        net = dynamic_internet
        targets = AddressBatch.from_addresses(dynamic_targets)

        def run(dynamics):
            return ScanScheduler(net, ALL_PROTOCOLS, seed=11).run_day_batch(
                targets, 2, dynamics=dynamics
            )

        limited = run(NetworkDynamics.from_config(net, seed=3))
        unlimited = run(
            NetworkDynamics(
                net,
                waves_per_day=DYNAMIC_CONFIG.waves_per_day,
                bucket_capacity=0.0,
                bucket_refill_per_day=0.0,
                rotation_rate=DYNAMIC_CONFIG.prefix_rotation_rate,
                seed=3,
            )
        )
        assert limited.count_responsive(Protocol.ICMP) < unlimited.count_responsive(
            Protocol.ICMP
        )
        assert limited.count_responsive(Protocol.TCP80) == unlimited.count_responsive(
            Protocol.TCP80
        )

    def test_rotation_rehomes_hosts_mid_scan(self, dynamic_internet, dynamic_targets):
        """Rotated hosts go dark on their old addresses and answer on the new
        ones -- and both facts show up in the scan output."""
        net = dynamic_internet
        dynamics = NetworkDynamics.from_config(net, seed=3)
        dynamics.begin_day(2)
        rotations = dynamics.rehomed()
        assert rotations, "rotation rate 0.3 must rotate some eyeball hosts"
        for _, new_address, when in rotations:
            assert 2.0 <= when < 3.0
            assert net.bgp.lookup(new_address) is not None
        # After the last rotation fires, every rotated host reads as dark.
        dynamics.scheduler.run_until(3.0)
        host_ids = np.fromiter(
            (host.host_id for host, _, _ in rotations), np.int64, len(rotations)
        )
        assert bool(dynamics._dark[host_ids].all())
        # A late-wave scan sees some re-homed addresses answering.
        late = dynamics.begin_wave(
            2, 2.999, AddressBatch.from_addresses([a for _, a, _ in rotations])
        )
        assert late.has_rehomed

    def test_darkness_resets_overnight(self, dynamic_internet):
        dynamics = NetworkDynamics.from_config(dynamic_internet, seed=3)
        dynamics.begin_day(2)
        dynamics.scheduler.run_until(3.0)
        assert bool(dynamics._dark.any())
        dynamics.begin_day(3)
        rotated_today = {h.host_id for h, _, _ in dynamics.rehomed()}
        dark_now = set(np.nonzero(dynamics._dark)[0].tolist())
        assert dark_now <= rotated_today or not dark_now

    def test_wave_spans_cover_and_preserve_order(self):
        spans = wave_spans(10, 4)
        assert spans[0][0] == 0 and spans[-1][1] == 10
        assert all(a <= b for a, b in spans)
        assert [b for _, b in spans[:-1]] == [a for a, _ in spans[1:]]
        assert wave_spans(0, 4) == [(0, 0), (0, 0), (0, 0), (0, 0)]


# -- degenerate whole-day configuration ---------------------------------------


class TestDegenerateCase:
    def test_from_config_returns_none_when_all_knobs_default(self):
        config = InternetConfig(seed=5, num_ases=35)
        assert config.waves_per_day == 1
        internet = SimulatedInternet(config)
        assert NetworkDynamics.from_config(internet, seed=0) is None

    def test_inactive_dynamics_matches_plain_run(self, dynamic_internet):
        """A dynamics instance whose every knob is degenerate must not change
        a single bit of the scan output."""
        net = dynamic_internet
        targets = AddressBatch.from_addresses(sorted(net.all_bound_addresses())[:400])
        inert = NetworkDynamics(net, waves_per_day=1, seed=3)
        assert not inert.active
        scheduler = ScanScheduler(net, ALL_PROTOCOLS, seed=11)
        plain = scheduler.run_day_batch(targets, 1)
        gated = scheduler.run_day_batch(targets, 1, dynamics=inert)
        assert np.array_equal(plain.responsive, gated.responsive)


# -- recovery across a published snapshot (satellite) --------------------------


def _bucketed_config(refill: float) -> InternetConfig:
    return InternetConfig(
        seed=7,
        num_ases=40,
        base_hosts_per_allocation=8,
        max_hosts_per_allocation=100,
        study_days=10,
        packet_loss=0.0,
        icmp_rate_limited_share=0.5,
        stochastic_anomalies=False,
        waves_per_day=2,
        icmp_bucket_capacity=8.0,
        icmp_bucket_refill_per_day=refill,
    )


class TestRecoveryAcrossPublishedSnapshot:
    def test_buckets_recover_between_published_days(self):
        """The service's dynamics instance survives the publish boundary:
        with a healthy refill the buckets recover overnight, with zero
        refill day 1 starves on the tokens day 0 drained."""

        def run_two_days(refill):
            internet = SimulatedInternet(_bucketed_config(refill))
            assembly = assemble_all_sources(
                internet, total_target=1500, seed=13, runup_days=1
            )
            service = HitlistService(internet, assembly, seed=13)
            published = []
            service.add_publish_hook(lambda daily: published.append(daily.day))
            days = service.run_days([0, 1])
            assert published == [0, 1]  # hooks fire at the publish boundary
            assert service._dynamics is not None and service._dynamics.active
            return [d.scan_result.count_responsive(Protocol.ICMP) for d in days]

        recovering = run_two_days(refill=64.0)
        starving = run_two_days(refill=0.0)
        # Day 0 is identical: both start from full buckets.
        assert recovering[0] == starving[0]
        # Zero refill: day 1 pays for day 0's drain, strictly fewer answers.
        assert starving[1] < starving[0]
        # Healthy refill recovers overnight: day 1 beats the starved twin.
        assert recovering[1] > starving[1]


# -- scanner contention --------------------------------------------------------


class TestCompetingScanners:
    def test_a_rival_costs_icmp_answers_on_both_engines(self, dynamic_internet, dynamic_targets):
        """``competing_scanners`` (the scanner-contention preset's knob)
        charges every ICMP bucket with a rival's arrivals ahead of ours: one
        rival costs ICMP answers, leaves every other protocol alone, and both
        engines agree on every probe."""
        rivalled = SimulatedInternet(replace(DYNAMIC_CONFIG, competing_scanners=1))
        targets = AddressBatch.from_addresses(dynamic_targets)
        scans = []
        for net in (dynamic_internet, rivalled):
            scheduler = ScanScheduler(net, ALL_PROTOCOLS, seed=11)
            ref = scheduler.run_day(
                dynamic_targets, 2, dynamics=NetworkDynamics.from_config(net, seed=3)
            )
            bat = scheduler.run_day_batch(
                targets, 2, dynamics=NetworkDynamics.from_config(net, seed=3)
            )
            assert np.array_equal(ref.responsive, bat.responsive)
            scans.append(bat)
        solo, contended = scans
        assert contended.count_responsive(Protocol.ICMP) < solo.count_responsive(Protocol.ICMP)
        others = [j for j, p in enumerate(ALL_PROTOCOLS) if p is not Protocol.ICMP]
        assert np.array_equal(contended.responsive[:, others], solo.responsive[:, others])
