"""Seeded parity of the incremental batch hitlist service vs the reference loop.

Both :class:`HitlistService` engines make the same keyed draw for every
stochastic effect and probe each APD candidate on its membership epoch, so
the incremental engine -- day-window merges, APD verdict reuse, one
``probe_batch`` scan -- must publish exactly the same responsive sets,
aliased prefix lists and provenance as rebuilding everything from scratch
each day: on a deterministic Internet, and on a lossy one with stochastic
anomaly regions (:class:`TestStochasticServiceParity`).
"""

import dataclasses

import numpy as np
import pytest

from repro.addr.address import IPv6Address
from repro.analysis.longitudinal import responsiveness_over_time
from repro.core.apd import APDConfig
from repro.core.hitlist import Hitlist, HitlistService
from repro.exec import ExecutionPolicy
from repro.experiments import table4
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.scenarios import build
from repro.sources.base import HitlistSource, SourceRecord
from repro.sources.registry import SourceAssembly, assemble_all_sources

#: Deterministic small Internet: every probe outcome is a pure function of
#: (target, protocol, day).
DETERMINISTIC_CONFIG = InternetConfig(
    seed=7,
    num_ases=60,
    base_hosts_per_allocation=10,
    max_hosts_per_allocation=200,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

DAYS = list(range(6))


class ScriptedSource(HitlistSource):
    """A source with a hand-written record timeline (no sampling)."""

    def __init__(self, name: str, records_by_day: dict[int, list[IPv6Address]]):
        self.name = name
        self._records = [
            SourceRecord(address, name, day)
            for day, addresses in sorted(records_by_day.items())
            for address in addresses
        ]
        self._records.sort(key=lambda r: (r.first_seen_day, r.address.value))
        self._record_arrays = None
        self.runup_days = max(records_by_day) + 1 if records_by_day else 0

    def _draw_addresses(self, rng):  # pragma: no cover - records are scripted
        return []


@pytest.fixture(scope="module")
def deterministic_internet() -> SimulatedInternet:
    return SimulatedInternet(DETERMINISTIC_CONFIG)


@pytest.fixture(scope="module")
def scripted_assembly(deterministic_internet) -> SourceAssembly:
    """Base sources (all records on day 0) plus two scripted late sources.

    The ``invader`` source adds >100 addresses on day 3 *inside a prefix that
    the service already labelled aliased on day 0* -- the membership change
    must force a re-probe without breaking parity.  The ``late`` source adds
    bound-host addresses on day 4.
    """
    internet = deterministic_internet
    base = assemble_all_sources(internet, total_target=2500, seed=13, runup_days=1)
    pilot = HitlistService(internet, base, seed=13)
    day0 = pilot.run_day(0)
    assert day0.aliased_prefixes, "pilot day 0 must detect aliased prefixes"
    target_prefix = next(p for p in day0.aliased_prefixes if p.length <= 104)
    invader = ScriptedSource(
        "invader",
        {
            0: [IPv6Address(target_prefix.network | 0x1FF)],
            3: [IPv6Address(target_prefix.network | (0x200 + i)) for i in range(150)],
        },
    )
    late = ScriptedSource(
        "late",
        {4: internet.all_bound_addresses()[:120]},
    )
    assembly = SourceAssembly(
        internet=internet, sources=list(base.sources) + [invader, late]
    )
    return assembly, target_prefix


@pytest.fixture(scope="module")
def echo_engines(deterministic_internet):
    """Both engines over sources that run up over days 0-2, plus an ``echo``
    source that re-reports 50 addresses of the day-1 hitlist on day 4: a day
    that merges records but adds no row, so only provenance changes."""
    internet = deterministic_internet
    base = assemble_all_sources(internet, total_target=2500, seed=13, runup_days=3)
    known = Hitlist.from_assembly(base, day=1).addresses
    echo = ScriptedSource("echo", {4: known[:: len(known) // 50][:50]})
    assembly = SourceAssembly(internet=internet, sources=list(base.sources) + [echo])
    batch = HitlistService(internet, assembly, seed=13)
    reference = HitlistService(
        internet, assembly, seed=13, policy=ExecutionPolicy(reference=True)
    )
    return batch.run_days(DAYS), reference.run_days(DAYS)


@pytest.fixture(scope="module")
def both_engines(deterministic_internet, scripted_assembly):
    assembly, target_prefix = scripted_assembly
    batch = HitlistService(deterministic_internet, assembly, seed=13)
    reference = HitlistService(
        deterministic_internet, assembly, seed=13, policy=ExecutionPolicy(reference=True)
    )
    return (
        batch.run_days(DAYS),
        reference.run_days(DAYS),
        batch,
        reference,
        target_prefix,
    )


class TestServiceParity:
    def test_responsive_sets_identical(self, both_engines):
        batch_days, reference_days, *_ = both_engines
        for db, dr in zip(batch_days, reference_days):
            assert db.responsive_addresses == dr.responsive_addresses, db.day
            assert db.count_responsive() == dr.count_responsive()

    def test_aliased_prefix_lists_identical(self, both_engines):
        batch_days, reference_days, *_ = both_engines
        for db, dr in zip(batch_days, reference_days):
            assert db.aliased_prefixes == dr.aliased_prefixes, db.day

    def test_inputs_and_targets_identical(self, both_engines):
        batch_days, reference_days, *_ = both_engines
        for db, dr in zip(batch_days, reference_days):
            assert db.input_addresses == dr.input_addresses, db.day
            assert db.num_scan_targets == dr.num_scan_targets, db.day
            assert sorted(a.value for a in db.scan_targets) == sorted(
                a.value for a in dr.scan_targets
            )

    def test_provenance_identical(self, both_engines):
        batch_days, reference_days, *_ = both_engines
        for db, dr in zip(batch_days, reference_days):
            assert db.hitlist.provenance() == dr.hitlist.provenance(), db.day

    def test_provenance_equals_the_records_definition(self, both_engines, scripted_assembly):
        """Both engines build every hitlist through ``Hitlist.merge_records``,
        so their parity misses a merge fault they share.  Each day's rows
        must equal their definition from the source records: the sources
        that listed the address by that day and its earliest first-seen day,
        with every source's bit registered in assembly order (``late`` lists
        nothing before day 4)."""
        batch_days, reference_days, *_ = both_engines
        assembly, _ = scripted_assembly
        names = [source.name for source in assembly.sources]
        for day in DAYS:
            listed: dict[int, set[str]] = {}
            first: dict[int, int] = {}
            for source in assembly.sources:
                for record in source.records:
                    if record.first_seen_day > day:
                        continue
                    value = record.address.value
                    listed.setdefault(value, set()).add(source.name)
                    first[value] = min(first.get(value, day), record.first_seen_day)
            expected = {value: (frozenset(s), first[value]) for value, s in listed.items()}
            for daily in (batch_days[day], reference_days[day]):
                assert daily.day == day
                assert daily.hitlist.provenance() == expected, day
                assert daily.hitlist.source_names == names, day

    def test_invaded_aliased_prefix_reprobed_on_day3(self, both_engines):
        batch_days, _, batch, _, target_prefix = both_engines
        # The prefix is aliased before, during and after the invasion.
        for daily in batch_days:
            assert target_prefix in daily.aliased_prefixes, daily.day
        # The invading addresses never reach the scan target list.
        day3 = batch_days[3]
        invaded = {target_prefix.network | (0x200 + i) for i in range(150)}
        assert not invaded & {a.value for a in day3.scan_targets}
        assert invaded <= set(day3.hitlist.provenance())

    def test_incremental_reuse_probes_less(self, both_engines):
        _, _, batch, reference, _ = both_engines
        # Days 1 and 2 bring no new records: nothing may be re-probed.
        assert batch.apd_probe_counts[1] == 0
        assert batch.apd_probe_counts[2] == 0
        # Invasion day must re-probe something, but far less than a full run.
        assert 0 < batch.apd_probe_counts[3] < reference.apd_probe_counts[3]

    def test_responsive_over_time_identical(self, both_engines):
        _, _, batch, reference, _ = both_engines
        assert dict(batch.responsive_over_time()) == dict(
            reference.responsive_over_time()
        )

    def test_longitudinal_batch_path_matches_scalar(self, both_engines):
        batch_days, reference_days, batch, reference, _ = both_engines
        groups = {
            "all": batch_days[0].scan_targets,
            "subset": batch_days[0].scan_targets[::3],
            "empty": [],
        }
        fast = responsiveness_over_time(batch.campaign(), groups)
        slow = responsiveness_over_time(reference.campaign(), groups)
        for tf, ts in zip(fast, slow):
            assert tf.group == ts.group
            assert tf.baseline_size == ts.baseline_size
            assert np.allclose(tf.retention, ts.retention)

    def test_table4_reads_service_history(self, both_engines):
        _, _, batch, _, _ = both_engines
        result = table4.run_from_service(batch, windows=range(3))
        assert [s.window for s in result.stats] == [0, 1, 2]
        assert all(s.total_prefixes > 0 for s in result.stats)

    def test_known_address_day_publishes_new_provenance(self, echo_engines):
        """A day whose only records re-report known addresses adds no row
        but changes their source sets: the batch engine must not publish
        the previous day's provenance on it or after it."""
        batch_days, reference_days = echo_engines
        for db, dr in zip(batch_days, reference_days):
            assert db.hitlist.provenance() == dr.hitlist.provenance(), db.day
        assert batch_days[4].input_addresses == batch_days[3].input_addresses
        provenance = batch_days[4].hitlist.provenance()
        assert sum("echo" in sources for sources, _ in provenance.values()) == 50


#: The same small Internet with loss, ICMP rate limiting and the stochastic
#: anomaly regions (SYN proxy, rate-limited /120s) switched on.
STOCHASTIC_CONFIG = dataclasses.replace(
    DETERMINISTIC_CONFIG,
    packet_loss=0.05,
    icmp_rate_limited_share=0.3,
    stochastic_anomalies=True,
)


@pytest.fixture(scope="module")
def stochastic_engines():
    """Both engines over a lossy world whose sources run up over days 0-2;
    a scripted source adds rows on day 4, so days 3 and 5 add none."""
    internet = SimulatedInternet(STOCHASTIC_CONFIG)
    base = assemble_all_sources(internet, total_target=2500, seed=13, runup_days=3)
    late = ScriptedSource("late", {4: internet.all_bound_addresses()[:150]})
    assembly = SourceAssembly(internet=internet, sources=list(base.sources) + [late])
    batch = HitlistService(internet, assembly, seed=13)
    reference = HitlistService(
        internet, assembly, seed=13, policy=ExecutionPolicy(reference=True)
    )
    return batch.run_days(DAYS), reference.run_days(DAYS), batch, internet


class TestStochasticServiceParity:
    def test_published_state_identical(self, stochastic_engines):
        batch_days, reference_days, *_ = stochastic_engines
        for db, dr in zip(batch_days, reference_days):
            assert db.aliased_prefixes == dr.aliased_prefixes, db.day
            assert db.responsive_addresses == dr.responsive_addresses, db.day
            assert db.hitlist.provenance() == dr.hitlist.provenance(), db.day

    def test_days_without_new_rows_reuse_every_verdict(self, stochastic_engines):
        """On a day that adds no rows the fast engine probes nothing, and the
        reference engine -- which probes everything -- lands on the very same
        outcomes, because each prefix is probed on its membership epoch."""
        batch_days, reference_days, batch, _ = stochastic_engines
        for day in (3, 5):
            assert batch.apd_probe_counts[day] == 0
            reference = reference_days[day].apd_result.outcomes
            reused = batch_days[day].apd_result.outcomes
            assert list(reference) == list(reused)
            for prefix, outcome in reference.items():
                assert outcome.day == reused[prefix].day < day
                assert outcome.targets == reused[prefix].targets
                assert outcome.branch_responses == reused[prefix].branch_responses

    def test_skipped_days_probe_on_membership_epochs(self, stochastic_engines):
        """A first day that merges a whole run-up, and a day after a gap,
        re-probe prefixes whose rows arrived on earlier days: both engines
        probe each on its membership epoch, not on the day that merged it."""
        *_, internet = stochastic_engines
        base = assemble_all_sources(internet, total_target=2500, seed=13, runup_days=3)
        late = ScriptedSource("late", {4: internet.all_bound_addresses()[:150]})
        assembly = SourceAssembly(internet=internet, sources=list(base.sources) + [late])
        days = [2, 5]
        batch = HitlistService(internet, assembly, seed=13).run_days(days)
        reference = HitlistService(
            internet, assembly, seed=13, policy=ExecutionPolicy(reference=True)
        ).run_days(days)
        for db, dr in zip(batch, reference):
            assert db.aliased_prefixes == dr.aliased_prefixes, db.day
            assert db.responsive_addresses == dr.responsive_addresses, db.day
            for prefix, outcome in dr.apd_result.outcomes.items():
                assert outcome.targets == db.apd_result.outcomes[prefix].targets
        epochs = {o.day for o in batch[-1].apd_result.outcomes.values()}
        assert {0, 4} <= epochs and 5 not in epochs

    def test_the_world_is_stochastic(self, stochastic_engines):
        batch_days, _, _, internet = stochastic_engines
        assert any(r.syn_proxy and r.stochastic for r in internet.aliased_regions)
        assert any(r.icmp_rate_limit and r.stochastic for r in internet.aliased_regions)
        assert len(internet._icmp_rate_limited) > 0
        assert batch_days[4].hitlist.source_names[-1] == "late"


class TestResolutionReuse:
    """The batch engine resolves its scan targets (one cell search per
    target batch) only when it rebuilds its published state."""

    #: The tiny tier's sources report records on days 0-24 only.
    RUNUP_DAYS = 25

    def test_days_without_records_resolve_no_targets(self, monkeypatch):
        resolutions: list[int] = []
        resolve = SimulatedInternet.resolve_targets

        def counting(internet, targets):
            resolved = resolve(internet, targets)
            resolutions.append(len(resolved))
            return resolved

        monkeypatch.setattr(SimulatedInternet, "resolve_targets", counting)
        batch = build("service", "baseline", scale="tiny", seed=7)
        reference = build(
            "service", "baseline", scale="tiny", seed=7, policy=ExecutionPolicy(reference=True)
        )
        made = {}
        for day in range(self.RUNUP_DAYS + 15):
            before = len(resolutions)
            db = batch.run_day(day)
            made[day] = len(resolutions) - before
            dr = reference.run_day(day)
            assert db.aliased_prefixes == dr.aliased_prefixes, day
            assert db.responsive_addresses == dr.responsive_addresses, day
            assert db.hitlist.provenance() == dr.hitlist.provenance(), day
        assert all(made[day] >= 1 for day in range(self.RUNUP_DAYS)), made
        assert all(made[day] == 0 for day in range(self.RUNUP_DAYS, self.RUNUP_DAYS + 15)), made


class TestBlocksOfOtherLengths:
    """The batch engine re-judges only the /L blocks that hold a new row, L
    the shortest APD prefix length.  Under configurations whose blocks are
    /48s, or /56s without the all-/64s rule, it must publish what the
    reference engine publishes, and scan exactly the rows its verdicts do
    not flag."""

    DAYS = range(30)

    @pytest.mark.parametrize(
        "apd_config",
        [
            APDConfig(prefix_lengths=tuple(range(48, 125, 4)), min_targets_per_prefix=3),
            APDConfig(
                prefix_lengths=tuple(range(56, 125, 4)),
                min_targets_per_prefix=2,
                always_probe_64=False,
            ),
        ],
        ids=["blocks-48", "blocks-56"],
    )
    def test_engines_agree(self, apd_config):
        internet, assembly = build("substrate", "baseline", scale="tiny", seed=7)
        batch = HitlistService(internet, assembly, apd_config=apd_config, seed=7)
        reference = HitlistService(
            internet,
            assembly,
            apd_config=apd_config,
            seed=7,
            policy=ExecutionPolicy(reference=True),
        )
        for day in self.DAYS:
            db, dr = batch.run_day(day), reference.run_day(day)
            assert db.aliased_prefixes == dr.aliased_prefixes, day
            assert db.responsive_addresses == dr.responsive_addresses, day
            assert db.hitlist.provenance() == dr.hitlist.provenance(), day
            rows = db.hitlist.address_batch
            kept = rows.take(~db.apd_result.is_aliased_batch(rows))
            assert db.targets_batch.to_ints() == kept.to_ints(), day
        assert sum(batch.apd_probe_counts.values()) < sum(reference.apd_probe_counts.values())


class TestServiceEngineContract:
    def test_batch_engine_rejects_decreasing_days(
        self, deterministic_internet, scripted_assembly
    ):
        assembly, _ = scripted_assembly
        service = HitlistService(deterministic_internet, assembly, seed=1)
        service.run_day(2)
        with pytest.raises(ValueError):
            service.run_day(1)

    def test_standing_hitlist_matches_reference_day_hitlist(
        self, deterministic_internet, scripted_assembly
    ):
        assembly, _ = scripted_assembly
        service = HitlistService(deterministic_internet, assembly, seed=1)
        service.run_day(4)
        expected = Hitlist.from_assembly(assembly, day=4)
        standing = service.standing_hitlist
        assert len(standing) == len(expected)
        assert standing.provenance() == expected.provenance()


class TestDeterministicAnomalyGate:
    """Regression: with ``stochastic_anomalies=False`` an aliased region must
    read no draw at all.  Historically the ICMP rate-limit Bernoulli fired
    regardless of the gate, so two probes of the same (address, protocol,
    day) could disagree on a "deterministic" Internet."""

    @pytest.fixture(scope="class")
    def rate_limited_region(self):
        import random

        from repro.netmodel.asregistry import ASCategory

        internet = SimulatedInternet(DETERMINISTIC_CONFIG)
        plan = next(
            p for p in internet.plans if p.category is ASCategory.CLOUD_CDN
        )
        prefix = plan.allocation.nth_subnet(120, 8192)
        region = internet._register_aliased_region(
            plan, prefix, random.Random(99), icmp_rate_limit=0.7
        )
        return internet, region

    def test_gate_follows_config(self, rate_limited_region):
        _, region = rate_limited_region
        assert region.stochastic is False
        assert region.icmp_rate_limit == 0.7

    def test_region_admits_reads_no_draw(self, rate_limited_region):
        from repro.netmodel.services import Protocol

        internet, region = rate_limited_region

        def poisoned(salt):
            raise AssertionError("deterministic region read a draw")

        for protocol in (Protocol.ICMP, Protocol.TCP80):
            assert region.admits(protocol, poisoned)
        # Rate limit disabled, not "always shed": the probe is answered.
        assert internet.probe(region.prefix.first, Protocol.ICMP, day=0) is not None

    def test_scalar_probe_is_attempt_independent(self, rate_limited_region):
        from repro.netmodel.services import Protocol

        internet, region = rate_limited_region
        address = region.prefix.first
        replies = [
            internet.probe(address, Protocol.ICMP, day=1, attempt=attempt)
            for attempt in (0, 1, 2)
        ]
        assert all(r is not None for r in replies)
        assert len({r.protocol for r in replies}) == 1

    def test_batch_column_matches_scalar(self, rate_limited_region):
        from repro.netmodel.services import Protocol

        internet, region = rate_limited_region
        addresses = [region.prefix.first, region.prefix.last]
        result = internet.probe_batch(addresses, [Protocol.ICMP], day=1)
        scalar = [
            internet.probe(a, Protocol.ICMP, day=1) is not None for a in addresses
        ]
        assert result.responsive[:, 0].tolist() == scalar


class TestDayCutoffFloor:
    """Satellite regression: fractional event timestamps must floor to the
    day grid at the provenance boundary -- ``first_seen_day`` stays integral
    and a float day cutoff selects exactly the completed days."""

    def test_merge_records_floors_float_first_seen(self):
        source = ScriptedSource(
            "waves",
            {
                day: [IPv6Address(0x20010DB8 << 96 | i)]
                for i, day in enumerate([0.25, 1.0, 3.9, 4.999])
            },
        )
        hitlist = Hitlist()
        hitlist.merge_records([source])
        days = hitlist.first_seen_days
        assert days.dtype == np.int64
        assert sorted(days.tolist()) == [0, 1, 3, 4]

    def test_merge_records_floors_float_window(self):
        source = ScriptedSource(
            "waves", {day: [IPv6Address(0x20010DB8 << 96 | day)] for day in range(6)}
        )
        hitlist = Hitlist()
        hitlist.merge_records([source], first_day=1.7, last_day=3.5)
        # floor(1.7)=1 and floor(3.5)=3: days 1..3 inclusive survive.
        assert sorted(hitlist.first_seen_days.tolist()) == [1, 2, 3]

    def test_from_sources_floors_fractional_day(self):
        source = ScriptedSource(
            "late",
            {
                4: [IPv6Address(0x20010DB8 << 96 | 0xA)],
                5: [IPv6Address(0x20010DB8 << 96 | 0xB)],
            },
        )
        mid_day4 = Hitlist.from_sources([source], day=4.7)
        whole_day4 = Hitlist.from_sources([source], day=4)
        assert len(mid_day4) == len(whole_day4) == 1
        assert mid_day4.first_seen_days.tolist() == [4]
