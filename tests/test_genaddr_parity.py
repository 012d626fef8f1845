"""Seeded parity of the batch generation pipeline vs the scalar reference.

Both :class:`GenerationPipeline` engines consume the pipeline random stream
identically (shared per-AS sub-seed draws, index-based capping samples), so
candidate sets and per-AS reports must be bit-identical for any seed.  Probe
outcomes are asserted on a fully deterministic Internet (no loss, no ICMP
rate limiting, no stochastic anomaly regions), where responsiveness is a
pure function of (target, protocol, day) and the batch engine's single
``probe_batch`` sweep must agree with the scalar per-protocol sweeps.

One AS is scripted so that *all* of its seeds fall inside a detected aliased
prefix: its generated candidates must be filtered by the cached APD verdicts
in both engines, without re-probing any prefix.
"""

import pytest

from repro.addr.address import IPv6Address
from repro.addr.prefix import IPv6Prefix
from repro.core.apd import AliasedPrefixDetector
from repro.exec import ExecutionPolicy
from repro.genaddr import GenerationPipeline
from repro.netmodel import InternetConfig, SimulatedInternet
from repro.netmodel.services import HostRole

#: Deterministic small Internet: probe outcomes are pure functions of
#: (target, protocol, day), the premise of exact cross-engine probe parity.
DETERMINISTIC_CONFIG = InternetConfig(
    seed=7,
    num_ases=50,
    base_hosts_per_allocation=10,
    max_hosts_per_allocation=180,
    study_days=20,
    packet_loss=0.0,
    icmp_rate_limited_share=0.0,
    stochastic_anomalies=False,
)

MIN_SEEDS_PER_AS = 60
BUDGET_PER_AS = 150
PIPELINE_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def parity_setup():
    """(internet, seed list incl. the aliased-prefix AS, APD result, region)."""
    internet = SimulatedInternet(DETERMINISTIC_CONFIG)
    region = internet.aliased_regions[0]
    region_asn = internet.asn_of(IPv6Address(region.prefix.network | 1))
    assert region_asn is not None
    seeds = [
        a
        for a in internet.addresses_by_role(
            HostRole.WEB_SERVER, HostRole.DNS_SERVER, HostRole.MAIL_SERVER
        )
        if not internet.is_aliased_truth(a) and internet.asn_of(a) != region_asn
    ]
    # An AS whose seeds ALL fall inside one aliased prefix: upstream seed
    # curation missed them, the candidate filter must catch the fallout.
    invaded = [
        IPv6Address(region.prefix.network | (0x100 + i))
        for i in range(MIN_SEEDS_PER_AS + 40)
    ]
    seeds = seeds + invaded
    apd_result = AliasedPrefixDetector(internet, seed=13).run(seeds, day=0)
    assert apd_result.is_aliased(invaded[0]), IPv6Prefix.of(invaded[0].value, 64)
    return internet, seeds, apd_result, region, region_asn


def _run_engines(parity_setup, seed):
    internet, seeds, apd_result, _, _ = parity_setup
    reports = {}
    for reference in (True, False):
        pipeline = GenerationPipeline(
            internet,
            min_seeds_per_as=MIN_SEEDS_PER_AS,
            generation_budget_per_as=BUDGET_PER_AS,
            seed=seed,
            policy=ExecutionPolicy(reference=reference),
        )
        reports[reference] = pipeline.run(seeds, day=0, probe=True, apd_result=apd_result)
    return reports[True], reports[False]


@pytest.fixture(scope="module")
def engine_reports(parity_setup):
    return {seed: _run_engines(parity_setup, seed) for seed in PIPELINE_SEEDS}


class TestGenerationParity:
    def test_candidate_sets_identical(self, engine_reports):
        for seed, (reference, batch) in engine_reports.items():
            for tool in ("entropy_ip", "6gen"):
                assert set(a.value for a in reference.candidates[tool]) == set(
                    batch.candidate_batch(tool).to_ints()
                ), (seed, tool)
                assert reference.generated_count(tool) == batch.generated_count(tool)

    def test_per_as_reports_identical(self, engine_reports):
        for seed, (reference, batch) in engine_reports.items():
            ref_rows = [
                (r.asn, r.tool, r.seeds, [a.value for a in r.generated])
                for r in reference.per_as
            ]
            batch_rows = [
                (r.asn, r.tool, r.seeds, r.generated_batch.to_ints())
                for r in batch.per_as
            ]
            assert ref_rows == batch_rows, seed

    def test_responsive_sets_and_rates_identical(self, engine_reports):
        for seed, (reference, batch) in engine_reports.items():
            for tool in ("entropy_ip", "6gen"):
                assert reference.responsive_any(tool) == batch.responsive_any(tool), (
                    seed,
                    tool,
                )
                assert reference.response_rate(tool) == pytest.approx(
                    batch.response_rate(tool), abs=0
                )
                for protocol, addresses in reference.responsive[tool].items():
                    assert addresses == batch.responsive[tool][protocol], (seed, tool, protocol)

    def test_protocol_combinations_identical(self, engine_reports):
        for seed, (reference, batch) in engine_reports.items():
            for tool in ("entropy_ip", "6gen"):
                assert reference.protocol_combination_shares(
                    tool
                ) == batch.protocol_combination_shares(tool), (seed, tool)

    def test_aliased_as_generates_but_yields_no_candidates(
        self, parity_setup, engine_reports
    ):
        _, _, apd_result, region, region_asn = parity_setup
        for seed, (reference, batch) in engine_reports.items():
            for report in (reference, batch):
                per_as = [
                    r
                    for r in report.per_as
                    if r.asn == region_asn and r.generated_count > 0
                ]
                assert per_as, (seed, "the aliased AS must still generate")
                for tool in ("entropy_ip", "6gen"):
                    assert not any(
                        value in region.prefix
                        for value in report.candidate_batch(tool).to_addresses()
                    ), (seed, tool, "aliased candidates must be filtered")

    def test_no_candidate_is_aliased(self, parity_setup, engine_reports):
        _, _, apd_result, _, _ = parity_setup
        for seed, (_, batch) in engine_reports.items():
            for tool in ("entropy_ip", "6gen"):
                candidates = batch.candidate_batch(tool)
                if len(candidates):
                    assert not apd_result.is_aliased_batch(candidates).any(), (seed, tool)


class TestEngineContract:
    def test_seeds_by_as_partitions_identically(self, parity_setup):
        from repro.addr.batch import AddressBatch

        internet, seeds, *_ = parity_setup
        reference = GenerationPipeline(internet, min_seeds_per_as=MIN_SEEDS_PER_AS, seed=5)
        batch = GenerationPipeline(internet, min_seeds_per_as=MIN_SEEDS_PER_AS, seed=5)
        scalar_groups = reference.seeds_by_as(seeds)
        batch_groups = batch.seeds_by_as_batch(AddressBatch.from_addresses(seeds))
        assert set(scalar_groups) == set(batch_groups)
        for asn, members in scalar_groups.items():
            assert [a.value for a in members] == batch_groups[asn].to_ints(), asn
