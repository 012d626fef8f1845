"""Shared experiment context.

Building the simulated Internet, assembling sources, running APD and running
a full five-protocol sweep are the expensive steps every experiment needs.
The context builds each of them lazily, exactly once, and caches the result
so that running all experiments (or all benchmarks) costs one pipeline run
plus per-experiment analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from repro.addr.address import IPv6Address
from repro.addr.batch import AddressBatch
from repro.core.apd import AliasedPrefixDetector, APDConfig, APDResult
from repro.core.hitlist import Hitlist
from repro.exec import ExecutionPolicy
from repro.netmodel.config import InternetConfig
from repro.netmodel.internet import BatchProbeResult, ResolvedTargets, SimulatedInternet
from repro.netmodel.services import ALL_PROTOCOLS, Protocol
from repro.probing.scheduler import ScanScheduler
from repro.sources.registry import SourceAssembly, assemble_all_sources


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Scale and seeding of the experiment pipeline.

    The defaults give an Internet with a few hundred ASes, a hitlist input of
    ~12 k addresses and scan campaigns that complete in tens of seconds --
    roughly three to four orders of magnitude below the paper's absolute
    numbers while preserving the relative structure every experiment checks.
    """

    seed: int = 2018
    num_ases: int = 200
    base_hosts_per_allocation: int = 25
    max_hosts_per_allocation: int = 900
    hitlist_target: int = 12_000
    runup_days: int = 180
    longitudinal_days: int = 14
    apd_min_targets: int = 100
    # Stochastic knobs, mirroring the InternetConfig defaults.  Zero out the
    # first two and disable the third for a fully deterministic Internet --
    # the substrate of the golden-snapshot regression tests, where every
    # experiment output is a pure function of the configuration.
    packet_loss: float = 0.015
    icmp_rate_limited_share: float = 0.02
    stochastic_anomalies: bool = True
    # Extra InternetConfig fields applied on top of the derived configuration,
    # as a sorted tuple of (field, value) pairs so the config stays hashable.
    # This is how scenario presets (repro.scenarios) reach Internet-only knobs
    # -- aliased_region_rate, deaggregation_rate, uptimes, ... -- through an
    # ExperimentConfig without widening this dataclass for each of them.
    internet_overrides: tuple[tuple[str, object], ...] = ()

    def internet_config(self) -> InternetConfig:
        """The matching simulated-Internet configuration."""
        config = InternetConfig(
            seed=self.seed,
            num_ases=self.num_ases,
            base_hosts_per_allocation=self.base_hosts_per_allocation,
            max_hosts_per_allocation=self.max_hosts_per_allocation,
            study_days=max(30, self.longitudinal_days + 2),
            packet_loss=self.packet_loss,
            icmp_rate_limited_share=self.icmp_rate_limited_share,
            stochastic_anomalies=self.stochastic_anomalies,
        )
        if self.internet_overrides:
            config = replace(config, **dict(self.internet_overrides))
        return config


#: Configuration used by the benchmark harness and EXPERIMENTS.md.
DEFAULT_EXPERIMENT_CONFIG = ExperimentConfig()

#: Smaller configuration for integration tests of the experiment modules.
TEST_EXPERIMENT_CONFIG = ExperimentConfig(
    seed=7,
    num_ases=80,
    base_hosts_per_allocation=12,
    max_hosts_per_allocation=300,
    hitlist_target=3_000,
    runup_days=60,
    longitudinal_days=6,
)


class ExperimentContext:
    """Lazily built, cached pipeline artefacts shared by all experiments.

    ``policy`` reaches every engine-paired step an experiment runs: the
    context's own day-0 APD, every responsiveness scan (:meth:`scan`), and
    the detectors, clusterings, window mergers and generation pipelines the
    experiments build over it.
    """

    def __init__(
        self,
        config: ExperimentConfig = DEFAULT_EXPERIMENT_CONFIG,
        *,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ):
        self.config = config
        self.policy = policy

    # -- substrate -----------------------------------------------------------------

    @cached_property
    def internet(self) -> SimulatedInternet:
        """The simulated IPv6 Internet."""
        return SimulatedInternet(self.config.internet_config())

    @cached_property
    def assembly(self) -> SourceAssembly:
        """All daily-scanned hitlist sources."""
        return assemble_all_sources(
            self.internet,
            total_target=self.config.hitlist_target,
            seed=self.config.seed ^ 0xA55,
            runup_days=self.config.runup_days,
        )

    @cached_property
    def hitlist(self) -> Hitlist:
        """The merged hitlist input (all sources, full run-up)."""
        return Hitlist.from_assembly(self.assembly)

    # -- aliased prefix detection ------------------------------------------------------

    @cached_property
    def apd_config(self) -> APDConfig:
        return APDConfig(min_targets_per_prefix=self.config.apd_min_targets)

    @cached_property
    def apd_result(self) -> APDResult:
        """Day-0 multi-level APD over the full hitlist."""
        detector = AliasedPrefixDetector(
            self.internet,
            self.apd_config,
            seed=self.config.seed ^ 0xA9D,
            policy=self.policy,
        )
        return detector.run(self.hitlist.addresses, day=0)

    @cached_property
    def aliased_split(self) -> tuple[list[IPv6Address], list[IPv6Address]]:
        """The hitlist split into (aliased, non-aliased) addresses."""
        return self.apd_result.split(self.hitlist.addresses)

    @property
    def aliased_addresses(self) -> list[IPv6Address]:
        return self.aliased_split[0]

    @property
    def non_aliased_addresses(self) -> list[IPv6Address]:
        return self.aliased_split[1]

    # -- scans ---------------------------------------------------------------------------

    def scan(
        self,
        targets: AddressBatch | ResolvedTargets,
        day: int,
        *,
        seed: int,
        protocols: Sequence[Protocol] = ALL_PROTOCOLS,
    ) -> BatchProbeResult:
        """One day's scan of *targets* on *protocols*, on the policy's engine.

        The only place an experiment scan picks its engine: one
        ``probe_batch`` pass by default, the scalar scheduler under
        ``reference=True``.  Both fill the same (target x protocol) matrix,
        with rows in *targets* order, and probe outcomes are keyed draws, so
        both engines give the same answers.  *targets* may be a resolution
        (:meth:`SimulatedInternet.resolve_targets`) of a batch scanned on
        several days; the scalar scheduler scans its addresses.
        """
        scheduler = ScanScheduler(self.internet, protocols, seed=seed)
        if self.policy.reference:
            if isinstance(targets, ResolvedTargets):
                targets = targets.targets
            return scheduler.run_day(targets.to_addresses(), day)
        return scheduler.run_day_batch(targets, day)

    @cached_property
    def day0_scan(self) -> BatchProbeResult:
        """Five-protocol day-0 scan over the non-aliased scan targets."""
        targets = AddressBatch.from_addresses(self.non_aliased_addresses)
        return self.scan(targets, 0, seed=self.config.seed ^ 0x5CA)

    @cached_property
    def longitudinal_campaign(self) -> Sequence[BatchProbeResult]:
        """Multi-day campaign over the day-0 responsive addresses (Figure 8)."""
        batch = AddressBatch.from_addresses(self.day0_scan.responsive_on()).sort()
        # Resolved once for every day of the campaign.
        targets = self.internet.resolve_targets(batch)
        seed = self.config.seed ^ 0x10E
        return [self.scan(targets, day, seed=seed) for day in range(self.config.longitudinal_days)]

    # -- convenience ------------------------------------------------------------------------

    def responsive_on(self, protocol: Protocol) -> set[IPv6Address]:
        """Day-0 responsive addresses for one protocol."""
        return self.day0_scan.responsive_on(protocol)

    def bgp_origin_map(self) -> dict:
        """Announced prefix -> origin ASN for zesplot ordering."""
        return {ann.prefix: ann.origin_asn for ann in self.internet.bgp}
